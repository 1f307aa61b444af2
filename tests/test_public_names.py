"""The package's public surface, pinned so that any added or removed export
shows up as a diff of this list."""

import fssfunnel

PUBLIC_NAMES = [
    "AssessablePopulation",
    "AssessmentConfig",
    "AssessmentError",
    "AuthorSlot",
    "BandPoint",
    "CitationBaseline",
    "Classification",
    "DegenerateSample",
    "DuplicatePublicationId",
    "DuplicateResearcherId",
    "EmptyPopulation",
    "FunnelReport",
    "GrandMeanMode",
    "InstitutionSummary",
    "IoError",
    "MalformedAuthorList",
    "MissingBaseline",
    "ParseError",
    "PooledFit",
    "PublicationRecord",
    "Rank",
    "ResearcherRecord",
    "SkewnessTarget",
    "TransformSpec",
    "UnknownResearcherRef",
    "ValidationErrors",
    "WeightingScheme",
    "adjusted_means",
    "apply_exclusions",
    "build_funnel_report",
    "classify_institution",
    "confidence_bands",
    "errors",
    "fit_pooled",
    "fractional_weights",
    "funnel",
    "indicator",
    "log_shift_transform",
    "model",
    "qq_points",
    "render",
    "render_caterpillar_svg",
    "render_funnel_svg",
    "render_qq_svg",
    "researcher_fss",
    "sample_skewness",
    "size_slope",
    "transform",
    "validate_dataset",
    "zero_skewness_delta",
]


def test_public_names_are_pinned():
    # The package imports neither its ``cli`` nor its ``synth`` module; each
    # attribute appears only once something else has imported it, so both
    # are left out.
    public = sorted(name for name in dir(fssfunnel) if not name.startswith("_"))
    assert [name for name in public if name not in ("cli", "synth")] == PUBLIC_NAMES
