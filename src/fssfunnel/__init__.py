"""Productivity scoring for researchers and funnel-plot uncertainty
assessment of institutional means."""

from .errors import (
    AssessmentError,
    DegenerateSample,
    DuplicatePublicationId,
    DuplicateResearcherId,
    EmptyPopulation,
    IoError,
    MalformedAuthorList,
    MissingBaseline,
    ParseError,
    UnknownResearcherRef,
    ValidationErrors,
)
from .funnel import (
    BandPoint,
    Classification,
    FunnelReport,
    InstitutionSummary,
    PooledFit,
    adjusted_means,
    build_funnel_report,
    classify_institution,
    confidence_bands,
    fit_pooled,
    qq_points,
    size_slope,
)
from .indicator import fractional_weights, researcher_fss
from .model import (
    AssessablePopulation,
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    GrandMeanMode,
    PublicationRecord,
    Rank,
    ResearcherRecord,
    SkewnessTarget,
    WeightingScheme,
    apply_exclusions,
    validate_dataset,
)
from .render import render_caterpillar_svg, render_funnel_svg, render_qq_svg
from .transform import (
    TransformSpec,
    log_shift_transform,
    sample_skewness,
    zero_skewness_delta,
)

__version__ = "0.1.0"
