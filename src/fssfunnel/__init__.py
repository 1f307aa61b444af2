"""Productivity scoring for researchers and funnel-plot uncertainty
assessment of institutional means."""

from .errors import (
    AssessmentError,
    DegenerateRegressor,
    DegenerateSample,
    DuplicatePublicationId,
    DuplicateResearcherId,
    EmptyAuthorList,
    EmptyPopulation,
    EmptyReport,
    InsufficientDegreesOfFreedom,
    IoError,
    MalformedAuthorList,
    MissingBaseline,
    MissingScore,
    NonPositiveShift,
    ParseError,
    UnknownResearcherRef,
    ValidationErrors,
    ZeroYearsActive,
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
    qq_max_deviation,
    qq_points,
    size_slope,
)
from .indicator import (
    ResearcherScore,
    fractional_weights,
    normalized_impact,
    researcher_fss,
)
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
    ValidatedDataset,
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
