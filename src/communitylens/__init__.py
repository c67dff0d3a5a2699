"""Individual-level scientific-community indicators from bibliographic corpora.

The pipeline ingests a publications file (JSONL), an optional author-careers
file and optional cluster metadata, and computes per-year author cohorts,
academic-age / production / focus indicators, quadrant classifications, and
cluster map overlays, emitting deterministic delimited reports.
"""

__version__ = "0.1.0"

from .cohorts import (
    TopicIndex,
    UnknownTopicError,
    YearCohorts,
    cohort_series,
    topic_activity,
    year_cohorts,
)
from .classify import (
    DegenerateDistributionError,
    QuadrantAssignment,
    QuadrantThresholds,
    classify_authors,
    resolve_thresholds,
)
from .compare import ComparisonReport, compare
from .corpus import (
    AuthorCareer,
    CareerConflictError,
    ClusterMeta,
    Corpus,
    CorpusError,
    DuplicatePubIdError,
    MalformedRecordError,
    MissingCareerError,
    RESEARCH_AREAS,
    load_corpus,
)
from .indicators import (
    AuthorProfile,
    CareerDataError,
    ProductionBand,
    YearIndicatorSummary,
    author_profiles,
    production_bands,
    year_summaries,
)
from .overlay import AreaRollup, ClusterOverlayRow, area_rollup, cluster_overlay, stay_status
from .synthgen import GeneratorConfig, GroundTruth, InfeasibleConfigError, generate

__all__ = [
    "__version__",
    "AreaRollup",
    "AuthorCareer",
    "AuthorProfile",
    "CareerConflictError",
    "CareerDataError",
    "ClusterMeta",
    "ClusterOverlayRow",
    "ComparisonReport",
    "Corpus",
    "CorpusError",
    "DegenerateDistributionError",
    "DuplicatePubIdError",
    "GeneratorConfig",
    "GroundTruth",
    "InfeasibleConfigError",
    "MalformedRecordError",
    "MissingCareerError",
    "ProductionBand",
    "QuadrantAssignment",
    "QuadrantThresholds",
    "RESEARCH_AREAS",
    "TopicIndex",
    "UnknownTopicError",
    "YearCohorts",
    "YearIndicatorSummary",
    "area_rollup",
    "author_profiles",
    "classify_authors",
    "cluster_overlay",
    "cohort_series",
    "compare",
    "generate",
    "load_corpus",
    "production_bands",
    "resolve_thresholds",
    "stay_status",
    "topic_activity",
    "year_cohorts",
    "year_summaries",
]
