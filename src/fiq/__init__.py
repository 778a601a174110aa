"""Finite information quantities: propensity vectors, majority-vote models,
sound digit arithmetic and information estimators."""

from .arithmetic import (
    DeterminedDigits,
    PartialNumber,
    determined_digits,
    digits_of_rational,
    prefix_to_interval,
    scale_by_constant,
    scale_fiq_truncated,
)
from .errors import (
    DepthBeyondKnowledgeError,
    EnumerationBoundError,
    FiqError,
    InvalidRationalError,
)
from .estimators import (
    CandidateMeasures,
    CorrelationReport,
    InfoReport,
    SampleMatrix,
    block_entropy,
    correlated_info_content,
    correlation_report,
    entropy_from_dist,
    entropy_rate,
    info_report,
    joint_is_independent,
    mi_from_joint,
    mi_noise_floor,
    pairwise_mi,
)
from .models import (
    BitPrefix,
    FiqModel,
    IndependentBitsModel,
    MajorityVoteModel,
    exact_window_joint,
    model_from_json,
    sample_matrix,
    sample_prefix,
)
from .propensity import (
    InfoContent,
    PropensityVector,
    TailPolicy,
    as_propensity,
    binary_entropy,
    information_content_independent,
)
from .randombits import RandomBitSource
from .rational import format_rational, parse_rational

__version__ = "0.1.0"
