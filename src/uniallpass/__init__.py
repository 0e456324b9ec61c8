"""Delay-network allpass filters that stay allpass for any delay lengths."""

from .complete import (
    AdmissibilityReport,
    SisoCompletionTrace,
    orthogonal_completion,
    random_orthogonal,
    random_uniallpass,
    siso_completion,
)
from .core import (
    AllpassReport,
    frequency_response,
    gcp,
    impulse_response,
    is_allpass,
    numerator_poly,
    poles,
    principal_minor_list,
)
from .designs import (
    delay_dependent_allpass,
    gardner_nested,
    poletti_unitary,
    schroeder_series,
)
from .errors import (
    CompletionError,
    ConditioningError,
    FdnError,
    InterleavingError,
    NotCertifiableError,
    PoleEvaluationError,
    SchemaError,
    UnstableError,
)
from .homogeneous import (
    HomogeneousDesign,
    cauchy_unitary,
    choose_dsim,
    decay_gains,
    design_homogeneous_siso,
    validate_interleaving,
)
from .system import DelayVector, FdnSystem, SystemMatrix
from .verify import (
    MinorCheck,
    SchurPair,
    UniallpassCertificate,
    apply_diagonal_similarity,
    certify_uniallpass,
    check_minor_condition,
    dsim_from_hadamard_quotient,
    dsim_from_lyapunov,
    schur_complements,
)

__version__ = "0.1.0"
