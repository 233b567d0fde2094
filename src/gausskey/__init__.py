"""Secret-key distillation analysis for two-mode symmetric Gaussian states.

The package splits into a numerics kernel (:mod:`gausskey.matkit`),
covariance-matrix calculus (:mod:`gausskey.gaussian`), the measurement +
advantage-distillation protocol layer (:mod:`gausskey.protocol`), the
adversary-side security analysis (:mod:`gausskey.security`), an independent
position-grid verifier (:mod:`gausskey.oracle`), and a batch CLI
(:mod:`gausskey.cli`).
"""

from .errors import (
    EvaluationError,
    GaussKeyError,
    GridTooSmall,
    IllConditioned,
    InvalidInput,
    NotPSD,
    OutcomeUnlikely,
)
from .gaussian import (
    ConditionalGaussian,
    GaussianState,
    SymmetricStateParams,
    SymplecticDiag,
    condition_on_x,
    is_nppt,
    is_physical,
    npt_symmetric,
    partial_transpose,
    pure_overlap,
    purify,
    symmetric_embed,
    symmetric_exponents,
    symplectic_spectrum,
    williamson,
    xxpp_indices,
)
from .matkit import Rng, binary_entropy, eigh, entropy_bits, minimize_scalar, pseudo_inverse, sample_mvn
from .protocol import (
    DistillationOutcome,
    ProtocolConfig,
    SiftedBits,
    ad_error,
    ad_error_bound,
    error_probability,
    simulate_advantage_distillation,
    simulate_sifting,
)
from .security import (
    Effective2x2,
    EveEnsemble,
    SecurityReport,
    any_x0_secure,
    build_report,
    coherent_ad_secure,
    effective_state,
    eve_ensemble,
    eve_overlap,
    optimize_rate,
    rate_lower_bound,
    security_frontier,
)

__version__ = "0.1.0"
