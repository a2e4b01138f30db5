"""Lipschitz-constrained invertible attention blocks at desk scale.

Core surface: dense linear-algebra primitives (:mod:`invattn.linalg`),
attention blocks and response maps (:mod:`invattn.attention`), fixed-point
inversion (:mod:`invattn.inversion`), stochastic log-determinants
(:mod:`invattn.logdet`), and the experiment harness/CLI
(:mod:`invattn.harness`).
"""

from .attention import (
    AttentionBlock,
    apply_1x1_conv,
    attention_apply,
    build_block,
    linearize,
    load_block,
    make_residual_branch,
    normalize_response,
    raw_response,
    residual_branch,
    residual_forward,
    response_map,
    save_block,
    squeeze,
    unsqueeze,
)
from .errors import DivergenceError, InvariantViolation, PpmParseError
from .inversion import (
    InversionConfig,
    InversionReport,
    LipschitzEstimate,
    estimate_lipschitz,
    fixed_point_invert,
    normal_sampler,
    roundtrip,
    roundtrip_check,
)
from .linalg import (
    exact_svd_oracle,
    lu_logabsdet,
    norm_frobenius,
    norm_l1,
    power_iteration,
    spectral_normalize,
)
from .logdet import (
    LogDetConfig,
    LogDetEstimate,
    brute_force_logdet,
    brute_force_logdet_from_branch,
    jvp,
    logdet_series,
    logdet_series_from_branch,
)

__version__ = "0.1.0"
