"""Self-similar Gaussian random fields with stationary rectangular increments.

Covariance kernels for the sheet-like field families, their increment
algebra and stationarity classification, Lamperti transforms and spectral
densities, moving-average representations, quadrature oracles for the
underlying integral identities, and exact Cholesky-based simulation.
"""

from .gammafn import GammaPoleError, abs_gamma, c1, c2
from .increments import (
    ClassificationReport,
    ProbePlan,
    Rectangle,
    classify_stationarity,
    corner_expansion,
    increment_cov,
    y_half_increment_cov_closed,
)
from .kernels import (
    FBS,
    CovKernel,
    FieldSpec,
    MildTheta,
    MovingPair,
    StationarityClass,
    Strict2D,
    StrictGeneral,
    StrictWeights,
    WeightValidationError,
    YHalf,
    ZHalf,
    cov_fbs,
    cov_mild_theta,
    cov_mild_theta_array,
    cov_strict_2d,
    cov_strict_general,
    cov_strict_general_array,
    cov_y_half,
    cov_z_half,
    make_kernel,
    strict2d_weights,
    validate_weights,
)
from .lamperti import (
    SelfSimilarityError,
    StationaryCov,
    c_fbs_stationary,
    c_theta,
    lamperti_forward,
    lamperti_inverse,
    mild_criterion_residual,
)
from .movingavg import (
    MAKernel,
    cov_from_ma,
    cov_moving_pair,
    ma_kernel_general,
    ma_kernel_half,
    make_ma_kernel,
)
from .quadrature import (
    OracleCheck,
    QuadratureError,
    QuadResult,
    check_increment_integral,
    check_increment_integral_half,
    check_ma_transform,
    check_ma_transform_half,
    identity_sweep,
    integrate_1d,
    oscillatory_power_integral,
)
from .simulate import (
    Grid,
    LimitDemo,
    PSDError,
    SampleBatch,
    cholesky_sample,
    cov_matrix,
    empirical_cov,
    grid_from_axes,
    limit_partial_sums,
    mc_increment_stationarity,
    sample_field,
)
from .spectral import (
    SpectralDensity,
    TransformResult,
    cov_from_density,
    density_criterion_residual,
    fbm_density,
    fbm_spectral_cov_check,
    g_fbm,
    g_product,
    g_w,
    product_density,
)

__version__ = "0.1.0"
