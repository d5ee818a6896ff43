"""kpd: positive-definiteness analysis of an anisotropic rational kernel
family.

The library evaluates the kernel

    K(x, y) = (1/pi) / (1 + (x - y)^2 + a*(x^2 + y^2)^t),   t > 0, a > 0,

runs finite-sample positive/conditionally-negative definiteness tests,
computes the closed-form two-point violation boundary in the weight a,
constructs exact vanishing-moment witnesses that certify non-definiteness
for noninteger t with odd integer part, validates the fractional-power
integral representation behind the witness sign argument, and probes the
discretized operator spectrum.
"""

from .errors import (
    DomainError,
    EigensolverError,
    KpdError,
    PreconditionError,
    SizeCapError,
    ToleranceError,
)
from .kernel import (
    Certificate,
    KernelParams,
    PointConfig,
    certify_negative,
    distance_form,
    eval_kernel,
    kernel_matrix,
    nonneg_power,
    quadratic_form,
    resolve_form_sign,
)
from .definiteness import DefinitenessVerdict, cnd_check, pd_check
from .boundary import (
    BoundaryReport,
    SchwarzSearchResult,
    boundary_report,
    critical_weight,
    find_schwarz_violation,
    schwarz_margin,
    schwarz_margin_exact,
    tangency_z,
    threshold_weight,
)
from .witness import (
    ExponentKey,
    NegativeScaleCertificate,
    PowerSeries,
    WitnessConfig,
    build_binomial_witness,
    check_moments,
    cleared_form_series,
    cleared_form_value,
    difference_power_sum,
    find_negative_scale,
    predict_t_coefficient_sign,
    subset_product_identity,
    t_power_coefficient,
)
from .fracpow import (
    FracPowerParams,
    ValidationReport,
    integral_power,
    integrand_l1_norm,
    l1_bound_constant,
    rising_factorial,
    split_power,
    validate_representation,
)
from .spectral import (
    NEGATIVE_FOUND,
    NO_NEGATIVE_AT_RESOLUTION,
    SpectralReport,
    build_scheme,
    certify_negative_direction,
    min_operator_eigenvalue,
    nystrom_matrix,
)

__version__ = "0.1.0"
