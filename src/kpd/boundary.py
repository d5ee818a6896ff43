"""The two-point (Schwarz) necessary condition for positive-definiteness.

For two points (x, 0) the Gram determinant of the kernel has the sign of

    margin(z) = (1 + z)^2 - 1 + 2*a*z^t*((1 + z) - 2^(t-1)) + a^2*z^(2t),

with z = x^2.  A negative margin is therefore a two-point witness that
the kernel is not positive-definite.  For t > 1 the margin, minimized
over the weight a at fixed z, is negative exactly on z in (0, z_tangent),
and the weights realized by those minimizers form (a_threshold, inf):

    critical_weight(z) = (2^(t-1) - (1 + z)) / z^t        (the minimizer),
    z_tangent  = (2^(t-1) - 1)^2 / 2^t,
    a_threshold = (2^(t^2-1) + 2^(t^2-t)) / (2^(t-1) - 1)^(2t-1).

Hence every a > a_threshold admits a violation found by solving
critical_weight(z) = a on the strictly decreasing branch.  The margin can
also dip below zero for some weights *below* the threshold (the quadratic
in a is negative on a whole interval around its minimizer, not only at
it), so the violation finder falls back to a direct scan and reports
whatever it can certify; a failed scan is never a PD claim.  The margin
only picks z: a violation is a FAIL of :func:`~kpd.definiteness.pd_check`,
whose certificate is the lowest eigenvector of the two-point Gram matrix.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .kernel import Certificate, KernelParams
from .definiteness import pd_check

# The threshold, near 2^(-(t-1)(t-2)), is 1e-245 here and subnormal from t = 34.
T_CAP = 30.0
# The size of the violation search's log-spaced margin scan over
# (0, z_tangent].
SCAN_POINTS = 2000


def _pow2m1(t_minus_1: float) -> float:
    """2^s - 1 for s = t - 1: exact for representable powers away from
    s = 0, expm1-accurate close to it."""
    if t_minus_1 < 0.5:
        return math.expm1(t_minus_1 * math.log(2.0))
    return 2.0**t_minus_1 - 1.0


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    if t <= 1.0:
        raise DomainError(f"the two-point margin analysis assumes t > 1 (got t={t})")
    return t


def schwarz_margin(z: float, t: float, a: float) -> float:
    """Two-point Gram-determinant margin on the (x, 0) slice, z = x^2.

    Negative values certify a positive-definiteness violation.
    """
    t = _check_t(t)
    z = float(z)
    if z < 0 or not math.isfinite(z):
        raise DomainError(f"z must be >= 0 and finite, got {z!r}")
    return _margin(z, t, a)


def _margin(z, t, a):
    """The margin formula for z >= 0: floats, numpy arrays, or for an
    integer t exact Fractions."""
    azt = a * z**t
    return (1 + z) ** 2 - 1 + 2 * azt * ((1 + z) - 2 ** (t - 1)) + azt**2


def schwarz_margin_exact(z: Fraction, t: int, a: Fraction) -> Fraction:
    """Exact-rational margin for integer exponents.

    Used where a verdict must be arithmetic fact rather than a float
    comparison (e.g. margin(1/5; 2, 13) = -76/625 exactly).
    """
    if int(t) != t or t < 2:
        raise DomainError(f"exact margin requires an integer t >= 2, got {t!r}")
    return _margin(Fraction(z), int(t), Fraction(a))


def critical_weight(z: float, t: float) -> float:
    """The weight minimizing the margin at fixed z: (2^(t-1) - (1+z)) / z^t.

    Defined (and positive) for 0 < z < 2^(t-1) - 1; strictly decreasing
    there, diverging as z -> 0+.  +inf where z^t underflows to 0.
    """
    t = _check_t(t)
    z = float(z)
    hi = _pow2m1(t - 1.0)
    if not (0.0 < z < hi):
        raise DomainError(
            f"critical_weight needs 0 < z < 2^(t-1)-1 = {hi:.6g}, got z={z!r}"
        )
    zt = z**t
    return (hi - z) / zt if zt > 0.0 else math.inf


def tangency_z(t: float) -> float:
    """The z below which the minimized margin is negative: (2^(t-1)-1)^2 / 2^t."""
    t = _check_t(t)
    return _pow2m1(t - 1.0) ** 2 / 2.0**t


def threshold_weight(t: float) -> float:
    """Closed-form weight threshold above which a two-point violation is
    guaranteed, as 2^(-(t-1)(t-2)) (1 + h) / (b h)^(2t-1) with h = 2^(1-t)
    and b = 2^(t-1) - 1: no factor overflows on (1, ``T_CAP``], and t = 2
    gives exactly 12."""
    t = _check_t(t)
    if t > T_CAP:
        raise DomainError(f"t={t} exceeds the supported cap {T_CAP}")
    h = 2.0 ** (1.0 - t)
    return 2.0 ** (-(t - 1.0) * (t - 2.0)) * (1.0 + h) / (_pow2m1(t - 1.0) * h) ** (2.0 * t - 1.0)


@dataclass(frozen=True)
class SchwarzSearchResult:
    """Outcome of a violation search on the (x, 0) slice.

    A found violation carries z, the margin value there, and the
    certificate of the 2-point configuration (sqrt(z), 0) with the
    negative-eigenvalue direction as coefficients.  A not-found outcome is
    *not* a PD certificate; it records the scan's minimum, over the
    ``SCAN_POINTS`` log-spaced z in [1e-12 z_tangent, z_tangent], so the
    report is auditable.
    """

    z: float | None = None
    g_value: float | None = None
    certificate: Certificate | None = None
    min_eigenvalue: float | None = None
    scan_min_g: float | None = None
    scan_argmin_z: float | None = None

    @property
    def found(self) -> bool:
        return self.certificate is not None


@dataclass(frozen=True)
class BoundaryReport:
    """Closed-form boundary data at a given t."""

    z_tangent: float
    a_threshold: float


def boundary_report(t: float) -> BoundaryReport:
    """Compute z_tangent and a_threshold and cross-check them against the
    minimizing-weight route to relative 1e-12."""
    z0 = tangency_z(t)
    a0 = threshold_weight(t)
    cross = critical_weight(z0, t)
    if not math.isclose(a0, cross, rel_tol=1e-12):
        raise DomainError(
            f"boundary cross-check failed at t={t}: closed form {a0!r} vs "
            f"critical_weight(z_tangent) {cross!r}"
        )
    return BoundaryReport(z_tangent=z0, a_threshold=a0)


def _violation_from_z(t: float, a: float, z: float, scan_meta: dict) -> SchwarzSearchResult:
    verdict = pd_check(KernelParams(t=t, a=a), (math.sqrt(z), 0.0), tolerance=0.0)
    if not verdict.failed:
        return SchwarzSearchResult(**scan_meta)
    return SchwarzSearchResult(
        z=z,
        g_value=schwarz_margin(z, t, a),
        certificate=verdict.certificate,
        min_eigenvalue=verdict.statistic,
        **scan_meta,
    )


def find_schwarz_violation(t: float, a: float) -> SchwarzSearchResult:
    """Find z with a negative two-point margin for the given (t, a).

    For a above the closed-form threshold the root of
    critical_weight(z) = a is bracketed on (0, z_tangent) (the branch is
    strictly decreasing and diverges at 0+) and bisected down to
    neighbouring floats; the margin there equals the minimized-margin
    value, which is negative.
    Otherwise a logarithmic scan over (0, z_tangent] reports the best
    margin found.  Violations below the threshold are genuine and are
    returned as such; "not found" only means this slice produced no
    witness at this resolution.
    """
    t = _check_t(t)
    if not (a > 0) or not math.isfinite(a):
        raise DomainError(f"a must be finite and > 0, got {a!r}")
    z0 = tangency_z(t)
    a0 = threshold_weight(t)

    # Log-spaced scan evidence over (0, z_tangent]; also the fallback search.
    zs = np.exp(np.linspace(math.log(z0 * 1e-12), math.log(z0), SCAN_POINTS))
    with np.errstate(over="ignore", invalid="ignore"):
        gs = _margin(zs, t, a)
    gs[np.isnan(gs)] = np.inf  # inf - inf: both terms overflowed, no violation
    argmin = int(np.argmin(gs))
    scan_meta = dict(
        scan_min_g=float(gs[argmin]),
        scan_argmin_z=float(zs[argmin]),
    )

    if a > a0:
        lo, hi = z0 * 1e-12, z0
        # For astronomically large a the root sits below lo; widen downward.
        while critical_weight(lo, t) <= a and lo >= 1e-280:
            lo *= 1e-3
        if critical_weight(lo, t) > a:
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if critical_weight(mid, t) > a:
                    lo = mid
                else:
                    hi = mid
            z_star = 0.5 * (lo + hi)
            result = _violation_from_z(t, a, z_star, scan_meta)
            if result.found:
                return result

    # Below (or at) the threshold, or if the bisection value failed to
    # verify: fall back to the scan minimum.
    if gs[argmin] < 0:
        return _violation_from_z(t, a, float(zs[argmin]), scan_meta)
    return SchwarzSearchResult(**scan_meta)
