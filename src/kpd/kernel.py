"""Kernel evaluation, quadratic forms, and the one negativity certificate.

The family under study is

    K(x, y) = (1/pi) / (1 + (x - y)^2 + a*(x^2 + y^2)^t),     t > 0, a > 0,

together with the anisotropic distance form

    d(x, y) = (x - y)^2 + a*(x^2 + y^2)^t

that appears in its denominator.  Every other module reduces its question
to kernel matrices and quadratic forms built from these two evaluations, so
this module is the single source of truth for kernel arithmetic.

Conventions
-----------
* Powers of a nonnegative base use the convention 0**s = 0 for s > 0
  (see :func:`nonneg_power`); this is applied globally.
* All operations are pure functions of immutable inputs and are safe for
  concurrent use.
* A form's sign is claimed only from an enclosure: :func:`form_enclosure`
  returns the form together with an a-priori bound on its rounding error,
  and :func:`resolve_form_sign` escalates from binary64 through mpmath
  precisions until the enclosure excludes the threshold in question.
* Every certificate that the kernel is not positive definite is made by
  :func:`certify_negative`: a :class:`Certificate` exists only where
  :func:`resolve_form_sign` resolved the kernel form negative (or the
  distance form above a CND tolerance).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import DomainError, PreconditionError, ToleranceError

UNIT_ROUNDOFF = 2.0**-53
# The precision cap, in decimal digits, of resolve_form_sign, the one
# escalation in kpd (the witness scan and kpd verify run through it), and the
# largest dps_used that kpd verify accepts in a certificate.
DPS_CAP = 800
# np.power and mpmath's pow need not be correctly rounded; the error bound
# allows them this many ulps.
POW_ULPS = 4
# Nonzero binary64 inputs below this magnitude could underflow when squared.
_TINY = 2.0**-511


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _as_mpf(value) -> mp.mpf:
    # One correctly rounded conversion for rationals; floats convert exactly.
    if isinstance(value, Rational):
        num, den = value.numerator, value.denominator
        return mp.make_mpf(libmp.from_rational(num, den, mp.mp.prec, libmp.round_nearest))
    if isinstance(value, mp.mpf):
        return value
    return mp.mpf(value)


@dataclass(frozen=True)
class KernelParams:
    """The kernel parameters: exponent ``t`` and anisotropy weight ``a``.

    Both must be finite and strictly positive.
    """

    t: float
    a: float

    def __post_init__(self):
        object.__setattr__(self, "t", _require_finite("t", self.t))
        object.__setattr__(self, "a", _require_finite("a", self.a))
        if self.t <= 0.0:
            raise DomainError(f"t must be > 0, got {self.t}")
        if self.a <= 0.0:
            raise DomainError(f"a must be > 0, got {self.a}")


@dataclass(frozen=True)
class PointConfig:
    """A finite configuration: evaluation points plus real coefficients.

    Entries may be ints, floats, Fractions, or mpmath floats; they are
    validated to be finite.  Duplicated points are permitted.
    """

    points: tuple
    coeffs: tuple

    def __post_init__(self):
        points = tuple(self.points)
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "coeffs", coeffs)
        if len(points) != len(coeffs):
            raise DomainError(
                f"points and coeffs must have the same length, got "
                f"{len(points)} vs {len(coeffs)}"
            )
        if len(points) < 1:
            raise DomainError("a configuration needs at least one point")
        for v in points:
            _require_finite("point", float(v))
        for v in coeffs:
            _require_finite("coefficient", float(v))

    @property
    def n(self) -> int:
        return len(self.points)

    def as_float_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([float(p) for p in self.points], dtype=float),
            np.array([float(c) for c in self.coeffs], dtype=float),
        )


def nonneg_power(base, exponent):
    """``base**exponent`` in binary64 for base >= 0, with 0**s = 0."""
    if base < 0:
        raise DomainError(f"power base must be >= 0, got {base!r}")
    if base == 0:
        return 0.0
    return float(base) ** float(exponent)


def distance_form(params: KernelParams, x: float, y: float) -> float:
    """The anisotropic distance form (x-y)^2 + a*(x^2+y^2)^t.

    Nonnegative everywhere; zero exactly at x = y = 0.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    return (x - y) * (x - y) + params.a * nonneg_power(x * x + y * y, params.t)


def eval_kernel(params: KernelParams, x: float, y: float) -> float:
    """Evaluate the kernel; the value lies in (0, 1/pi]."""
    return 1.0 / (math.pi * (1.0 + distance_form(params, x, y)))


def _grid(values) -> np.ndarray:
    values = np.asarray(values)
    return values if values.dtype == object else values.astype(float)


def distance_matrix(params: KernelParams, x, y) -> np.ndarray:
    """Vectorized distance form d(x_i, y_j) on the grid ``x`` (rows) by
    ``y`` (cols), broadcast over any leading axes: stacks of point sets
    give stacks of matrices.  Object arrays of mpfs evaluate in mpmath at
    the working precision, anything else in binary64."""
    x, y = _grid(x)[..., :, None], _grid(y)[..., None, :]
    # At large t or |x - y| the binary64 result overflows to inf on purpose:
    # inf is the right limit, as the kernel entry 1 / (pi (1 + d)) becomes 0.
    with np.errstate(over="ignore"):
        diff = x - y
        return diff * diff + params.a * np.power(x * x + y * y, params.t)


def kernel_matrix(params: KernelParams, x, y) -> np.ndarray:
    """Vectorized kernel 1 / (pi (1 + d)) on the grid ``x`` by ``y``.

    Bit-symmetric: swapping x and y gives the transpose exactly."""
    d = distance_matrix(params, x, y)
    # the array goes left: mpf * ndarray would first try to convert the
    # whole array through its repr; a finite d near the binary64 maximum
    # overflows to inf, whose entry is 0 as in distance_matrix
    with np.errstate(over="ignore"):
        return 1 / ((1 + d) * (+mp.pi if d.dtype == object else np.pi))


def _gamma(k, u=UNIT_ROUNDOFF):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * u / (1 - k * u)


def _underflows(values, rounded: np.ndarray) -> bool:
    """True if a nonzero input rounds to binary64 below _TINY in magnitude."""
    tiny = (rounded != 0) & (np.abs(rounded) < _TINY)
    return bool(np.any(tiny)) or np.count_nonzero(rounded) < sum(v != 0 for v in values)


def form_enclosure(
    params: KernelParams,
    config: PointConfig,
    dps: int | None = None,
    distance: bool = False,
) -> tuple:
    """The kernel form sum_jk c_j c_k K(x_j, x_k), or with ``distance`` the
    distance form sum_jk c_j c_k d(x_j, x_k), with a bound on its error.

    Returns ``(value, bound)`` with |value - F| <= bound, where F is the
    exact form of the configuration as given: the real numbers its floats,
    Fractions or mpfs denote.  With ``dps=None`` the form is ``c @ M @ c``
    in binary64; with an integer ``dps`` the same expression runs in
    mpmath at that many digits, where M's n(n+1)/2 upper-triangle entries
    are evaluated once and mirrored.  mpf subtraction and addition are
    correctly rounded, so (x_j - x_k)^2 and x_j^2 + x_k^2 do not depend on
    the order of j and k, and the full grid would hold the same entries.

    The bound is a-priori (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3).  Let u = 2^-53, or 2^(1-prec) in mpmath, and
    gamma_k = k u / (1 - k u); X = max |x_j|, W = max x_j - min x_j.

    * Inputs.  Rounding a point or coefficient to the working format (at
      most once) moves it by a relative delta <= u; the bound allows
      delta <= gamma_2.  So x - y moves by at most e = 2 X delta,
      (x - y)^2 by at most r = e (2W + e), and c_j c_k by gamma_4.
    * Entries.  x^2 + y^2 carries gamma_6 (the input roundings, the squares,
      the sum), its t-th power gamma_(6 ceil(t)); pow is allowed POW_ULPS
      ulps, and the product with a and the sum with (x - y)^2 round once
      each.  With g = gamma_(6 ceil(t) + 2 POW_ULPS + 2) the computed d'
      satisfies |d' - d| <= g d + (1 + g) r <= g d' / (1 - g) + (1 + 2g) r.
      For the kernel, 2|x - y| <= 1 + d gives r / (1 + d) <= e (1 + e), so
      1 + d' = (1 + d)(1 + phi) with |phi| <= g + (1 + g) e (1 + e).  Adding
      1, pi, its product and the reciprocal take gamma_4 more:
      |K' - K| <= kappa K <= kappa K' / (1 - kappa) with
      kappa = (gamma_4 + phi) / (1 - phi).
    * Sum.  ``c @ M @ c`` is two dot products of length n, each within
      gamma_n of its sum of absolute terms (in any summation order, with
      or without FMA).  Collecting the three sources, with
      S_M = sum_jk |c'_j| |M'_jk| |c'_k| and S = sum_j |c'_j|,
      |value - F| <= gamma_(2n+8) S_M + (kappa / (1 - kappa) S_M, or for d
      g / (1 - g) S_M + (1 + 2g) r S^2) / (1 - gamma_4).
    * Evaluating that nonnegative sum in the same arithmetic loses less
      than gamma_(2n+16), which the final division covers.
    * The derivation needs every gamma_k and, for the kernel, kappa below
      1; the code asks for 1/3 and 1/2, so that the few roundings in the
      bound itself stay small.  Where that fails (too few digits for n or
      t, or points so large that e is not small) the bound is infinite.

    The rounding of inputs is the only term beyond the floating-point
    model; it is what lets 17-digit decimal points, mpf points and
    Fraction coefficients be certified as given.  mpmath neither
    underflows nor overflows.  In binary64 each operation may also add an
    absolute error of 2^-1075 by underflow; 2^-1020 ((1 + a) S^2 +
    n (S + 1)) covers it as long as no nonzero input falls below 2^-511 in
    magnitude (its square would underflow and pow amplifies that), and
    such inputs get an infinite bound.  Overflow makes the value or the
    bound infinite or NaN, which excludes nothing.
    """
    n = config.n
    matrix = distance_matrix if distance else kernel_matrix
    if dps is None:
        x, c = config.as_float_arrays()
        with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN exclude nothing
            m = matrix(params, x, x)
            value, bound = _form_and_bound(params, x, c, m, UNIT_ROUNDOFF, distance)
        if _underflows(config.points, x) or _underflows(config.coeffs, c):
            return float(value), math.inf
        s = float(np.sum(np.abs(c)))
        slack = 2.0**-1020 * ((1.0 + params.a) * s * s + n * (s + 1.0))
        return float(value), float(bound) + slack
    with mp.workdps(dps):
        x = np.array([_as_mpf(p) for p in config.points], dtype=object)
        c = np.array([_as_mpf(v) for v in config.coeffs], dtype=object)
        # the upper triangle as a stack of 1 x 1 grids, then mirrored
        i, j = np.triu_indices(n)
        m = np.empty((n, n), dtype=object)
        m[i, j] = m[j, i] = matrix(params, x[i, None], x[j, None])[:, 0, 0]
        return _form_and_bound(params, x, c, m, mp.ldexp(1, 1 - mp.mp.prec), distance)


def _form_and_bound(params: KernelParams, x, c, m, u, distance: bool):
    """The form ``c @ m @ c`` of the matrix ``m`` built at the points ``x``
    and its bound, as derived in :func:`form_enclosure`, in the arithmetic
    of the arrays (binary64, or mpf objects at the working precision) with
    unit roundoff ``u``."""
    n = len(c)
    value = c @ m @ c
    k = 6 * math.ceil(params.t) + 2 * POW_ULPS + 2
    if max(k, 2 * n + 16) >= 1 / (4 * u):  # some gamma_j would reach 1/3
        return value, math.inf
    e = 2 * np.abs(x).max() * _gamma(2, u)
    g = _gamma(k, u)
    ac = np.abs(c)
    if distance:
        rel = g / (1 - g)
        absolute = e * (2 * (x.max() - x.min()) + e) * (1 + 2 * g) * ac.sum() ** 2
    else:
        phi = g + (1 + g) * e * (1 + e)
        if not 2 * phi + _gamma(4, u) < 0.5:  # kappa would reach 1/2
            return value, math.inf
        kappa = (_gamma(4, u) + phi) / (1 - phi)
        rel, absolute = kappa / (1 - kappa), 0
    scale = ac @ np.abs(m) @ ac
    bound = _gamma(2 * n + 8, u) * scale + (rel * scale + absolute) / (1 - _gamma(4, u))
    return value, bound / (1 - _gamma(2 * n + 16, u))


def quadratic_form(
    params: KernelParams, config: PointConfig, dps: int | None = None
) -> float | mp.mpf:
    """The kernel quadratic form sum_jk c_j c_k K(x_j, x_k): the value of
    :func:`form_enclosure`, in binary64 or (with ``dps``) in mpmath."""
    return form_enclosure(params, config, dps)[0]


def resolve_form_sign(
    params: KernelParams,
    config: PointConfig,
    dps_start: int = 30,
    distance: bool = False,
    threshold: float = 0.0,
) -> tuple:
    """Decide on which side of ``threshold`` the kernel form (or with
    ``distance`` the distance form) lies.

    Tries binary64 first, reported as dps 17, then mpmath from
    ``dps_start`` digits, doubling up to ``DPS_CAP``.  Returns
    ``(value, dps, bound)`` from the first stage whose
    :func:`form_enclosure` excludes ``threshold``; raises ToleranceError
    if none does, so an unresolved value is never read as a sign.
    """
    if dps_start < 1:
        raise DomainError(f"dps_start must be >= 1, got {dps_start}")
    dps = None
    while True:
        value, bound = form_enclosure(params, config, dps, distance)
        # Rounding is monotone and the bound is representable at the stage's
        # precision, so a rounded difference above it is a true one.
        with mp.workdps(dps or 15):
            resolved = abs(value - threshold) > bound
        if resolved:
            return value, dps or 17, bound
        if dps is not None and dps >= DPS_CAP:
            raise ToleranceError(
                f"form {mp.nstr(value, 8)} is within its error bound "
                f"{mp.nstr(bound, 3)} of {threshold} at dps {dps}"
            )
        dps = dps_start if dps is None else min(2 * dps, DPS_CAP)


def check_zero_sum(coeffs) -> None:
    """Raise PreconditionError unless |sum c| <= 1e-12 sum |c| in exact
    rationals: the zero-sum precondition of a distance-form (CND) claim."""
    c = [Fraction(*libmp.to_rational(v._mpf_)) if isinstance(v, mp.mpf) else Fraction(v)
         for v in coeffs]
    residual, scale = abs(sum(c)), sum(map(abs, c))
    if residual > scale / 10**12:
        raise PreconditionError(
            f"coefficients must sum to zero (relative residual {float(residual / scale):.3e})"
        )


@dataclass(frozen=True, eq=False)
class Certificate:
    """A configuration whose form is certified on the side it claims:
    ``value`` is the form at ``dps`` digits (17 for binary64), within
    ``error_bound`` of the exact form of ``config``.  Made by
    :func:`certify_negative`, it claims value + error_bound < 0 for the
    kernel form; by :func:`~kpd.definiteness.cnd_check`, value -
    error_bound > tolerance for the distance form."""

    config: PointConfig
    value: float | mp.mpf
    error_bound: float | mp.mpf
    dps: int


def certify_negative(
    params: KernelParams, config: PointConfig, dps_start: int = 30
) -> Certificate | None:
    """The certificate that the kernel form of ``config`` is negative, or
    None when :func:`resolve_form_sign` (from ``dps_start`` digits after
    binary64) resolves it positive or cannot resolve it at all."""
    try:
        value, dps, bound = resolve_form_sign(params, config, dps_start)
    except ToleranceError:
        return None
    return Certificate(config, value, bound, dps) if value < 0 else None
