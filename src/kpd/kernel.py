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
  and :func:`resolve_form_sign` climbs ``DPS_LADDER``, from binary64 through
  mpmath precisions, until the enclosure excludes the threshold in
  question.  The ladder is kpd's one precision policy: no caller picks
  digits, so a replay climbs the rungs its producer climbed.
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
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_mul, mpf_pow, mpf_rdiv_int, mpf_sub

from .errors import DomainError, PreconditionError, ToleranceError

UNIT_ROUNDOFF = 2.0**-53
# The rungs of resolve_form_sign, the one escalation in kpd (every sign
# claim and every kpd verify replay climbs it): binary64 (None, reported as
# 17 digits), then mpmath at these many decimal digits, up to DPS_CAP.
DPS_LADDER = (None, 50, 100, 200, 400, 800)
DPS_CAP = DPS_LADDER[-1]
# np.power and mpmath's pow need not be correctly rounded; the error bound
# allows them this many ulps.
POW_ULPS = 4
# Nonzero binary64 inputs below this magnitude could underflow when squared.
_TINY = 2.0**-511
_RND = libmp.round_nearest  # the mpmath rungs' rounding, as mpf arithmetic's


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _ratio(num: int, den: int) -> mp.mpf:
    """num / den correctly rounded at the working precision."""
    return mp.make_mpf(libmp.from_rational(num, den, mp.mp.prec, libmp.round_nearest))


def _as_mpf(value) -> mp.mpf:
    # One correctly rounded conversion for rationals; floats convert exactly.
    if isinstance(value, Rational):
        return _ratio(value.numerator, value.denominator)
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


def distance_matrix(params: KernelParams, x, y) -> np.ndarray:
    """Vectorized distance form d(x_i, y_j) in binary64 on the grid ``x``
    (rows) by ``y`` (cols), broadcast over any leading axes: stacks of
    point sets give stacks of matrices."""
    x = np.asarray(x, dtype=float)[..., :, None]
    y = np.asarray(y, dtype=float)[..., None, :]
    # At large t or |x - y| the binary64 result overflows to inf on purpose:
    # inf is the right limit, as the kernel entry 1 / (pi (1 + d)) becomes 0.
    with np.errstate(over="ignore"):
        diff, xx, yy = x - y, x * x, y * y
        d = np.power(xx + yy, params.t)
        if xx.max(initial=0) + yy.max(initial=0) == np.inf:
            # where x^2 + y^2 overflows, its power hypot(x, y)^(2t) may be finite
            big = np.isinf(xx + yy)
            d[big] = np.power(np.hypot(x, y)[big], 2 * params.t)
        d *= params.a  # d = a power + (x - y)^2, in place to spare an n^2 buffer
        d += diff * diff
        return d


def kernel_matrix(params: KernelParams, x, y) -> np.ndarray:
    """Vectorized kernel 1 / (pi (1 + d)) on the grid ``x`` by ``y``.

    Bit-symmetric: swapping x and y gives the transpose exactly."""
    d = distance_matrix(params, x, y)
    # a finite d near the binary64 maximum overflows to inf, whose entry is
    # 0 as in distance_matrix
    with np.errstate(over="ignore"):
        return 1 / ((1 + d) * np.pi)


def _libmp_matrix(params: KernelParams, x: list, prec: int, distance: bool) -> list:
    """:func:`distance_matrix` (or with ``distance`` false
    :func:`kernel_matrix`) of the libmp values ``x`` against themselves,
    as a symmetric list of rows, in libmp at ``prec`` bits rounding to
    nearest.  Each entry runs the binary64 functions' operations in their
    order, as mpfs would; the n(n+1)/2 upper-triangle entries are evaluated
    once and mirrored, which holds the full grid's entries, as sub and add
    round correctly."""
    t, a = libmp.from_float(params.t), libmp.from_float(params.a)
    pi = libmp.mpf_pi(prec, _RND)
    squares = [mpf_mul(v, v, prec, _RND) for v in x]
    m = [[None] * len(x) for _ in x]
    for j, xj in enumerate(x):
        for k in range(j, len(x)):
            diff = mpf_sub(xj, x[k], prec, _RND)
            d = mpf_pow(mpf_add(squares[j], squares[k], prec, _RND), t, prec, _RND)
            d = mpf_add(mpf_mul(d, a, prec, _RND), mpf_mul(diff, diff, prec, _RND), prec, _RND)
            if not distance:
                d = mpf_mul(mpf_add(d, fone, prec, _RND), pi, prec, _RND)
                d = mpf_rdiv_int(1, d, prec, _RND)
            m[j][k] = m[k][j] = d
    return m


def _libmp_dot(u: list, v: list, prec: int):
    """sum_j u_j v_j of libmp values, left to right from the first product
    (numpy's order for arrays of mpfs), rounding to nearest at ``prec`` bits."""
    total = mpf_mul(u[0], v[0], prec, _RND)
    for uj, vj in zip(u[1:], v[1:]):
        total = mpf_add(total, mpf_mul(uj, vj, prec, _RND), prec, _RND)
    return total


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
    in binary64, in numpy; with an integer ``dps`` the same operations run
    in the same order on libmp values at that many digits, rounding to
    nearest, where M's n(n+1)/2 upper-triangle entries are evaluated once
    and mirrored (see :func:`_libmp_matrix`).  Each rung passes the same
    few scalars to one bound derivation (:func:`_bound`).

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
    if dps is None:
        x, c = config.as_float_arrays()
        ac = np.abs(c)
        with np.errstate(invalid="ignore", over="ignore"):  # inf and NaN exclude nothing
            m = (distance_matrix if distance else kernel_matrix)(params, x, x)
            value, scale = c @ m @ c, ac @ np.abs(m) @ ac
            scalars = np.abs(x).max(), x.max() - x.min(), ac.sum()
            bound = _bound(params, n, UNIT_ROUNDOFF, distance, scale, *scalars)
        if _underflows(config.points, x) or _underflows(config.coeffs, c):
            return float(value), math.inf
        s = float(scalars[2])
        slack = 2.0**-1020 * ((1.0 + params.a) * s * s + n * (s + 1.0))
        return float(value), float(bound) + slack
    with mp.workdps(dps):
        prec = mp.mp.prec
        xs = [_as_mpf(p) for p in config.points]
        x = [v._mpf_ for v in xs]
        c = [_as_mpf(v)._mpf_ for v in config.coeffs]
        ac = [mpf_abs(v, prec, _RND) for v in c]
        # entries are >= 0 and exact at prec, so |m| is m
        m = _libmp_matrix(params, x, prec, distance)
        value = _libmp_dot([_libmp_dot(c, row, prec) for row in m], c, prec)
        scale = _libmp_dot([_libmp_dot(ac, row, prec) for row in m], ac, prec)
        # mpf abs rounds a wider point to the working precision; sum adds
        # left to right from the first term, as numpy sums mpf arrays
        scalars = max(map(abs, xs)), max(xs) - min(xs), sum(map(mp.make_mpf, ac))
        u = mp.ldexp(1, 1 - prec)
        bound = _bound(params, n, u, distance, mp.make_mpf(scale), *scalars)
        return mp.make_mpf(value), bound


def _bound(params: KernelParams, n: int, u, distance: bool, scale, big_x, width, sum_c):
    """The error bound of :func:`form_enclosure` for a form of ``n``
    points, from the scalars its rung computed in its own arithmetic
    (binary64, or mpfs at the working precision, with unit roundoff ``u``):
    scale = sum_jk |c_j| |M_jk| |c_k|, big_x = max |x_j|, width = max x_j -
    min x_j and sum_c = sum |c_j|."""
    k = 6 * math.ceil(params.t) + 2 * POW_ULPS + 2
    if max(k, 2 * n + 16) >= 1 / (4 * u):  # some gamma_j would reach 1/3
        return math.inf
    e = 2 * big_x * _gamma(2, u)
    g, g4 = _gamma(k, u), _gamma(4, u)
    if distance:
        rel = g / (1 - g)
        absolute = e * (2 * width + e) * (1 + 2 * g) * sum_c**2
    else:
        phi = g + (1 + g) * e * (1 + e)
        if not 2 * phi + g4 < 0.5:  # kappa would reach 1/2
            return math.inf
        kappa = (g4 + phi) / (1 - phi)
        rel, absolute = kappa / (1 - kappa), 0
    bound = _gamma(2 * n + 8, u) * scale + (rel * scale + absolute) / (1 - g4)
    return bound / (1 - _gamma(2 * n + 16, u))


def quadratic_form(
    params: KernelParams, config: PointConfig, dps: int | None = None
) -> float | mp.mpf:
    """The kernel quadratic form sum_jk c_j c_k K(x_j, x_k): the value of
    :func:`form_enclosure`, in binary64 or (with ``dps``) in mpmath."""
    return form_enclosure(params, config, dps)[0]


def resolve_form_sign(
    params: KernelParams, config: PointConfig, *, distance: bool = False, threshold: float = 0.0
) -> tuple:
    """Decide on which side of ``threshold`` the kernel form (or with
    ``distance`` the distance form) lies.

    Climbs ``DPS_LADDER``: binary64 first, reported as dps 17, then mpmath
    from 50 digits, doubling up to ``DPS_CAP``.  Returns ``(value, dps,
    bound)`` from the first rung whose :func:`form_enclosure` excludes
    ``threshold``; raises ToleranceError if none does, so an unresolved
    value is never read as a sign.
    """
    for dps in DPS_LADDER:
        value, bound = form_enclosure(params, config, dps, distance)
        # Rounding is monotone and the bound is representable at the rung's
        # precision, so a rounded difference above it is a true one.
        with mp.workdps(dps or 15):
            if abs(value - threshold) > bound:
                return value, dps or 17, bound
    raise ToleranceError(
        f"form {mp.nstr(value, 8)} is within its error bound "
        f"{mp.nstr(bound, 3)} of {threshold} at dps {DPS_CAP}"
    )


def next_rung(dps: int) -> int:
    """The ladder's first mpmath rung above ``dps`` digits (17 for
    binary64), or ``DPS_CAP`` from the top rung."""
    return next((d for d in DPS_LADDER[1:] if d > dps), DPS_CAP)


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


def certify_negative(params: KernelParams, config: PointConfig) -> Certificate | None:
    """The certificate that the kernel form of ``config`` is negative, or
    None when :func:`resolve_form_sign` resolves it positive or cannot
    resolve it at all."""
    try:
        value, dps, bound = resolve_form_sign(params, config)
    except ToleranceError:
        return None
    return Certificate(config, value, bound, dps) if value < 0 else None
