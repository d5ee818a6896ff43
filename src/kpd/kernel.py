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
* Powers of a nonnegative base use the convention 0**s = 0 for s > 0;
  this is applied globally.
* All operations are functions of immutable inputs, but the mpmath rungs
  (:func:`form_enclosure`, :func:`resolve_form_sign`, and the witness layer
  above them) set mpmath's process-global precision: results are
  deterministic only while no other thread changes that precision.
* A form's sign is claimed only from an enclosure: :func:`form_enclosure`
  returns the form together with an a-priori bound on its rounding error,
  and :func:`resolve_form_sign` climbs ``DPS_LADDER``, from binary64 through
  mpmath precisions, until the enclosure excludes the threshold in
  question.  The ladder is kpd's one precision policy: no caller picks
  digits, so a replay climbs the rungs its producer climbed.
* Every finite point set takes its entries from one loop (:func:`_matrix`,
  with :func:`_dot` for forms) in a rung's arithmetic (:func:`_arith`):
  Python floats in binary64, libmp values rounding to nearest in mpmath.
  A Gram matrix's entries are its binary64 rung's.  numpy serves only the
  spectral evidence grids of :func:`kernel_matrix` (Nystrom matrices and
  the grid search), and is imported when that is first called.
* Every certificate that the kernel is not positive definite is made by
  :func:`certify_negative`: a :class:`Certificate` exists only where
  :func:`resolve_form_sign` resolved the kernel form negative (or the
  distance form above a CND tolerance).
"""

import contextlib
import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath as mp
from mpmath import libmp
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_div, mpf_mul, mpf_pow, mpf_sub

from .errors import DomainError, PreconditionError, ToleranceError

UNIT_ROUNDOFF = 2.0**-53
# The rungs of resolve_form_sign, the one escalation in kpd (every sign
# claim and every kpd verify replay climbs it): binary64 (None, reported as
# 17 digits), then mpmath at these many decimal digits, up to DPS_CAP.
DPS_LADDER = (None, 50, 100, 200, 400, 800)
DPS_CAP = DPS_LADDER[-1]
# The platform's pow (Python's float **), numpy's and mpmath's need not be
# correctly rounded; the error bound allows them this many ulps.
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


def distance_form(params: KernelParams, x: float, y: float) -> float:
    """The anisotropic distance form (x-y)^2 + a*(x^2+y^2)^t of finite x
    and y in binary64, zero exactly at x = y = 0: the entry that
    :func:`form_enclosure`'s binary64 rung reads.

    Kept, like :func:`quadratic_form`, because ``perfbench/tracing.py``
    and ``tests/test_bench_contract.py`` look it up by name.
    """
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    return _matrix(params, [x, y], _arith(params), True)[0][1]


def kernel_matrix(params: KernelParams, x, y):
    """Vectorized kernel 1 / (pi (1 + d)) in binary64 on the grid ``x``
    (rows) by ``y`` (cols), as a numpy array, broadcast over any leading
    axes: stacks of point sets give stacks of matrices.  Each entry runs
    :func:`_matrix`'s operations with numpy's power, which may differ from
    Python's in the last bit; the spectral grids use it, no finite point
    set does.

    Bit-symmetric: swapping x and y gives the transpose exactly."""
    import numpy as np  # here, so that kpd verify never loads it

    x = np.asarray(x, dtype=float)[..., :, None]
    y = np.asarray(y, dtype=float)[..., None, :]
    # At large t or |x - y| the distance overflows to inf on purpose: inf is
    # the right limit, as the kernel entry 1 / (pi (1 + d)) becomes 0.
    with np.errstate(over="ignore"):
        diff, xx, yy = x - y, x * x, y * y
        d = np.power(xx + yy, params.t)
        if xx.max(initial=0) + yy.max(initial=0) == np.inf:
            # where x^2 + y^2 overflows, its power hypot(x, y)^(2t) may be finite
            big = np.isinf(xx + yy)
            d[big] = np.power(np.hypot(x, y)[big], 2 * params.t)
        d *= params.a  # d = a power + (x - y)^2, in place to spare an n^2 buffer
        d += diff * diff
        return 1 / ((1 + d) * np.pi)


# One rung's arithmetic, rounding to nearest (see _arith): ``of`` is an
# input in the rung's format, ``num`` a result as a float or an mpf,
# power(s, x, y) is s^t for s = x^2 + y^2, and u the bound's unit roundoff.
_Arith = namedtuple("_Arith", "of num add sub mul div abs power pi u")


def _arith(params: KernelParams, prec: int | None = None) -> _Arith:
    """Binary64 on Python floats, or with ``prec`` libmp values at ``prec``
    bits (its mpf conversions and ``u`` read mpmath's working precision,
    which the caller sets to ``prec``)."""
    if prec is None:
        def power(s, x, y):
            t = params.t
            if s == math.inf:  # where x^2 + y^2 overflows, hypot(x, y)^(2t) may be finite
                s, t = math.hypot(x, y), 2 * t
            try:
                return s**t
            except OverflowError:  # inf, as in kernel_matrix
                return math.inf

        ops = operator.add, operator.sub, operator.mul, operator.truediv
        return _Arith(float, float, *ops, abs, power, math.pi, UNIT_ROUNDOFF)

    def rounded(op):
        return lambda v, w: op(v, w, prec, _RND)

    t = libmp.from_float(params.t)
    return _Arith(
        lambda v: _as_mpf(v)._mpf_,
        mp.make_mpf,
        *map(rounded, (mpf_add, mpf_sub, mpf_mul, mpf_div)),
        lambda v: mpf_abs(v, prec, _RND),
        lambda s, x, y: mpf_pow(s, t, prec, _RND),
        libmp.mpf_pi(prec, _RND),
        mp.ldexp(1, 1 - prec),
    )


def _matrix(params: KernelParams, x: list, ar: _Arith, distance: bool) -> list:
    """The distance form (or with ``distance`` false the kernel) of the
    points ``x`` against themselves, as a symmetric list of rows, in the
    arithmetic ``ar``: the entries of every finite point set.  The n(n+1)/2
    upper-triangle entries are evaluated once and mirrored, which holds the
    full grid's entries, as sub and add round correctly."""
    add, sub, mul, div, power, pi = ar.add, ar.sub, ar.mul, ar.div, ar.power, ar.pi
    a, one = ar.of(params.a), ar.of(1)
    squares = [mul(v, v) for v in x]
    m = [[None] * len(x) for _ in x]
    for j, xj in enumerate(x):
        for k in range(j, len(x)):
            diff = sub(xj, x[k])
            d = power(add(squares[j], squares[k]), xj, x[k])
            d = add(mul(d, a), mul(diff, diff))
            if not distance:
                d = div(one, mul(add(d, one), pi))
            m[j][k] = m[k][j] = d
    return m


def _dot(u: list, v: list, ar: _Arith):
    """sum_j u_j v_j in the arithmetic ``ar``, left to right from the first
    product."""
    add, mul = ar.add, ar.mul
    total = mul(u[0], v[0])
    for uj, vj in zip(u[1:], v[1:]):
        total = add(total, mul(uj, vj))
    return total


def _gamma(k, u=UNIT_ROUNDOFF):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * u / (1 - k * u)


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
    Fractions or mpfs denote.  Every rung runs one loop: M's n(n+1)/2
    upper-triangle entries are evaluated once and mirrored
    (:func:`_matrix`), the dot product of c with each row of M runs left to
    right, and so does the dot product of those n sums with c
    (:func:`_dot`).  With ``dps=None`` the loop runs on Python floats in
    binary64; with an integer ``dps``, on libmp values at that many
    digits, rounding to nearest.  Each rung passes the same few scalars to
    one bound derivation (:func:`_bound`).

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
    * Sum.  The form is n dot products of length n and one more over
      their results.  Each is within gamma_n of its sum of absolute terms
      in any summation order, with or without FMA, so gamma_(2n+8) below
      holds for the left-to-right loop and for any other order.
      Collecting the three sources, with
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
    such inputs get an infinite bound.  A binary64 power that overflows is
    inf (Python's float power raises OverflowError there; the rung maps it
    to inf), and where x^2 + y^2 overflows the power is hypot(x, y)^(2t),
    as in :func:`kernel_matrix`.  Overflow makes the value or the bound
    infinite or NaN, which excludes nothing: every term of the value is
    bounded by a term of S_M.
    """
    n = config.n
    with contextlib.nullcontext() if dps is None else mp.workdps(dps):
        ar = _arith(params, None if dps is None else mp.mp.prec)
        x = [ar.of(v) for v in config.points]
        c = [ar.of(v) for v in config.coeffs]
        ac = [ar.abs(v) for v in c]
        # entries are >= 0 and exact in the rung's arithmetic, so |m| is m
        m = _matrix(params, x, ar, distance)
        value = ar.num(_dot([_dot(c, row, ar) for row in m], c, ar))
        scale = ar.num(_dot([_dot(ac, row, ar) for row in m], ac, ar))
        # S adds left to right, not by sum(), which compensates floats from
        # Python 3.12; an mpf's abs rounds a wider point to the working precision
        xs, sum_c = [ar.num(v) for v in x], ar.num(functools.reduce(ar.add, ac))
        scalars = scale, max(map(abs, xs)), max(xs) - min(xs), sum_c
        bound = _bound(params, n, ar.u, distance, *scalars)
    if dps is not None:
        return value, bound
    inputs = zip((*config.points, *config.coeffs), (*x, *c))
    if any(v != 0 and abs(r) < _TINY for v, r in inputs):
        return value, math.inf
    return value, bound + 2.0**-1020 * ((1.0 + params.a) * sum_c * sum_c + n * (sum_c + 1.0))


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
        absolute = e * (2 * width + e) * (1 + 2 * g) * (sum_c * sum_c)
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
