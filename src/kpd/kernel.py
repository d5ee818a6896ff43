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
* All operations are functions of immutable inputs; the one memo, of pure
  values, is the powers one :class:`KernelParams` keeps (:func:`_powers`),
  so it never changes a result.  No kpd code reads or sets mpmath's
  process-global working precision: every rounding names its bits in libmp,
  so results do not depend on the caller's precision or on other threads.
* A form's sign is claimed only from an enclosure: :func:`form_enclosure`
  returns the form together with an a-priori bound on its error, and
  :func:`resolve_form_sign` climbs ``DPS_LADDER``, from binary64 through
  fixed-point rungs at mpmath's digit counts, until the enclosure excludes
  the threshold in question.  The ladder is kpd's one precision policy: no
  caller picks digits, so a replay climbs the rungs its producer climbed.
* Every finite point set takes its binary64 entries, a Gram matrix's too,
  from one loop on floats (:func:`_matrix`, with :func:`_dot`); the rungs
  above binary64 sum exact integer entries (:func:`_fixed_point`).  numpy
  serves only the spectral grids of :func:`kernel_matrix` (Nystrom matrices
  and the grid search), and is imported when that is first called.
* Every certificate that the kernel is not positive definite is made by
  :func:`certify_negative`: a :class:`Certificate` exists only where
  :func:`resolve_form_sign` resolved the kernel form negative (or the
  distance form above a CND tolerance).
"""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

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
# The fixed-point rungs' guard bits and error units per entry (form_enclosure).
GUARD, ENTRY_UNITS = 8, 2
# Nonzero binary64 inputs below this magnitude could underflow when squared.
_TINY = 2.0**-511
_RND = libmp.round_nearest


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _fraction(value) -> Fraction:
    """The rational an int, float, Fraction or mpf denotes, exactly."""
    return Fraction(*libmp.to_rational(value._mpf_) if isinstance(value, mp.mpf) else (value,))


def _scaled(values) -> tuple[list[int], int]:
    """Integers N_j and the lcm L of the denominators, values[j] = N_j / L."""
    values = [_fraction(v) for v in values]
    L = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (L // v.denominator) for v in values], L


@dataclass(frozen=True)
class KernelParams:
    """The kernel parameters: exponent ``t`` and anisotropy weight ``a``.

    Both must be finite and strictly positive.
    """

    t: float
    a: float
    _pows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    Entries may be ints, floats, Fractions or mpmath floats, finite, and
    points may repeat; binary64 bounds only entries it holds exactly.
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
    return _matrix(params, [x, y], True)[0][1]


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


def _matrix(params: KernelParams, x: list, distance: bool) -> list:
    """The distance form (or with ``distance`` false the kernel) of the
    float points ``x`` against themselves in binary64, as a symmetric list
    of rows; the upper triangle is evaluated once and mirrored."""
    t, a, pi = params.t, params.a, math.pi
    squares = [v * v for v in x]
    m = [[None] * len(x) for _ in x]
    for j, xj in enumerate(x):
        for k in range(j, len(x)):
            diff, s, p = xj - x[k], squares[j] + squares[k], t
            if s == math.inf:  # where x^2 + y^2 overflows, hypot(x, y)^(2t) may be finite
                s, p = math.hypot(xj, x[k]), 2 * t
            try:
                d = s**p * a + diff * diff
            except OverflowError:  # inf, as in kernel_matrix
                d = math.inf
            if not distance:
                d = 1.0 / ((d + 1.0) * pi)
            m[j][k] = m[k][j] = d
    return m


def _dot(u: list, v: list) -> float:
    """sum_j u_j v_j in binary64, left to right from the first product."""
    total = u[0] * v[0]
    for uj, vj in zip(u[1:], v[1:]):
        total += uj * vj
    return total


def _gamma(k, u=UNIT_ROUNDOFF):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * u / (1 - k * u)


def _floor(n: int, m: int, s: int) -> int:
    """floor(n 2^s / m) for m > 0, without forming 2^-s."""
    return (n << s if s >= 0 else n >> -s) // m


def _powers(params: KernelParams, squares: list, L: int, wp: int) -> dict:
    """S -> (N, M, e), N / M 2^e = a (S / L^2)^t, for each distinct S = X_j^2
    + X_k^2 of the points X / L: a S^t / (L^2)^t within a relative 2^(4 -
    wp), with one mpf_pow per distinct S per params and rung (``params._pows``).
    At bits = wp + q, mpf_pow gives s^t (exp(t log s), the log at 10 more
    bits, sqrt(s)^(2t), or for integer t mpf_pow_int) within 2^-bits (1.13 +
    2 t bitlen(s) 2^-10); (L^2)^t is another, or (4^t)^k if L = 2^k:
    mpf_pow_int's k roundings at 4 bitlen(k) + 4 more bits put it within
    2^-bits (1.06 + 1.15 k (1 + 5.3 t 2^-10)).  With b = max(bitlen(S), 2
    bitlen(L)) >= 2k + 2, T = ceil(t), a S^t / (L^2)^t is within 2^(-7 - bits)
    b (T + 512), so q = max(2 GUARD, bitlen(b (T + 512)) - 11) suffices; the
    floor keeps q, and the memo's keys, fixed over a scan while b (T + 512) <
    2^27 (t |log S| peaks near 1e150, k near 2^-500: b near 2^11)."""
    (A, B), t = params.a.as_integer_ratio(), params.t
    f = 1 - B.bit_length()  # a = A 2^f
    sums = {sj + sk for j, sj in enumerate(squares) for sk in squares[j:]}
    k, tt, memo = L.bit_length() - 1, libmp.from_float(t), params._pows
    b = max(max(sums).bit_length(), 2 * k + 2)
    bits = wp + max(2 * GUARD, (b * (math.ceil(t) + 512)).bit_length() - 11)

    def power(s):
        if (s, bits) not in memo:
            memo[s, bits] = libmp.mpf_pow(libmp.from_int(s), tt, bits, _RND)
        return memo[s, bits]
    _, M, d, _ = libmp.mpf_pow_int(power(4), k, bits, _RND) if L == 1 << k else power(L * L)
    pows = {s: power(s) for s in sums - {0}}
    return {0: (0, 1, 0), **{s: (A * man, M, exp - d + f) for s, (_, man, exp, _) in pows.items()}}


def _one_plus_d(params: KernelParams, X: list, L: int, wp: int) -> list:
    """Rows j of pairs (N, x), k >= j, with N 2^x = (1 + d_jk) L^2 2^wp (1 + rho)
    and N >= L^2 2^wp, of the points X / L: 2^x < a p (or x = 0)."""
    L2, sq, scaled = L * L, [v * v for v in X], {}
    for s, (n, m, e) in _powers(params, sq, L, wp).items():
        x = max(0, e + n.bit_length() - m.bit_length() - 1)  # 0 where n = 0
        scaled[s] = _floor(n, m, e + wp - x) * L2, x
    return [[(((L2 + (xj - xk) ** 2 << wp) >> x) + N, x)
             for xk, (N, x) in zip(X[j:], [scaled[sj + sk] for sk in sq[j:]])]
            for j, (xj, sj) in enumerate(zip(X, sq))]


def _fixed_point(params: KernelParams, config: PointConfig, prec: int, distance: bool) -> tuple:
    """The fixed-point rung of :func:`form_enclosure` at ``prec`` bits, and
    for the kernel the rows of :func:`_one_plus_d` that it read."""
    W, wp = prec + GUARD, prec + 2 * GUARD
    (X, L), (C, D) = _scaled(config.points), _scaled(config.coeffs)
    if distance:
        sq, lam, rows = [v * v for v in X], L * L, None
        powers, dmax = _powers(params, sq, L, wp), (max(X) - min(X)) ** 2
        E = max([e + n.bit_length() - m.bit_length() + 1 for n, m, e in powers.values() if n]
                + [dmax.bit_length() - 2 * L.bit_length() + 2] * (dmax > 0), default=0)
        p = {s: _floor(lam * n, m, e + W - E) for s, (n, m, e) in powers.items()}
        entries = [[p[sj + sk] for sk in sq[j:]] for j, sj in enumerate(sq)]
        cx = sum(map(operator.mul, C, X))
        total = _floor(2 * (sum(C) * sum(map(operator.mul, C, sq)) - cx * cx), 1, W - E)
    else:
        rows, R = _one_plus_d(params, X, L, wp), (L * L << W + 2 * wp + 1) // libmp.pi_fixed(wp)
        lam, total, x0 = 1, 0, min(x for row in rows for _, x in row)
        E, entries = -1 - x0, [[(R >> x - x0) // N for N, x in row] for row in rows]
    # sum_jk C_j C_k M_jk, exactly, from the upper rows of the symmetric M
    total += sum(cj * (2 * sum(map(operator.mul, C[j:], row)) - cj * row[0])
                 for j, (cj, row) in enumerate(zip(C, entries)))
    # F is near total 2^(E - W) / den; libmp at prec 0 is exact
    exact, den = libmp.from_man_exp(total, E - W), libmp.from_int(lam * D * D)
    value = libmp.mpf_div(exact, den, prec, _RND)
    bound = libmp.from_man_exp(ENTRY_UNITS * sum(map(abs, C)) ** 2 * lam, E - W)
    bound = libmp.mpf_add(bound, libmp.mpf_abs(libmp.mpf_sub(libmp.mpf_mul(value, den), exact)))
    return mp.make_mpf(value), mp.make_mpf(libmp.mpf_div(bound, den, prec, libmp.round_up)), rows


def form_enclosure(
    params: KernelParams,
    config: PointConfig,
    dps: int | None = None,
    distance: bool = False,
) -> tuple:
    """The kernel form sum_jk c_j c_k K(x_j, x_k), or with ``distance`` the
    distance form sum_jk c_j c_k d(x_j, x_k), with a bound on its error.

    Returns ``(value, bound)`` with |value - F| <= bound, F the exact form
    of the configuration as given: the reals its floats, Fractions or mpfs
    denote.  With ``dps=None`` in binary64; with an integer ``dps`` in fixed
    point at its prec bits (:func:`_fixed_point`), ``value`` an mpf rounded
    to nearest at prec bits and ``bound`` one rounded up.

    Binary64 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 3; :func:`_bound`) bounds only inputs it holds exactly: a point or
    coefficient that differs from its float, or a nonzero one below 2^-511
    (its square could underflow), gets an infinite bound.  Dot products of c
    with the rows of M (:func:`_matrix`), then with c, run left to right
    (:func:`_dot`).  With u = 2^-53, gamma_k = k u / (1 - k u), T = ceil(t):
    * x^2 + y^2 carries gamma_2, its power gamma_(2T) (hypot(x, y), within
      an ulp, to the power 2t: gamma_(4T)) and POW_ULPS ulps, (x - y)^2
      gamma_3, and a p and d two more: both terms are >= 0, so |d' - d| <= g
      d' / (1 - g), g = gamma_(6T + 2 POW_ULPS + 2) (2T to spare).  For the
      kernel 1 + d' = (1 + d)(1 + phi), |phi| <= g, and four more roundings
      give K' = K (1 + theta_4) / (1 + phi), so |K' - K| <= kappa K' / (1 -
      kappa), kappa = (gamma_4 + g) / (1 - g); for d kappa is g;
    * each of the n + 1 dot products is within gamma_n of its absolute terms
      in any order: |value - F| <= (gamma_(2n+8) + kappa / (1 - kappa)) S_M,
      S_M = sum |c_j| |M'_jk| |c_k|, computed within gamma_(2n+16), which a
      final division covers.  The one guard is gamma_k < 1/3 for every k
      used (else the bound is infinite): then g < 1/3, so kappa < 1;
    * 2^-1020 ((1 + a) S^2 + n (S + 1)), S = sum |c_j|, covers underflow;
      overflow makes the bound inf or NaN.

    Fixed point, at W = prec + GUARD and wp = W + GUARD bits, reads x_j =
    X_j / L, c_j = C_j / D, a = A / B exactly (L, D the lcms), so Delta_jk =
    (X_j - X_k)^2 and S = X_j^2 + X_k^2 are exact, and a p = a S^t / (L^2)^t
    is within 2^(4 - wp) relative, by one mpf_pow per distinct S per params
    and rung (:func:`_powers`).  Units:
    2^(E - W), 2^E above all entries:
    * Kernel: N 2^x = (1 + d_jk) L^2 2^wp (1 + rho), |rho| <= 18 2^-wp, with
      2^x <= 1 + d (:func:`_one_plus_d`), so K < 2^E for E = -1 - min x.  With
      Pi = pi_fixed(wp) within 2 of pi 2^wp and R = floor(L^2 2^(W + 2 wp + 1)
      / Pi), floor(R 2^(min x - x) / N) (floors nest) is within 1 + 2^W 20
      2^-wp < 1.08 units of K_jk; entries far below a unit are 0 at no cost.
    * Distance: 2^E is above Delta_jk / L^2 and each a p, which is floored in
      units over L^2, within 1 / L^2 + 2^(4 - GUARD) units; sum_jk C_j C_k
      Delta_jk = 2 (sum C)(sum C X^2) - 2 (sum C X)^2 is exact, or floored
      once where E > W.  The sum over C_j C_k times the entries is exact, so
      with ENTRY_UNITS = 2 units per entry the error is at most ENTRY_UNITS
      (sum |C_j|)^2 units over D^2 (a Delta floor has two C_j nonzero), and
      ``bound`` adds the exact rounding of ``value``; 2^(E - W) stays apart.
    """
    if dps is not None:
        return _fixed_point(params, config, libmp.dps_to_prec(dps), distance)[:2]
    x, c = [float(v) for v in config.points], [float(v) for v in config.coeffs]
    # entries are >= 0, so |m| is m
    m = _matrix(params, x, distance)
    value = _dot([_dot(c, row) for row in m], c)
    inputs = zip(config.points + config.coeffs, x + c)  # Fraction != float is slow: compare ratios
    if any((v.as_integer_ratio() != r.as_integer_ratio() if type(v) is Fraction else v != r)
           or 0 < abs(r) < _TINY for v, r in inputs):
        return value, math.inf
    ac = [abs(v) for v in c]
    bound = _bound(params, config.n, distance, _dot([_dot(ac, row) for row in m], ac))
    sum_c = _dot(ac, [1.0] * config.n)  # not sum(), which compensates floats from Python 3.12
    return value, bound + 2.0**-1020 * ((1 + params.a) * sum_c * sum_c + config.n * (sum_c + 1))


def _bound(params: KernelParams, n: int, distance: bool, scale):
    """:func:`form_enclosure`'s binary64 bound for ``n`` exact points:
    scale = sum_jk |c_j| |M_jk| |c_k|."""
    k = 6 * math.ceil(params.t) + 2 * POW_ULPS + 2
    if max(k, 2 * n + 16) >= 1 / (4 * UNIT_ROUNDOFF):  # some gamma_j would reach 1/3
        return math.inf
    g = _gamma(k)
    kappa = g if distance else (_gamma(4) + g) / (1 - g)
    return (_gamma(2 * n + 8) * scale + kappa / (1 - kappa) * scale) / (1 - _gamma(2 * n + 16))


def quadratic_form(
    params: KernelParams, config: PointConfig, dps: int | None = None
) -> float | mp.mpf:
    """The kernel quadratic form sum_jk c_j c_k K(x_j, x_k): the value of
    :func:`form_enclosure`, in binary64 or (with ``dps``) in fixed point."""
    return form_enclosure(params, config, dps)[0]


def resolve_form_sign(
    params: KernelParams, config: PointConfig, *, distance: bool = False, threshold: float = 0.0
) -> tuple:
    """Decide on which side of ``threshold`` the kernel form (or with
    ``distance`` the distance form) lies.

    Climbs ``DPS_LADDER``: binary64 first, reported as dps 17, then fixed
    point from 50 digits, doubling up to ``DPS_CAP``.  Returns ``(value, dps,
    bound)`` from the first rung whose :func:`form_enclosure` excludes
    ``threshold``; raises ToleranceError if none does, so an unresolved
    value is never read as a sign.
    """
    for dps in DPS_LADDER:
        value, bound = form_enclosure(params, config, dps, distance)
        if dps is None:  # floats round monotonically
            resolved = abs(value - threshold) > bound
        else:  # value - threshold rounded toward zero, compared with bound exactly
            thr, prec = libmp.from_float(threshold), 2 * libmp.dps_to_prec(dps)
            diff = libmp.mpf_sub(value._mpf_, thr, prec, libmp.round_down)
            resolved = libmp.mpf_cmp(libmp.mpf_abs(diff), bound._mpf_) > 0
        if resolved:
            return value, dps or 17, bound
    raise ToleranceError(
        f"form {mp.nstr(value, 8)} is within its error bound "
        f"{mp.nstr(bound, 3)} of {threshold} at dps {DPS_CAP}"
    )


def next_rung(dps: int) -> int:
    """The ladder's first fixed-point rung above ``dps`` digits (17 for
    binary64), or ``DPS_CAP`` from the top rung."""
    return next((d for d in DPS_LADDER[1:] if d > dps), DPS_CAP)


def check_zero_sum(coeffs) -> None:
    """Raise PreconditionError unless |sum c| <= 1e-12 sum |c| in exact
    rationals: the zero-sum precondition of a distance-form (CND) claim."""
    c = [_fraction(v) for v in coeffs]
    residual, scale = abs(sum(c)), sum(map(abs, c))
    if residual > scale / 10**12:
        raise PreconditionError(
            f"coefficients must sum to zero (relative residual {float(residual / scale):.3e})"
        )


@dataclass(frozen=True, eq=False)
class Certificate:
    """A configuration whose form is certified on the side it claims:
    ``value`` is the form at ``dps`` digits (17 for binary64), within
    ``error_bound`` of the exact form of ``config``; above binary64 ``dps``
    is the fixed-point rung's, and ``error_bound`` is rounded up.  Made by
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
