"""Vanishing-moment witnesses and the small-scale expansion that turns
them into explicit non-PD certificates.

Clearing denominators shows that the kernel quadratic form Q at scaled
points x_j = y_j*sqrt(z) has, for every z > 0, the same sign as

    f(z) = sum_jk c_j c_k  prod_{(p,q) != (j,k)} (1 + A_pq*z + B_pq*z^t)
         = pi * Q * prod_pq (1 + D_pq),

double sum and product over ordered index pairs, with A_pq = (y_p - y_q)^2
exact rational, B_pq = a*(y_p^2 + y_q^2)^t irrational in general and
D_pq = A_pq*z + B_pq*z^t the distance form d(x_p, x_q).  If the
coefficients annihilate all moments sum_j c_j y_j^l for l = 0..T with
T = floor(t), the integer powers z^0..z^T cancel *exactly* and the lowest
surviving term is z^t with coefficient

    kappa = -a * sum_jk c_j c_k (y_j^2 + y_k^2)^t,

which has the sign of (-1)^T for every witness whose moments vanish
through T, whatever its order: for T < t < T + 1, s^t is 1/Gamma(-t), of
sign (-1)^(T+1), times int_0^oo (e^(-lam s) - sum_{m<=T} (-lam s)^m/m!)
lam^(-t-1) dlam; the moments kill the polynomial part, whose monomials
y_j^(2 alpha) y_k^(2 beta) have min(2 alpha, 2 beta) <= T, and leave the
integral of (sum_j c_j e^(-lam y_j^2))^2 lam^(-t-1), positive for distinct
y_j^2 and c != 0.  For odd T this makes f negative at small z, a
replayable witness that the kernel is not positive-definite, for every
a > 0.

The series expansion (:func:`cleared_form_series`) keeps coefficients of
pure integer powers as exact Fractions, so the cancellation is exact;
those involving z^t are mpfs at ``SERIES_DPS`` digits, each rounded once.
Its weights B_pq = a (y_p^2 + y_q^2)^t are the kernel's own powers
(:func:`~kpd.kernel._powers`), each rounded once to ``SERIES_DPS`` digits
(:func:`_weights`), and kappa is their exact sum rounded the same way, so
it is the series' z^t coefficient bit for bit.  The exact work runs in
integers: y and c are scaled by the lcms of their denominators
(:func:`_scaled`), so the moments, difference sums, series and kappa are
integer sums with one division at the end, and the distance grid of f
takes each unordered pair once.  At small z the kernel form is dominated by
cancellation, so the certificate search takes z = 4^-m, where the points
y_j / 2^m are exact dyadic rationals, and settles the sign with
:func:`~kpd.kernel.certify_negative` (see :func:`find_negative_scale`).
The steps and kappa share one power per y_j^2 + y_k^2 and rung.

With f ~ kappa z^t + C z^(T+1), f < 0 only for z < (|kappa| / C)^(1/(T+1-t)),
which closes as t -> T + 1.  Where the order-T scan certifies no scale,
``kpd witness`` scans with the order T + 1 witness, which cancels z^(T+1)
too and keeps kappa's sign, so f ~ kappa z^t + O(z^(t+1)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Literal, NamedTuple

import mpmath as mp
from mpmath import libmp

from .errors import DomainError, PreconditionError, SizeCapError, ToleranceError
from .kernel import (
    DPS_CAP,
    DPS_LADDER,
    GUARD,
    Certificate,
    KernelParams,
    PointConfig,
    _fixed_point,
    _fraction,
    _powers,
    _scaled,
    certify_negative,
    next_rung,
)

# The series expansion's cost grows about as n^6 (n^2 in-place trinomial
# multiplies of tables with O(n^4) entries).  At 50 digits on a 2-vCPU Xeon,
# in Python integer arithmetic, it takes 0.06 s for n = 7 and 0.16 s for
# n = 8 (best of three, binomial witnesses at t = n - 1.5, a = 1).
DEFAULT_MAX_POINTS = 8
SERIES_DPS = 50  # the series' z^t terms and kappa; the scan climbs the kernel's ladder
INTEGER_GAP = 1e-9
# The witness scan tries z = 4^-m for m = 1..SCAN_STEPS.
SCAN_STEPS = 100
SUBSET_CAP = 2_000_000
# The largest witness order, above kpd identities' 12: kpd witness at t = 127.5 certifies in
# 0.6-0.9 s at a 44 MB peak (a = 1, 1e-3; 2-vCPU Xeon), and at t = 201.5 in 2.2 s and 108 MB.
MAX_WITNESS_ORDER = 128


def _as_fraction(v) -> Fraction:
    if isinstance(v, float) and not v.is_integer():
        raise DomainError(
            f"witness data must be exactly rational; got float {v!r} "
            "(pass a Fraction instead)"
        )
    return Fraction(v)


def _check_noninteger_t(t: float) -> int:
    """Return floor(t) after rejecting (near-)integer exponents."""
    if abs(t - round(t)) <= INTEGER_GAP:
        raise DomainError(
            f"t={t} is (numerically) an integer; the vanishing-moment "
            "machinery requires a fractional part"
        )
    return int(math.floor(t))


@dataclass(frozen=True)
class WitnessConfig:
    """A rational point/coefficient pair with exactly vanishing moments.

    Construction verifies sum_j c_j y_j^l = 0 in exact arithmetic for all
    l = 0..moment_order; anything that fails is rejected rather than
    stored.
    """

    y: tuple
    c: tuple
    moment_order: int

    def __post_init__(self):
        y = tuple(_as_fraction(v) for v in self.y)
        c = tuple(_as_fraction(v) for v in self.c)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "c", c)
        if len(y) != len(c) or not y:
            raise DomainError("y and c must be nonempty and of equal length")
        for ell, m in enumerate(check_moments(self, self.moment_order)):
            if m != 0:
                raise PreconditionError(
                    f"moment l={ell} is {m}, not 0: not a valid witness"
                )

    @property
    def n(self) -> int:
        return len(self.y)


class ExponentKey(NamedTuple):
    """Encodes the power z^(i + j*t): i degree-1 factors, j degree-t factors."""

    i: int
    j: int


def build_binomial_witness(order: int) -> WitnessConfig:
    """The alternating-binomial witness of a given moment order T.

    n = T+2 points y_j = 0..T+1 with c_j = (-1)^j * binomial(T+1, j)
    (0-based j).  Annihilates all moments through T; overflow-free via
    big-integer binomials; SizeCapError above ``MAX_WITNESS_ORDER``.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    if order > MAX_WITNESS_ORDER:
        raise SizeCapError(f"witness order {order} exceeds the cap {MAX_WITNESS_ORDER}")
    c = tuple(Fraction((-1) ** j * math.comb(order + 1, j)) for j in range(order + 2))
    return WitnessConfig(y=tuple(map(Fraction, range(order + 2))), c=c, moment_order=order)


def check_moments(w: WitnessConfig, l_max: int) -> list[Fraction]:
    """Exact moments sum_j c_j y_j^l for l = 0..l_max."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    return [
        Fraction(sum(cj * yj**ell for cj, yj in zip(c, Y)), C * L**ell)
        for ell in range(l_max + 1)
    ]


def _weights(params: KernelParams, Y: list, L: int, dps: int = SERIES_DPS) -> tuple:
    """e0 <= 0 and S -> b, the integer with b 2^e0 = B = a (S / L^2)^t, for
    each distinct S = Y_p^2 + Y_q^2 of the points y = Y / L.  B is the
    kernel's power (:func:`~kpd.kernel._powers`) at the ``dps`` rung's
    working bits, within 2^(4 - wp) relative, rounded once to its prec bits:
    |B - a (S / L^2)^t| <= 2^(1 - prec) B."""
    prec = libmp.dps_to_prec(dps)
    B = {s: libmp.mpf_shift(libmp.from_rational(n, m, prec, libmp.round_nearest), e)
         for s, (n, m, e) in _powers(params, [v * v for v in Y], L, prec + 2 * GUARD).items()}
    e0 = min(0, *(exp for _, _, exp, _ in B.values()))
    return e0, {s: man << exp - e0 for s, (_, man, exp, _) in B.items()}


def _times(P: list, D: list, rows: int, cols: int, g: tuple, weight: int) -> None:
    """D <- D*g + weight*P and P <- P*g in place, for the factor
    g = 1 + A z + B z^t with (A, B) = ``g``.

    Entry [i][j] of a table is the coefficient of z^(i + j*t).  Only the
    block of the first ``rows`` x ``cols`` entries, the one the product
    reaches, is visited, from the highest powers down, so that each entry
    is read before it is overwritten.  Each table is a row and a column
    wider than any block, so row -1 and column -1 read as zeros.
    """
    A, B = g
    for i in range(rows - 1, -1, -1):
        p_row, d_row, p_up, d_up = P[i], D[i], P[i - 1], D[i - 1]
        for j in range(cols - 1, -1, -1):
            p = p_row[j]
            d_row[j] += weight * p + A * d_up[j] + B * d_row[j - 1]
            p_row[j] = p + A * p_up[j] + B * p_row[j - 1]


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """The expansion of the cleared form in powers z^(i + j*t).

    Coefficients of keys with j = 0 are exact Fractions; the rest are
    mpmath floats at ``SERIES_DPS`` digits.  Zero coefficients are not
    stored.
    """

    terms: dict

    def coefficient(self, i: int, j: int):
        return self.terms.get(ExponentKey(i, j), Fraction(0))


def cleared_form_series(params: KernelParams, w: WitnessConfig) -> PowerSeries:
    """Expand the cleared form into a keyed power series.

    One product-rule pass over the n^2 ordered pairs pq, with factors
    g_pq = 1 + A_pq z + B_pq z^t.  P is the product of the factors folded
    so far and D the cleared form over them; each pair sets
    D <- D*g_pq + c_p c_q P, then P <- P*g_pq, so at the end D = f.
    P and D are dense tables of the coefficients of z^(i + j*t), with i and
    j at most n^2, multiplied in place (:func:`_times`): O(n^4) entries
    instead of the 3^(n^2) raw products.

    The pass runs in integers.  Each B_pq is the kernel's power a (y_p^2 +
    y_q^2)^t rounded once to ``SERIES_DPS`` digits, an integer b_pq over
    one 2^e0 (:func:`_weights`); with y = Y / L and c = c' / C
    (:func:`_scaled`) every factor and weight is an integer, and the
    coefficient of z^(i + j*t) is N_ij * 2^(j*e0) / (L^(2i) C^2).  A j = 0
    coefficient is that Fraction, so the cancellation of z^0..z^T is exact;
    a j >= 1 coefficient is that value rounded once to ``SERIES_DPS``
    digits.  The only other error is each B_pq's own, 2^(1 - prec) B_pq.
    """
    _check_noninteger_t(params.t)
    n = w.n
    if n > DEFAULT_MAX_POINTS:
        keys = (n * n) * (n * n + 1) // 2
        raise SizeCapError(
            f"witness has n={n} points (> cap {DEFAULT_MAX_POINTS}): the "
            f"ordered-pair product would carry ~{keys} expansion keys"
        )
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    e0, b = _weights(params, Y, L)
    # n^2 factors reach n^2 + 1 rows and columns; one more of each reads zero
    size = n * n + 2
    P, D = [[0] * size for _ in range(size)], [[0] * size for _ in range(size)]
    P[0][0] = rows = cols = 1
    for (p, yp), (q, yq) in product(enumerate(Y), repeat=2):
        g = (yp - yq) ** 2, b[yp * yp + yq * yq]
        rows, cols = rows + (g[0] != 0), cols + (g[1] != 0)
        _times(P, D, rows, cols, g, c[p] * c[q])
    prec, terms = libmp.dps_to_prec(SERIES_DPS), {}
    for i, row in enumerate(D[:rows]):
        den = L ** (2 * i) * C * C
        for j, N in enumerate(row[:cols]):
            if N and j:
                rounded = libmp.from_rational(N, den, prec, libmp.round_nearest)
                terms[ExponentKey(i, j)] = mp.make_mpf(libmp.mpf_shift(rounded, j * e0))
            elif N:
                terms[ExponentKey(i, j)] = Fraction(N, den)
    return PowerSeries(terms)


def _clear(config: PointConfig, q, dps: int, rows: list):
    """pi * q * prod_pq (1 + D_pq) at ``dps`` digits, for ``config`` of kernel
    form ``q``, from its kernel rung's rows (N, x) at ``dps``, N 2^x = (1 +
    D_pq) L^2 2^wp within 18 2^-wp (:func:`~kpd.kernel._one_plus_d`): the
    product is P 2^e with P of wp + 1 bits, and pi q P 2^e is rounded once."""
    wp, L2, P, e = libmp.dps_to_prec(dps) + 2 * GUARD, _scaled(config.points)[1] ** 2, 1, 0
    for j, k in product(range(len(rows)), repeat=2):
        N, x = rows[min(j, k)][abs(k - j)]
        P = P * N // L2  # at least 2^wp P, as N >= L^2 2^wp
        s = P.bit_length() - wp - 1
        P, e = P >> s, e + s + x - wp
    f = libmp.from_man_exp(libmp.pi_fixed(wp) * P, e - wp)
    return mp.make_mpf(libmp.mpf_mul(q._mpf_, f, wp - 2 * GUARD, libmp.round_nearest))


def t_power_coefficient(params: KernelParams, w: WitnessConfig):
    """The coefficient of z^t: kappa = -a * sum_jk c_j c_k (y_j^2 + y_k^2)^t,
    an mpf at ``SERIES_DPS`` digits: N = -sum_S W_S b_S, W_S the sum of c'_j
    c'_k over the pairs of S, rounded once as :func:`cleared_form_series`
    rounds its z^t coefficient (so at 50 digits the two agree bit for bit),
    with the weights of :func:`_weights` at the first rung from ``SERIES_DPS``
    whose error bound 2^(1 - prec) sum_S |W_S| b_S is below |N| or 0, which
    certifies the sign; else ToleranceError.  N cancels about 1.1 T digits.

    Requires the witness moments to vanish through T = floor(t), which
    ``w.moment_order`` certifies exactly.
    """
    T = _check_noninteger_t(params.t)
    if w.moment_order < T:
        raise PreconditionError(f"the z^t closed form needs moments vanishing through T={T}")
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    W = {}
    for (cj, yj), (ck, yk) in product(zip(c, Y), repeat=2):
        W[yj * yj + yk * yk] = W.get(yj * yj + yk * yk, 0) + cj * ck
    for dps in DPS_LADDER[DPS_LADDER.index(SERIES_DPS):]:
        e0, b = _weights(params, Y, L, dps)
        N, err = -sum(v * b[s] for s, v in W.items()), sum(abs(v) * b[s] for s, v in W.items())
        if abs(N) << libmp.dps_to_prec(dps) - 1 > err or not err:  # no err: N is exactly 0
            N = libmp.from_rational(N, C * C, libmp.dps_to_prec(SERIES_DPS), libmp.round_nearest)
            return mp.make_mpf(libmp.mpf_shift(N, e0))
    raise ToleranceError(f"the z^t coefficient's sign is not resolved at {DPS_CAP} digits")


def predict_t_coefficient_sign(t: float) -> Literal["nonnegative", "nonpositive"]:
    """Parity prediction for the z^t coefficient under vanishing moments:
    nonpositive iff floor(t) is odd."""
    if not (t > 0) or not math.isfinite(t):
        raise DomainError(f"t must be finite and > 0, got {t!r}")
    T = _check_noninteger_t(t)
    return "nonpositive" if T % 2 == 1 else "nonnegative"


@dataclass(frozen=True, eq=False)
class NegativeScaleCertificate(Certificate):
    """The certificate of the witness points scaled by sqrt(z), with the
    kernel form and its error bound at ``dps`` digits, plus the cleared
    form f(z) < 0 made from it -- an end-to-end non-PD certificate."""

    z: float
    f_value: mp.mpf


def find_negative_scale(params: KernelParams, w: WitnessConfig, kappa) -> NegativeScaleCertificate:
    """Scan z = 4^-m until the kernel form at the scaled points is
    resolved negative.

    ``kappa`` is the z^t coefficient, as :func:`t_power_coefficient`
    returns it (which checks the witness moments).  Precondition: it is
    negative (checked).  At z = 4^-m the points y_j sqrt(z) are the exact
    dyadic Fractions y_j / 2^m, so one configuration serves every
    precision, and :func:`~kpd.kernel.certify_negative` certifies its
    kernel form Q on the kernel's precision ladder; a z it does not
    certify is skipped, not trusted.  The certificate keeps that rung if it
    is fixed point with a bound of at most 1e-15 |Q|, else takes the next
    (:func:`~kpd.kernel.next_rung`), about 10^-dps smaller in bound, so its
    ``dps`` can exceed the certifying digits.  One fixed-point form there
    gives Q, its bound and the rows of f(z) = pi Q prod_pq (1 + D_pq), D the
    distance matrix of the same points, which has Q's certified sign.
    """
    if not (kappa < 0):
        raise PreconditionError(
            f"z^t coefficient is {mp.nstr(kappa, 8)} >= 0: the small-z scan "
            "cannot produce a negative value from this witness"
        )
    for m in range(1, SCAN_STEPS + 1):
        config = PointConfig(tuple(yj / 2**m for yj in w.y), w.c)
        cert = certify_negative(params, config)
        if cert is None:
            continue
        value, bound, dps = cert.value, cert.error_bound, cert.dps
        if not (isinstance(value, mp.mpf) and _fraction(bound) * 10**15 <= abs(_fraction(value))):
            dps = next_rung(dps)
        value, bound, rows = _fixed_point(params, config, libmp.dps_to_prec(dps), False)
        f_value = _clear(config, value, dps, rows)
        return NegativeScaleCertificate(config, value, bound, dps, 4.0**-m, f_value)
    raise ToleranceError(
        f"no negative value found for z down to 4^-{SCAN_STEPS} with up to "
        f"{DPS_CAP} digits"
    )


# ---------------------------------------------------------------------------
# Exact combinatorial identities (brute-force verification at bounded size).


def subset_product_identity(m: int, j: int, k: int, y) -> tuple[Fraction, Fraction]:
    """Both sides of the all-but-one-pair subset-sum identity.

    LHS: the sum over m-element subsets J of the ordered-pair set of the
    n = len(y) points minus {(j,k)} of prod_{(p,q) in J} (y_p - y_q)^2.
    RHS: the alternating expansion sum_v (-1)^v (y_j - y_k)^(2v) e_{m-v},
    where e_r is the unrestricted r-subset sum.  Indices are 0-based,
    and each sum has at most ``SUBSET_CAP`` subsets.  Both sides are
    enumerated in integers: the points are scaled by the lcm L of their
    denominators, which multiplies every term of either side by L^(2m),
    and each side is divided by L^(2m) once at the end.  The two exact
    Fractions are returned so callers assert equality.
    """
    y, n = [_as_fraction(v) for v in y], len(y)
    if not (0 <= m <= n * n - 1):  # also rejects an empty y
        raise DomainError(f"m must lie in [0, n^2 - 1] for n = {n} points, got {m}")
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError(f"(j, k) must lie in [0, n)^2, got ({j}, {k})")
    if math.comb(n * n, m) > SUBSET_CAP:
        raise SizeCapError(f"subset enumeration C({n * n}, {m}) exceeds the cap {SUBSET_CAP}")
    Y, L = _scaled(y)
    pairs = [(p, q) for p in range(n) for q in range(n)]
    sq = {pq: (Y[pq[0]] - Y[pq[1]]) ** 2 for pq in pairs}

    def subset_sum(pool, r):
        return sum(math.prod(sq[pq] for pq in J) for J in combinations(pool, r))

    restricted = [pq for pq in pairs if pq != (j, k)]
    lhs = subset_sum(restricted, m)
    djk = sq[j, k]
    rhs = sum((-1) ** v * djk**v * subset_sum(pairs, m - v) for v in range(m + 1))
    return Fraction(lhs, L ** (2 * m)), Fraction(rhs, L ** (2 * m))


def difference_power_sum(v: int, w: WitnessConfig) -> Fraction:
    """(-1)^v * sum_jk c_j c_k (y_j - y_k)^(2v), exactly.

    Zero whenever the witness moments vanish through order v.
    """
    if v < 0:
        raise DomainError("v must be >= 0")
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    total = sum(cj * ck * (yj - yk) ** (2 * v) for cj, yj in zip(c, Y) for ck, yk in zip(c, Y))
    return Fraction((-1) ** v * total, C * C * L ** (2 * v))
