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

which for the binomial witnesses below is nonzero with the sign of
(-1)^(T+1).  For odd T this makes f negative at small z, a replayable
witness that the kernel is not positive-definite, for every a > 0.

The series expansion keeps coefficients of pure integer powers as exact
Fractions (the cancellation is an exact statement, not an approximate
one), while coefficients involving z^t carry mpmath values at
``SERIES_DPS`` digits.  The expansion runs in exact integers,
so each of those is the exact expansion at the mpf B_pq rounded once;
the B_pq's own roundings are the only other error.  At small z the
kernel form is dominated by cancellation.  The certificate search
therefore takes z = 4^-m, where the scaled points y_j / 2^m are exact
dyadic rationals, and settles the form's sign with
:func:`~kpd.kernel.certify_negative`, whose precision escalation goes up to
``kernel.DPS_CAP`` digits until the error bound excludes zero.  The
configuration it certifies is the one the certificate stores, and its
f(z) is pi Q prod(1 + D) of that Q: at the certifying digits when those
are mpmath with a bound of at most 1e-15 |Q|, else at about twice as many,
so the certificate's digits can exceed those that certified the sign.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, NamedTuple

import mpmath as mp
import numpy as np
from mpmath import libmp

from .errors import DomainError, PreconditionError, SizeCapError, ToleranceError
from .kernel import (
    DPS_CAP,
    Certificate,
    KernelParams,
    PointConfig,
    _as_mpf,
    certify_negative,
    distance_matrix,
    form_enclosure,
)

# The series expansion's cost grows about as n^6 (2n^2 trinomial multiplies
# over O(n^4) keys).  At 50 digits on a 2-vCPU Xeon, in Python integer
# arithmetic, it takes 0.1 s for n = 7 and 0.3 s for n = 8 (best of three,
# binomial witnesses at t = n - 1.5, a = 1).
DEFAULT_MAX_POINTS = 8
SERIES_DPS = 50
INTEGER_GAP = 1e-9
# The witness scan tries z = 4^-m for m = 1..SCAN_STEPS.
SCAN_STEPS = 100
SUBSET_CAP = 2_000_000


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
    big-integer binomials.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    n = order + 2
    y = tuple(Fraction(j) for j in range(n))
    c = tuple(Fraction((-1) ** j * math.comb(order + 1, j)) for j in range(n))
    return WitnessConfig(y=y, c=c, moment_order=order)


def check_moments(w: WitnessConfig, l_max: int) -> list[Fraction]:
    """Exact moments sum_j c_j y_j^l for l = 0..l_max."""
    if l_max < 0:
        raise DomainError("l_max must be >= 0")
    return [
        sum((cj * yj**ell for cj, yj in zip(w.c, w.y)), start=Fraction(0))
        for ell in range(l_max + 1)
    ]


def _pair_data(params: KernelParams, w: WitnessConfig):
    """A_pq (exact Fraction) and B_pq (mpf at the ambient precision),
    each a dict keyed by the ordered pair (p, q).  B is symmetric: each
    distinct y_p^2 + y_q^2 is raised to the power t once."""
    a = _as_mpf(params.a)
    powers = _sum_square_powers(w, _as_mpf(params.t))
    A: dict[tuple[int, int], Fraction] = {}
    B: dict[tuple[int, int], mp.mpf] = {}
    for p in range(w.n):
        for q in range(w.n):
            A[(p, q)] = (w.y[p] - w.y[q]) ** 2
            s = w.y[p] ** 2 + w.y[q] ** 2
            B[(p, q)] = a * powers[s] if s != 0 else mp.mpf(0)
    return A, B


def _sum_square_powers(w: WitnessConfig, t: mp.mpf) -> dict:
    """s -> s^t in mpmath at the ambient precision, for each distinct
    nonzero s = y_j^2 + y_k^2."""
    sums = {yj**2 + yk**2 for yj in w.y for yk in w.y} - {0}
    return {s: _as_mpf(s) ** t for s in sums}


def _times(poly: dict, A: int, B: int) -> dict:
    """poly * (1 + A z + B z^t), poly keyed by (i, j) for z^(i + j*t)."""
    out = dict(poly)
    for (i, j), co in poly.items():
        if A:
            out[i + 1, j] = out.get((i + 1, j), 0) + co * A
        if B:
            out[i, j + 1] = out.get((i, j + 1), 0) + co * B
    return out


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
    Keyed accumulation keeps the term count at O(n^4) instead of the
    3^(n^2) raw products.

    The pass runs in integers.  Each B_pq, an mpf at ``SERIES_DPS``
    digits, is exactly man * 2^exp; writing all of them over one 2^e0 and
    scaling y and c by the lcms L and C of their denominators makes every
    factor and weight an integer, and the coefficient of z^(i + j*t)
    exactly N_ij * 2^(j*e0) / (L^(2i) C^2).  A j = 0 coefficient is that
    Fraction, so the cancellation of z^0..z^T is exact; a j >= 1
    coefficient is that value rounded once to ``SERIES_DPS`` digits.  The
    only other error is each B_pq's own rounding.
    """
    _check_noninteger_t(params.t)
    n = w.n
    if n > DEFAULT_MAX_POINTS:
        keys = (n * n) * (n * n + 1) // 2
        raise SizeCapError(
            f"witness has n={n} points (> cap {DEFAULT_MAX_POINTS}): the "
            f"ordered-pair product would carry ~{keys} expansion keys"
        )
    with mp.workdps(SERIES_DPS):
        A, B = _pair_data(params, w)
    L = math.lcm(*(v.denominator for v in w.y))
    C = math.lcm(*(v.denominator for v in w.c))
    # each B_pq >= 0 is exactly man * 2^exp (0 * 2^0 when zero)
    e0 = min(0, *(b.exp for b in B.values()))
    P: dict = {(0, 0): 1}
    D: dict = {}
    for (p, q), A_pq in A.items():
        g = int(A_pq * L * L), B[p, q].man << (B[p, q].exp - e0)
        D = _times(D, *g)
        weight = int(w.c[p] * w.c[q] * C * C)
        if weight:
            for key, co in P.items():
                D[key] = D.get(key, 0) + weight * co
        P = _times(P, *g)
    prec, terms = libmp.dps_to_prec(SERIES_DPS), {}
    for (i, j), N in D.items():
        den = L ** (2 * i) * C * C
        if N and j:
            rounded = libmp.from_rational(N, den, prec, libmp.round_nearest)
            terms[ExponentKey(i, j)] = mp.make_mpf(libmp.mpf_shift(rounded, j * e0))
        elif N:
            terms[ExponentKey(i, j)] = Fraction(N, den)
    return PowerSeries(terms)


def _clear(params: KernelParams, config: PointConfig, q, dps: int):
    """pi * q * prod_pq (1 + D_pq) at ``dps`` digits: the cleared form of
    ``config``, whose kernel form is ``q`` and distance matrix D."""
    with mp.workdps(dps):
        x = np.array([_as_mpf(p) for p in config.points], dtype=object)
        return mp.pi * q * math.prod((1 + distance_matrix(params, x, x)).flat)


def cleared_form_value(params: KernelParams, w: WitnessConfig, z, dps: int):
    """f(z) = pi Q prod_pq (1 + D_pq) in mpmath at ``dps`` digits, with Q
    the :func:`~kpd.kernel.form_enclosure` value and D the distance matrix
    of the points y_j sqrt(z) and coefficients c_j; no expansion.  At small
    z the form cancels heavily (see :func:`find_negative_scale`)."""
    if not (float(z) > 0):
        raise DomainError(f"z must be > 0, got {z!r}")
    if not isinstance(dps, int) or dps < 1:
        raise DomainError(f"dps must be an integer >= 1, got {dps!r}")
    with mp.workdps(dps):
        root = mp.sqrt(_as_mpf(z))
        config = PointConfig(tuple(_as_mpf(yj) * root for yj in w.y), w.c)
    return _clear(params, config, form_enclosure(params, config, dps)[0], dps)


def t_power_coefficient(params: KernelParams, w: WitnessConfig):
    """The coefficient of z^t: -a * sum_jk c_j c_k (y_j^2 + y_k^2)^t, in
    mpmath at ``SERIES_DPS`` digits.

    Requires the witness moments to vanish through T = floor(t), which
    ``w.moment_order`` certifies exactly; otherwise the closed form above
    is not the z^t coefficient.
    """
    T = _check_noninteger_t(params.t)
    if w.moment_order < T:
        raise PreconditionError(
            f"witness moments must vanish through T={T} for the z^t "
            "coefficient closed form"
        )
    with mp.workdps(SERIES_DPS):
        powers = _sum_square_powers(w, _as_mpf(params.t))
        total = mp.fsum(
            _as_mpf(w.c[j] * w.c[k]) * powers[w.y[j] ** 2 + w.y[k] ** 2]
            for j in range(w.n)
            for k in range(w.n)
            if w.y[j] ** 2 + w.y[k] ** 2 != 0
        )
        return -_as_mpf(params.a) * total


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
    kernel form Q, from ``SERIES_DPS`` digits after binary64; a z it does
    not certify is skipped, not trusted.  The certificate keeps that
    enclosure if it is mpmath, so at ``SERIES_DPS`` digits or more, with a
    bound of at most 1e-15 |Q|; else it encloses Q once more at
    min(DPS_CAP, max(SERIES_DPS, 2 dps)) digits, where the bound is about
    10^-dps smaller, so its ``dps`` can exceed the certifying digits.  Its
    f(z) = pi Q prod_pq (1 + D_pq), D the distance matrix of the same
    points, has Q's certified sign.
    """
    if not (kappa < 0):
        raise PreconditionError(
            f"z^t coefficient is {mp.nstr(kappa, 8)} >= 0: the small-z scan "
            "cannot produce a negative value from this witness"
        )
    for m in range(1, SCAN_STEPS + 1):
        config = PointConfig(tuple(yj / 2**m for yj in w.y), w.c)
        cert = certify_negative(params, config, SERIES_DPS)
        if cert is None:
            continue
        value, bound, dps = cert.value, cert.error_bound, cert.dps
        if not (isinstance(value, mp.mpf) and bound <= 1e-15 * abs(value)):
            dps = min(DPS_CAP, max(SERIES_DPS, 2 * dps))
            value, bound = form_enclosure(params, config, dps)
        f_value = _clear(params, config, value, dps)
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
    L = math.lcm(*(v.denominator for v in y))
    Y = [v.numerator * (L // v.denominator) for v in y]
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
    total = sum(
        (
            w.c[j] * w.c[k] * (w.y[j] - w.y[k]) ** (2 * v)
            for j in range(w.n)
            for k in range(w.n)
        ),
        start=Fraction(0),
    )
    return (-1) ** v * total
