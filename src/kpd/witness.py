"""Vanishing-moment witnesses and the small-scale expansion that turns
them into explicit non-PD certificates.

Clearing denominators shows that the kernel quadratic form at scaled
points x_j = y_j*sqrt(z) has, for every z > 0, the same sign as

    f(z) = sum_jk c_j c_k  prod_{(p,q) != (j,k)} (1 + A_pq*z + B_pq*z^t),

a double sum over ordered index pairs, with A_pq = (y_p - y_q)^2 exact
rational and B_pq = a*(y_p^2 + y_q^2)^t irrational in general.  If the
coefficients annihilate all moments sum_j c_j y_j^l for l = 0..T with
T = floor(t), the integer powers z^0..z^T cancel *exactly* and the lowest
surviving term is z^t with coefficient

    kappa = -a * sum_jk c_j c_k (y_j^2 + y_k^2)^t,

which for the binomial witnesses below is nonzero with the sign of
(-1)^(T+1).  For odd T this makes f negative at small z, a replayable
witness that the kernel is not positive-definite, for every a > 0.

The series expansion keeps coefficients of pure integer powers as exact
Fractions (the cancellation is an exact statement, not an approximate
one), while coefficients involving z^t carry mpmath values at a
configurable working precision.  Those are built in one product-rule
pass whose partial sums mix the signs of c_j c_k, so their rounding error
is relative to the same sum taken with |c_j c_k|, not to the coefficient
itself; :func:`cleared_form_series` states the bound.  At small z the
kernel form is dominated by cancellation, so the certificate search
evaluates it with :func:`~kpd.kernel.form_enclosure` and escalates
precision, up to ``kernel.DPS_CAP`` digits, until the error bound excludes
zero.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Literal, NamedTuple

import mpmath as mp

from .errors import DomainError, PreconditionError, SizeCapError, ToleranceError
from .kernel import DPS_CAP, KernelParams, PointConfig, _as_mpf, form_enclosure

__all__ = [
    "WitnessConfig",
    "ExponentKey",
    "PowerSeries",
    "NegativeScaleCertificate",
    "build_binomial_witness",
    "check_moments",
    "cleared_form_series",
    "cleared_form_value",
    "t_power_coefficient",
    "predict_t_coefficient_sign",
    "find_negative_scale",
    "subset_product_identity",
    "difference_power_sum",
]

# The series expansion's cost grows about as n^6 (2n^2 trinomial multiplies
# over O(n^4) keys).  At 50 digits on a 2-vCPU Xeon it took 1.0 s for n = 7,
# 2.2 s for n = 8 and 4.4 s for n = 9.
DEFAULT_MAX_POINTS = 8
SERIES_DPS = 50
INTEGER_GAP = 1e-9
# The witness scan tries z = 2^-k for k = 1..SCAN_STEPS.
SCAN_STEPS = 200


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
        if self.moment_order < 0:
            raise DomainError("moment_order must be >= 0")
        for ell in range(self.moment_order + 1):
            m = sum(cj * yj**ell for cj, yj in zip(c, y))
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


def _times(poly: dict, A: Fraction, B) -> dict:
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
    mpmath floats at the precision used to build the series.  Zero
    coefficients are not stored.
    """

    terms: dict
    params: KernelParams
    dps: int

    def coefficient(self, i: int, j: int):
        return self.terms.get(ExponentKey(i, j), Fraction(0))

    def evaluate(self, z, dps: int):
        """Evaluate at z > 0, summing in mpmath at ``dps`` digits."""
        with mp.workdps(dps):
            zm = _as_mpf(z)
            zt = zm ** _as_mpf(self.params.t)
            return mp.fsum(
                co * zm**k.i * zt**k.j for k, co in sorted(self.terms.items())
            )


def cleared_form_series(
    params: KernelParams, w: WitnessConfig, dps: int = SERIES_DPS
) -> PowerSeries:
    """Expand the cleared form into a keyed power series.

    One product-rule pass over the n^2 ordered pairs pq, with factors
    g_pq = 1 + A_pq z + B_pq z^t.  P is the product of the factors folded
    so far and D the cleared form over them; each pair sets
    D <- D*g_pq + c_p c_q P, then P <- P*g_pq, so at the end D = f.
    Keyed accumulation keeps the term count at O(n^4) instead of the
    3^(n^2) raw products.

    The j = 0 coefficients are exact Fractions, so the cancellation of
    z^0..z^T is exact.  The mpf coefficients are not cancellation-free,
    because D mixes the signs of the weights c_p c_q.  Every P coefficient
    is a sum of nonnegative products, and every D coefficient is a sum of
    c_p c_q times such products, so each rounds to within a small multiple
    of n^2 * 10^-dps of the same sum taken with |c_p c_q|: the scale of
    the final weighted sum in an expansion that cancels only there.
    """
    _check_noninteger_t(params.t)
    n = w.n
    if n > DEFAULT_MAX_POINTS:
        keys = (n * n) * (n * n + 1) // 2
        raise SizeCapError(
            f"witness has n={n} points (> cap {DEFAULT_MAX_POINTS}): the "
            f"ordered-pair product would carry ~{keys} expansion keys"
        )
    with mp.workdps(dps):
        A, B = _pair_data(params, w)
        P: dict = {(0, 0): Fraction(1)}
        D: dict = {}
        for (p, q), A_pq in A.items():
            D = _times(D, A_pq, B[p, q])
            weight = w.c[p] * w.c[q]
            if weight:
                for key, co in P.items():
                    D[key] = D.get(key, 0) + weight * co
            P = _times(P, A_pq, B[p, q])
        terms = {ExponentKey(*k): v for k, v in D.items() if v != 0}
    return PowerSeries(terms=terms, params=params, dps=dps)


def cleared_form_value(
    params: KernelParams, w: WitnessConfig, z, dps: int | None = None
):
    """Evaluate f(z) directly from the product form, without expansion.

    With ``dps=None`` the arithmetic is binary64, fine at moderate z; with
    an integer ``dps`` it is mpmath at that many digits, which small z
    needs: there the terms cancel heavily (see :func:`find_negative_scale`).
    """
    if not (float(z) > 0):
        raise DomainError(f"z must be > 0, got {z!r}")
    num, total = (float, math.fsum) if dps is None else (_as_mpf, mp.fsum)
    with mp.workdps(dps or 17):
        A, B = _pair_data(params, w)
        zv = num(z)
        zt = zv ** num(params.t)
        factors = {pq: 1 + num(A[pq]) * zv + num(B[pq]) * zt for pq in A}
        full = math.prod(factors.values())
        return total(
            num((1 if j == k else 2) * w.c[j] * w.c[k]) * (full / factors[(j, k)])
            for j in range(w.n)
            for k in range(j, w.n)
        )


def t_power_coefficient(
    params: KernelParams, w: WitnessConfig, dps: int | None = None
):
    """The coefficient of z^t: -a * sum_jk c_j c_k (y_j^2 + y_k^2)^t.

    Requires the witness moments to vanish through T = floor(t) (exactly
    checked); otherwise the closed form above is not the z^t coefficient.
    """
    T = _check_noninteger_t(params.t)
    if w.moment_order < T or any(m != 0 for m in check_moments(w, T)):
        raise PreconditionError(
            f"witness moments must vanish through T={T} for the z^t "
            "coefficient closed form"
        )
    if dps is None:
        terms = []
        for j in range(w.n):
            for k in range(w.n):
                s = float(w.y[j] ** 2 + w.y[k] ** 2)
                terms.append(float(w.c[j] * w.c[k]) * (s ** params.t if s else 0.0))
        return -params.a * math.fsum(terms)
    with mp.workdps(dps):
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
class NegativeScaleCertificate:
    """A z with f(z) < 0 plus the scaled point configuration whose kernel
    quadratic form is negative -- an end-to-end non-PD certificate."""

    z: float
    f_value: mp.mpf
    config: PointConfig
    q_value: mp.mpf
    dps: int


def find_negative_scale(
    params: KernelParams, w: WitnessConfig, kappa, dps_start: int = 50
) -> NegativeScaleCertificate:
    """Scan z = 2^-k until the kernel form at the scaled points is
    resolved negative.

    ``kappa`` is the z^t coefficient, as :func:`t_power_coefficient`
    returns it (which checks the witness moments).  Precondition: it is
    negative (checked).  At each z the points y_j sqrt(z) are built and
    the kernel form evaluated with :func:`~kpd.kernel.form_enclosure`,
    doubling the precision until its error bound excludes zero; a z
    unresolved at ``DPS_CAP`` digits is skipped, not trusted.  The kernel
    form equals f(z) / (pi prod_pq (1 + D_pq)), so the cleared form f(z),
    evaluated once at the end, must agree in sign.

    Each z first gets a binary64 enclosure of the ``dps_start`` points.
    If it proves the form positive, the z is skipped without any mpmath
    stage.  No stage could have certified it negative: that enclosure's
    bound holds for every point moved by a relative gamma_2 (about
    2^-52), which covers the points built at every higher precision, and
    they lie within about 10^-dps_start of these.
    """
    if not (kappa < 0):
        raise PreconditionError(
            f"z^t coefficient is {mp.nstr(kappa, 8)} >= 0: the small-z scan "
            "cannot produce a negative value from this witness"
        )
    for k in range(1, SCAN_STEPS + 1):
        z = 2.0**-k
        dps = dps_start
        config = _scaled_config(w, z, dps)
        value, bound = form_enclosure(params, config)
        if value > bound:
            continue
        while True:
            q_value, bound = form_enclosure(params, config, dps=dps)
            resolved = abs(q_value) > bound
            if resolved or dps >= DPS_CAP:
                break
            dps = min(2 * dps, DPS_CAP)
            config = _scaled_config(w, z, dps)
        if resolved and q_value < 0:
            f_value = cleared_form_value(params, w, z, dps=dps)
            if not (f_value < 0):
                raise ToleranceError(
                    f"internal disagreement at z=2^-{k}: kernel form "
                    f"{mp.nstr(q_value, 8)} but f={mp.nstr(f_value, 8)} (dps={dps})"
                )
            return NegativeScaleCertificate(
                z=z, f_value=f_value, config=config, q_value=q_value, dps=dps
            )
    raise ToleranceError(
        f"no negative value found for z down to 2^-{SCAN_STEPS} with up to "
        f"{DPS_CAP} digits"
    )


def _scaled_config(w: WitnessConfig, z: float, dps: int) -> PointConfig:
    """The witness at scale z: points y_j sqrt(z) at ``dps`` digits."""
    with mp.workdps(dps):
        sqrt_z = mp.sqrt(mp.mpf(z))
        return PointConfig(tuple(_as_mpf(yj) * sqrt_z for yj in w.y), w.c)


# ---------------------------------------------------------------------------
# Exact combinatorial identities (brute-force verification at bounded size).


def subset_product_identity(
    n: int, m: int, j: int, k: int, y, cap: int = 2_000_000
) -> tuple[Fraction, Fraction]:
    """Both sides of the all-but-one-pair subset-sum identity.

    LHS: the sum over m-element subsets J of the ordered-pair set minus
    {(j,k)} of prod_{(p,q) in J} (y_p - y_q)^2.  RHS: the alternating
    expansion sum_v (-1)^v (y_j - y_k)^(2v) * e_{m-v}, where e_r is the
    unrestricted r-subset sum.  Indices are 0-based.  Exact rationals
    throughout; both values are returned so callers assert equality.
    """
    y = [_as_fraction(v) for v in y]
    if n < 1 or len(y) != n:
        raise DomainError("y must have length n >= 1")
    if not (0 <= m <= n * n - 1):
        raise DomainError(f"m must lie in [0, n^2-1], got {m}")
    if not (0 <= j < n and 0 <= k < n):
        raise DomainError(f"(j, k) must lie in [0, n)^2, got ({j}, {k})")
    if math.comb(n * n, m) > cap:
        raise SizeCapError(
            f"subset enumeration C({n * n}, {m}) exceeds the cap {cap}"
        )
    pairs = [(p, q) for p in range(n) for q in range(n)]
    sq = {pq: (y[pq[0]] - y[pq[1]]) ** 2 for pq in pairs}

    def subset_sum(pool, r):
        return sum(
            (math.prod((sq[pq] for pq in J), start=Fraction(1)) for J in combinations(pool, r)),
            start=Fraction(0),
        )

    restricted = [pq for pq in pairs if pq != (j, k)]
    lhs = subset_sum(restricted, m)
    djk = (y[j] - y[k]) ** 2
    rhs = sum(
        ((-1) ** v * djk**v * subset_sum(pairs, m - v) for v in range(m + 1)),
        start=Fraction(0),
    )
    return lhs, rhs


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
