"""Integral representation of fractional powers w^s on Re(w) > 0.

For noninteger s = S + sigma (S integer >= 0, sigma in (0,1)) the power
admits

    w^s = (-1)^S * B(s) * I(w),
    I(w) = integral_0^inf ( sum_{l=0}^{S} (-lam*w)^l / l!  -  e^(-lam*w) )
             * lam^(-(S+1+sigma)) dlam,
    B(s) = (sigma)_{S+1} / Gamma(1 - sigma)  > 0,

and the integrand's L1 norm is bounded by C(s)*|w|^s with
C(s) = e/min(sigma, 1-sigma) + 1/s.

Numerically the integral is split at lam*|w| = 1.  On the inner piece the
bracket is the (stable) Taylor remainder of the exponential, integrated
term by term in closed form; on the outer piece the polynomial part
integrates in closed form and only the exponential part needs (adaptive)
quadrature, with a certified tail bound.  The L1 norm takes the same
split: after the substitution lam*|w| = v^(1/(1-sigma)) the inner piece is
smooth and bounded, so each piece is one adaptive quadrature plus a
closed-form tail.  Homogeneity is exact by
construction: every piece carries the factor |w|^s, and the rest (the
bracket, or the L1 total) depends on w only through its direction
w / |w|.  :func:`validate_representation` evaluates that scale-free part
once per direction, power and tolerance within a call.
"""

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, ToleranceError
from .quadrature import adaptive_quad

INTEGER_GAP = 1e-9
MAX_POWER = 30.0
# Step of the forward difference in validate_representation's derivative check.
DERIVATIVE_STEP = 1e-5
# Default tolerance of integrand_l1_norm, also used by validate_representation.
L1_TOL = 1e-8
# The largest cutoff M of integral_power's outer quadrature on [1, M], which
# grows like 1 / Re(w/|w|): w nearer the imaginary axis raise ToleranceError.
MAX_CUTOFF = 1e9


@dataclass(frozen=True)
class FracPowerParams:
    """The decomposition s = int_part + frac_part plus the positive
    prefactor (frac_part)_{int_part+1} / Gamma(1 - frac_part)."""

    s: float
    int_part: int
    frac_part: float
    prefactor: float

    def __post_init__(self):
        if not (0.0 < self.frac_part < 1.0):
            raise DomainError(f"frac_part must lie in (0,1), got {self.frac_part}")
        if self.prefactor <= 0.0:
            raise DomainError("prefactor must be positive")


def split_power(s: float) -> FracPowerParams:
    """Split s > 0 into integer and fractional parts; reject integers.

    The prefactor is evaluated through log-gamma, which stays finite and
    accurate across the supported range s <= 30.
    """
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"s must be finite and > 0, got {s!r}")
    if s > MAX_POWER:
        raise DomainError(f"s={s} exceeds the supported cap {MAX_POWER}")
    if abs(s - round(s)) <= INTEGER_GAP:
        raise DomainError(f"s={s} is (numerically) an integer")
    S = int(math.floor(s))
    sigma = s - S
    # (sigma)_{S+1} / Gamma(1-sigma) = Gamma(s+1) / (Gamma(sigma) Gamma(1-sigma))
    prefactor = math.exp(
        math.lgamma(s + 1.0) - math.lgamma(sigma) - math.lgamma(1.0 - sigma)
    )
    return FracPowerParams(s=s, int_part=S, frac_part=sigma, prefactor=prefactor)


def rising_factorial(alpha: float, n: int) -> float:
    """alpha * (alpha+1) * ... * (alpha+n-1); empty product 1 at n = 0."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= alpha + k
    return out


def l1_bound_constant(p: FracPowerParams) -> float:
    """C(s) = e / min(sigma, 1-sigma) + 1/s, the L1-norm bound constant."""
    return math.e / min(p.frac_part, 1.0 - p.frac_part) + 1.0 / p.s


def _taylor_remainder(z: complex, S: int) -> complex:
    """R_S(z) / z^(S+1), where R_S(z) = sum_{l=S+1}^inf (-z)^l / l! is the
    exponential's Taylor remainder (== exp minus partial sum).  The series
    has no cancellation for |z| <= 1, where it is used."""
    total = 0.0 + 0.0j
    term = (-1) ** (S + 1) / math.factorial(S + 1)
    l = S + 1
    while abs(term) >= 1e-17 * abs(total):
        total += term
        l += 1
        term *= -z / l
    return total


def integral_power(w: complex, p: FracPowerParams, tol: float = 1e-10) -> complex:
    """Evaluate the integral representation of w^s for Re(w) > 0.

    Absolute accuracy target tol * |w|^s.  w = 0 returns 0 under the
    global 0^s = 0 convention.  Raises ToleranceError where Re(w) / |w| is
    too small for the tail cutoff to stay within MAX_CUTOFF.
    """
    return _integral_power(w, p, tol, _power_bracket)


def _integral_power(w, p: FracPowerParams, tol: float, bracket) -> complex:
    """:func:`integral_power` with its scale-free part supplied as
    ``bracket(w / |w|, p, tol)``."""
    w = complex(w)
    if w == 0:
        return 0.0 + 0.0j
    if w.real <= 0.0:
        raise DomainError(f"integral representation needs Re(w) > 0, got {w!r}")
    if not (tol > 0):
        raise DomainError(f"tol must be > 0, got {tol!r}")
    aw = abs(w)
    return (-1) ** p.int_part * p.prefactor * aw**p.s * bracket(w / aw, p, tol)


def _power_bracket(om: complex, p: FracPowerParams, tol: float) -> complex:
    """The bracket at the direction om = w / |w|:
    w^s = (-1)^S * B(s) * |w|^s * bracket."""
    S, s, B = p.int_part, p.s, p.prefactor
    budget = tol / (3.0 * B)  # three pieces contribute to the bracket

    # Inner piece [0, 1/|w|]: term-by-term integral of the Taylor remainder.
    inner = 0.0 + 0.0j
    term_pow = (-om) ** S
    fact = float(math.factorial(S))
    l = S
    while True:
        l += 1
        term_pow *= -om
        fact *= l
        term = term_pow / (fact * (l - s))
        inner -= term
        if abs(term) < budget / 10.0:
            break
        if l > S + 400:  # pragma: no cover - the factorial always wins
            raise ToleranceError("inner Taylor series failed to converge")

    # Outer polynomial piece, in closed form.
    outer_poly = sum(
        (-om) ** l / (math.factorial(l) * (s - l)) for l in range(S + 1)
    )

    # Outer exponential piece: adaptive quadrature on [1, M] plus a
    # certified tail bound ensuring the truncation stays inside budget.
    re = om.real
    M = 2.0
    while math.exp(-M * re) / (re * M ** (s + 1.0)) > budget / 10.0:
        M *= 1.5
        if M > MAX_CUTOFF:
            raise ToleranceError(f"Re(w)/|w| = {re:.3g} is too close to the imaginary axis")
    J = adaptive_quad(
        lambda mu: cmath.exp(-mu * om) * mu ** (-s - 1.0), 1.0, M, budget / 2.0
    )

    return inner + outer_poly - J


def integrand_l1_norm(w: complex, p: FracPowerParams, tol: float = L1_TOL) -> float:
    """Upper estimate of the integrand's L1 norm, for Re(w) >= 0.

    The numeric part integrates |bracket| * mu^(-s-1) after the
    homogeneity substitution mu = lam*|w|.  On [0, 1] the substitution
    mu = v^k, k = 1/(1-sigma), removes the mu^(-sigma) endpoint
    singularity; [1, mu0] is integrated as it stands, and beyond mu0 a
    closed-form triangle bound is added.  Each quadrature's budget is
    added to its value, so the result is an upper estimate as far as the
    quadrature's error estimate holds, and a value below C(s)*|w|^s
    verifies the bound to that extent.
    """
    return _integrand_l1_norm(w, p, tol, _l1_total)


def _integrand_l1_norm(w, p: FracPowerParams, tol: float, total) -> float:
    """:func:`integrand_l1_norm` with its scale-free part supplied as
    ``total(w / |w|, p, tol)``."""
    w = complex(w)
    if w == 0:
        return 0.0
    if w.real < 0.0:
        raise DomainError(f"L1 bound needs Re(w) >= 0, got {w!r}")
    aw = abs(w)
    return aw**p.s * total(w / aw, p, tol)


def _l1_total(om: complex, p: FracPowerParams, tol: float) -> float:
    """The L1 estimate divided by |w|^s, at the direction om = w / |w|."""
    S, s, sigma = p.int_part, p.s, p.frac_part

    # Inner [0, 1]: with mu = v^k, k = 1/(1-sigma), the integrand
    # |R_S(mu om)| mu^(-s-1) dmu becomes k |R_S(mu om) / mu^(S+1)| dv, which
    # is smooth and at most about k / (S+1)!.  The budget grows with k so
    # that it stays far above the rounding of values of that size.
    k = 1.0 / (1.0 - sigma)
    budget = max(tol, k * 2.0**-40) / 4.0
    inner = adaptive_quad(
        lambda v: k * abs(_taylor_remainder(v**k * om, S)), 0.0, 1.0, budget
    )

    # Outer [1, mu0]: direct |partial sum - exp|.  Beyond mu0 the triangle
    # inequality bounds it in closed form, so a bounded mu0 (the imaginary
    # axis has no decay) only loosens the estimate.
    def outer_integrand(mu: float) -> float:
        poly = sum((-mu * om) ** l / math.factorial(l) for l in range(S + 1))
        return abs(poly - cmath.exp(-mu * om)) * mu ** (-s - 1.0)

    mu0 = 45.0 / max(om.real, 45.0 / 64.0)
    outer = adaptive_quad(outer_integrand, 1.0, mu0, tol / 4.0)
    tail = sum(
        mu0 ** (l - s) / (math.factorial(l) * (s - l)) for l in range(S + 1)
    )
    # The exp part, min(e^(-x) / (Re om mu0^(s+1)), mu0^(-s) / s) with
    # x = mu0 Re om: the second bound holds on the imaginary axis too.
    x = mu0 * om.real
    tail += mu0 ** (-s) / max(x * math.exp(x), s)
    # Each quadrature's error estimate is within its budget; add both.
    return inner + outer + tail + budget + tol / 4.0


@dataclass(frozen=True)
class ValidationReport:
    """Pointwise validation results for the integral representation."""

    entries: tuple
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_representation(pairs, tol: float = 1e-6) -> ValidationReport:
    """Check |h(w;s) - w^s| <= tol*|w|^s pointwise over (w, s) pairs.

    Also exercises the inductive structure at each point: the forward
    difference of h(.; s+1) must reproduce (s+1)*h(.; s), and the
    integrand's L1 norm must respect its closed-form bound.

    Each value is the one :func:`integral_power` or
    :func:`integrand_l1_norm` returns, but the scale-free part is evaluated
    once per distinct (w / |w|, s, tol) within the call: all real w share
    direction 1.  Nothing is kept between calls.
    """
    memo = {}

    def once(part):
        def cached(om, p, tol):
            # repr tells apart the signed zeros that == merges
            key = (part, repr(om), p, tol)
            if key not in memo:
                memo[key] = part(om, p, tol)
            return memo[key]

        return cached

    bracket, l1_total = once(_power_bracket), once(_l1_total)
    entries = []
    failures = []
    for w, s in pairs:
        w = complex(w)
        p = split_power(s)
        h = _integral_power(w, p, tol / 10.0, bracket)
        want = w**s
        err = abs(h - want) / abs(want)
        entry = {"w": w, "s": float(s), "h": h, "w_pow_s": want, "rel_err": err}

        if s + 1.0 <= MAX_POWER:
            q = split_power(s + 1.0)
            hq1 = _integral_power(w + DERIVATIVE_STEP, q, tol / 10.0, bracket)
            hq0 = _integral_power(w, q, tol / 10.0, bracket)
            deriv = (hq1 - hq0) / DERIVATIVE_STEP
            target = (s + 1.0) * h
            entry["derivative_rel_err"] = abs(deriv - target) / abs(target)
            # Forward-difference truncation is (step/2)*s/|w| relative; gate
            # with headroom on top of the quadrature noise floor.
            entry["derivative_gate"] = 1e-4 + DERIVATIVE_STEP * s / abs(w)

        norm = _integrand_l1_norm(w, p, L1_TOL, l1_total)
        bound = l1_bound_constant(p) * abs(w) ** s
        entry["l1_norm_upper"] = norm
        entry["l1_bound"] = bound
        # written as "not x <= limit" so that a NaN fails every check
        if not norm <= bound:
            failures.append((w, s, "l1 bound violated"))

        if not err <= tol:
            failures.append((w, s, f"rel err {err:.3e} > tol {tol:.1e}"))
        if not entry.get("derivative_rel_err", 0.0) <= entry.get("derivative_gate", 1e-4):
            failures.append((w, s, "derivative check failed"))
        entries.append(entry)
    return ValidationReport(entries=tuple(entries), failures=tuple(failures))
