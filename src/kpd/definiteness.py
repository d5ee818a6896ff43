"""Finite-sample definiteness testing.

Positive-definiteness of the kernel is probed through eigenvalues of Gram
matrices; conditional negative-definiteness of the underlying distance
form is probed through its quadratic form restricted to zero-sum
coefficient vectors.  Every FAIL verdict carries a configuration; a PD
FAIL's eigenvector is a candidate that only :func:`~kpd.kernel.certify_negative`
turns into a certificate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, DomainError, PreconditionError
from .kernel import KernelParams, PointConfig, kernel_matrix, resolve_form_sign

__all__ = [
    "DefinitenessVerdict",
    "pd_check",
    "cnd_check",
    "random_zero_sum_config",
]

PASS = "PASS"
FAIL = "FAIL"


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Outcome of a definiteness test.

    ``statistic`` is the signed decision quantity: the smallest Gram
    eigenvalue for PD checks, and the *negated* quadratic-form value for
    CND checks, so that uniformly

        FAIL  <=>  statistic < -tolerance   (worst_config present),
        PASS  <=>  statistic >= -tolerance.

    ``boundary`` flags PASS verdicts whose statistic is within
    [-tolerance, 0]: duplicated points legitimately create zero
    eigenvalues, so these are reported as PASS with a marker rather than
    as failures.
    """

    verdict: str
    statistic: float
    tolerance: float
    worst_config: PointConfig | None = None
    boundary: bool = False

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL


def pd_check(params: KernelParams, points, tolerance: float) -> DefinitenessVerdict:
    """PASS iff the minimum eigenvalue of the Gram matrix of the kernel at
    ``points`` is >= -tolerance.

    On FAIL the corresponding unit eigenvector is returned as the
    coefficient vector of ``worst_config``, for
    :func:`~kpd.kernel.certify_negative` to certify or reject.
    """
    if not 0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    x = np.array(points, dtype=float)
    entries = kernel_matrix(params, x, x)
    if np.any(np.diag(entries) <= 0.0):
        raise DomainError("Gram diagonal must be strictly positive")
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare path
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
    min_eig = float(vals[0])
    if min_eig < -tolerance:
        worst = PointConfig(tuple(x.tolist()), tuple(float(v) for v in vecs[:, 0]))
        return DefinitenessVerdict(FAIL, min_eig, tolerance, worst)
    return DefinitenessVerdict(PASS, min_eig, tolerance, boundary=min_eig < 0.0)


def cnd_check(
    params: KernelParams, config: PointConfig, tolerance: float
) -> DefinitenessVerdict:
    """PASS iff the zero-sum quadratic form of the distance form is <= tolerance.

    Preconditions: n >= 2 and sum(c) = 0 to within 1e-12 of the
    coefficient scale.  The side of the tolerance is decided by
    :func:`~kpd.kernel.resolve_form_sign`, whose error enclosure must
    exclude it; a form it cannot separate from the tolerance raises
    ToleranceError.
    """
    if config.n < 2:
        raise PreconditionError("cnd_check needs at least two points")
    _, c = config.as_float_arrays()
    coeff_scale = float(np.sum(np.abs(c)))
    if coeff_scale == 0.0:
        coeff_sum = 0.0
    else:
        coeff_sum = abs(math.fsum(c)) / coeff_scale
    if coeff_sum > 1e-12:
        raise PreconditionError(
            f"coefficients must sum to zero (relative residual {coeff_sum:.3e})"
        )
    if not 0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    value, _, _ = resolve_form_sign(params, config, distance=True, threshold=tolerance)
    value = float(value)
    if value > tolerance:
        return DefinitenessVerdict(FAIL, -value, tolerance, config)
    return DefinitenessVerdict(PASS, -value, tolerance, boundary=value > 0.0)


def random_zero_sum_config(rng: np.random.Generator, n: int) -> PointConfig:
    """Uniform points on [-10, 10]; standard-normal coefficients projected
    to zero sum (the projection leaves a residual at float rounding level,
    well inside cnd_check's 1e-12 gate)."""
    pts = rng.uniform(-10.0, 10.0, size=n)
    c = rng.standard_normal(n)
    c = c - c.mean()
    return PointConfig(tuple(float(p) for p in pts), tuple(float(v) for v in c))
