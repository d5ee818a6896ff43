"""Finite-sample definiteness testing.

Positive-definiteness of the kernel is probed through the lowest eigenpair
of a Gram matrix; conditional negative-definiteness of the underlying
distance form through its quadratic form on zero-sum coefficient vectors.
A FAIL verdict is the presence of a :class:`~kpd.kernel.Certificate`: the
lowest eigenvector, if :func:`~kpd.kernel.certify_negative` certifies its
kernel form negative, or the configuration whose distance form
:func:`~kpd.kernel.resolve_form_sign` places above the tolerance.
"""

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import EigensolverError, DomainError, PreconditionError
from .kernel import Certificate, KernelParams, PointConfig, _matrix, certify_negative
from .kernel import check_zero_sum, resolve_form_sign


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Outcome of a definiteness test.

    ``statistic`` is the smallest Gram eigenvalue for PD checks and the
    *negated* distance-form value for CND checks, kept as an mpf at the
    ``dps`` digits that resolved its side where binary64 (dps 17) does
    not.  The verdict is FAIL
    exactly when ``certificate`` is present, and then statistic <=
    -tolerance.  For CND a statistic below -tolerance is a FAIL; for PD it
    is not where the eigenvector's form is not certified negative.

    ``boundary`` flags PASS verdicts with a negative statistic, such as
    the zero eigenvalues of duplicated points, which read slightly
    negative, and uncertified eigenvalues below -tolerance.

    ``gram`` is the Gram matrix a PD check read its eigenvalues from: the
    entries that its eigenvector's binary64 form reads.
    """

    statistic: float | mp.mpf
    tolerance: float
    certificate: Certificate | None = None
    dps: int = 17
    gram: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        return self.certificate is not None

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failed else "PASS"

    @property
    def boundary(self) -> bool:
        return not self.failed and self.statistic < 0.0


def pd_check(params: KernelParams, points, tolerance: float) -> DefinitenessVerdict:
    """FAIL iff the minimum eigenvalue of the Gram matrix of the kernel at
    ``points`` is below -tolerance and :func:`~kpd.kernel.certify_negative`
    certifies the kernel form of its unit eigenvector negative; the
    certificate is the verdict's."""
    if not 0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    x = [float(v) for v in points]
    entries = np.array(_matrix(params, x, False))
    if np.any(np.diag(entries) <= 0.0):
        raise DomainError("Gram diagonal must be strictly positive")
    try:
        vals, vecs = np.linalg.eigh(entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare path
        raise EigensolverError(f"symmetric eigensolver failed: {exc}") from exc
    min_eig, certificate = float(vals[0]), None
    if min_eig < -tolerance:
        lowest = PointConfig(tuple(x), tuple(float(v) for v in vecs[:, 0]))
        certificate = certify_negative(params, lowest)
    return DefinitenessVerdict(min_eig, tolerance, certificate, gram=entries)


def cnd_check(
    params: KernelParams, config: PointConfig, tolerance: float
) -> DefinitenessVerdict:
    """PASS iff the zero-sum quadratic form of the distance form is <= tolerance.

    Preconditions: n >= 2 and zero-sum coefficients, as
    :func:`~kpd.kernel.check_zero_sum` states them.  The side of the
    tolerance is decided by :func:`~kpd.kernel.resolve_form_sign`, whose
    error enclosure must exclude it; a form it cannot separate from the
    tolerance raises ToleranceError.
    """
    if config.n < 2:
        raise PreconditionError("cnd_check needs at least two points")
    check_zero_sum(config.coeffs)
    if not 0 <= tolerance < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance}")
    value, dps, bound = resolve_form_sign(params, config, distance=True, threshold=tolerance)
    certificate = Certificate(config, value, bound, dps) if value > tolerance else None
    # an mpf's unary minus would round it to the caller's precision
    statistic = -value if isinstance(value, float) else mp.fneg(value, exact=True)
    return DefinitenessVerdict(statistic, tolerance, certificate, dps)

