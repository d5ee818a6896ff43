"""Discretized spectral probe of the kernel integral operator on L2(R).

The operator is truncated to [-L, L] and discretized by a symmetrized
Nystrom rule M[i,j] = sqrt(w_i w_j) K(x_i, x_j) over a composite
Gauss-Legendre scheme.  A negative eigenvalue is reported as a fact
only through a finite certificate: the eigenvector, rescaled by sqrt(w),
is a coefficient vector at the final rung's own nodes, and its kernel
quadratic form equals the eigenvalue.  NEGATIVE_FOUND requires that form
to be negative beyond an a-priori rounding-error bound; a negative form
at finitely many points already proves that the kernel is not positive
definite.  Everything else is resolution-qualified evidence, not a claim.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigensolverError, KpdError
from .kernel import KernelParams, PointConfig, form_enclosure, kernel_matrix
from .quadrature import composite_rule

__all__ = [
    "QuadratureScheme",
    "NodeCertificate",
    "SpectralReport",
    "build_scheme",
    "nystrom_matrix",
    "certify_negative_direction",
    "min_operator_eigenvalue",
    "open_problem_sweep",
    "sweep_rows",
    "NEGATIVE_FOUND",
    "NO_NEGATIVE_AT_RESOLUTION",
]

NEGATIVE_FOUND = "NEGATIVE_FOUND"
NO_NEGATIVE_AT_RESOLUTION = "NO_NEGATIVE_AT_RESOLUTION"

PANEL_DEGREE = 16
# Certification is attempted when the final-rung minimum eigenvalue lies
# below -ATTEMPT_FACTOR * max(diag).
ATTEMPT_FACTOR = 1e-8


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Composite Gauss-Legendre discretization of [-L, L]."""

    node_count: int
    half_width: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.half_width <= 0:
            raise DomainError(f"half_width must be > 0, got {self.half_width}")
        if len(self.nodes) != self.node_count or len(self.weights) != self.node_count:
            raise DomainError("nodes/weights length must equal node_count")
        if np.any(self.weights <= 0):
            raise DomainError("weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        total = float(np.sum(self.weights))
        if not math.isclose(total, 2.0 * self.half_width, rel_tol=1e-12):
            raise DomainError(
                f"weights sum {total!r} != interval length {2.0 * self.half_width!r}"
            )


def build_scheme(node_count: int, half_width: float) -> QuadratureScheme:
    """Panels of degree 16 (plus one remainder panel) across [-L, L]."""
    nodes, weights = composite_rule(
        -half_width, half_width, node_count, panel_degree=PANEL_DEGREE
    )
    return QuadratureScheme(
        node_count=node_count,
        half_width=float(half_width),
        nodes=nodes,
        weights=weights,
    )


def nystrom_matrix(params: KernelParams, scheme: QuadratureScheme) -> np.ndarray:
    """The symmetrized Nystrom matrix sqrt(w_i w_j) K(x_i, x_j).

    Symmetric bit-for-bit: the upper triangle is computed once and
    mirrored.
    """
    sw = np.sqrt(scheme.weights)
    full = kernel_matrix(params, scheme.nodes, scheme.nodes) * np.outer(sw, sw)
    return np.triu(full) + np.triu(full, 1).T


def truncation_tail_bound(params: KernelParams, half_width: float) -> float:
    """Diagonal kernel mass outside [-L, L]: the kernel decays like
    1/(pi a 2^t x^(2t)) along the diagonal, integrable for t > 1/2."""
    t, a = params.t, params.a
    if t <= 0.5:
        return math.inf
    return 2.0 * half_width ** (1.0 - 2.0 * t) / (math.pi * a * 2.0**t * (2.0 * t - 1.0))


@dataclass(frozen=True, eq=False)
class NodeCertificate:
    """A finite point/coefficient configuration, its float kernel quadratic
    form, and an a-priori bound on the rounding error of that value."""

    config: PointConfig
    value: float
    error_bound: float

    @property
    def conclusive(self) -> bool:
        return abs(self.value) > self.error_bound

    @property
    def certified_negative(self) -> bool:
        return self.value < 0 and self.value + self.error_bound < 0


def certify_negative_direction(
    params: KernelParams, scheme: QuadratureScheme, eigvec: np.ndarray
) -> NodeCertificate:
    """Turn a discrete direction into a finite kernel quadratic form.

    For an eigenvector v of the Nystrom matrix sqrt(w_i w_j) K(x_i, x_j),
    the coefficients c_i = sqrt(w_i) v_i at the nodes x_i give
    sum_jk c_j c_k K(x_j, x_k) = v^T M v = lambda.  A negative value of
    this finite form already proves that K is not positive definite, so
    the certificate is that configuration and ``value`` is its float
    quadratic form: exactly what ``kpd verify`` replays.  ``error_bound``
    is the a-priori rounding-error bound of
    :func:`~kpd.kernel.form_enclosure`.
    """
    v = np.asarray(eigvec, dtype=float)
    if v.shape != (scheme.node_count,):
        raise DomainError(
            f"eigvec must have length {scheme.node_count}, got {v.shape}"
        )
    coeffs = np.sqrt(scheme.weights) * v
    config = PointConfig(tuple(scheme.nodes.tolist()), tuple(coeffs.tolist()))
    return NodeCertificate(config, *form_enclosure(params, config))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Evidence from a refinement ladder at fixed kernel parameters.

    ``levels`` records (node_count, half_width, min_eigenvalue) per rung;
    ``smallest_eigenvalues`` holds the six smallest at the final rung.
    ``certificate`` is the final rung's eigenvector as a finite node
    configuration (see :func:`certify_negative_direction`), present
    whenever certification was attempted.  The verdict is
    resolution-qualified by design: NEGATIVE_FOUND is issued only when
    that configuration's quadratic form is negative with its error bound
    excluding zero, and NO_NEGATIVE_AT_RESOLUTION never claims
    positive-definiteness.
    """

    params: KernelParams
    levels: tuple
    smallest_eigenvalues: tuple
    verdict: str
    certificate: NodeCertificate | None
    tail_bound: float

    @property
    def min_eigenvalue(self) -> float:
        return self.levels[-1][2]


def min_operator_eigenvalue(params: KernelParams, ladder) -> SpectralReport:
    """Minimum Nystrom eigenvalue across a refinement ladder.

    ``ladder`` is a nonempty sequence of (node_count, half_width) with
    nondecreasing node counts.  Certification is attempted when the
    final-level minimum eigenvalue is more negative than
    -ATTEMPT_FACTOR * max(diag); only a conclusive negative certificate
    yields NEGATIVE_FOUND.
    """
    ladder = [(int(n), float(L)) for n, L in ladder]
    if not ladder:
        raise DomainError("refinement ladder must be nonempty")
    if any(b[0] < a[0] for a, b in zip(ladder, ladder[1:])):
        raise DomainError("ladder node counts must be nondecreasing")

    levels = []
    for node_count, half_width in ladder:
        scheme = build_scheme(node_count, half_width)
        matrix = nystrom_matrix(params, scheme)
        try:
            vals, vecs = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            raise EigensolverError(f"Nystrom eigensolver failed: {exc}") from exc
        levels.append((node_count, half_width, float(vals[0])))
        final_scheme, final_vals, final_vecs = scheme, vals, vecs
        final_max_diag = float(np.max(np.diag(matrix)))

    certificate = None
    verdict = NO_NEGATIVE_AT_RESOLUTION
    if final_vals[0] < -ATTEMPT_FACTOR * final_max_diag:
        certificate = certify_negative_direction(
            params, final_scheme, final_vecs[:, 0]
        )
        if certificate.certified_negative:
            verdict = NEGATIVE_FOUND

    return SpectralReport(
        params=params,
        levels=tuple(levels),
        smallest_eigenvalues=tuple(float(v) for v in final_vals[:6]),
        verdict=verdict,
        certificate=certificate,
        tail_bound=truncation_tail_bound(params, ladder[-1][1]),
    )


def open_problem_sweep(a_grid, ladder, t: float = 2.0) -> list[dict]:
    """Evidence sweep over anisotropy weights at fixed t (default 2).

    The open region is 0 < a <= threshold(2) = 12; grid entries outside
    it are allowed but labeled as controls.  Each entry yields a
    SpectralReport; kpd diagnostics (KpdError) are recorded per point and
    do not abort the sweep, while any other exception propagates.  Output
    ordering follows the grid.
    """
    results = []
    for a in a_grid:
        a = float(a)
        entry = {"t": float(t), "a": a, "control": not (0.0 < a <= 12.0)}
        try:
            entry["report"] = min_operator_eigenvalue(
                KernelParams(t=float(t), a=a), ladder
            )
        except KpdError as exc:
            entry["error"] = repr(exc)
        results.append(entry)
    return results


def sweep_rows(results: list[dict]) -> list[dict]:
    """Flatten sweep results into evidence-table rows (one per ladder
    level) with columns t, a, level, node_count, L, min_eigenvalue,
    verdict."""
    rows = []
    for entry in results:
        report = entry.get("report")
        if report is None:
            rows.append(
                {
                    "t": entry["t"],
                    "a": entry["a"],
                    "level": -1,
                    "node_count": 0,
                    "L": 0.0,
                    "min_eigenvalue": math.nan,
                    "verdict": "ERROR",
                }
            )
            continue
        for level, (node_count, half_width, min_eig) in enumerate(report.levels):
            last = level == len(report.levels) - 1
            rows.append(
                {
                    "t": entry["t"],
                    "a": entry["a"],
                    "level": level,
                    "node_count": node_count,
                    "L": half_width,
                    "min_eigenvalue": min_eig,
                    "verdict": report.verdict if last else "",
                }
            )
    return rows
