"""Discretized spectral probe of the kernel integral operator on L2(R).

The operator is truncated to [-L, L] and discretized by a symmetrized
Nystrom rule M[i,j] = sqrt(w_i w_j) K(x_i, x_j) over a composite
Gauss-Legendre scheme.  When all panels have one degree (node counts
below 16 or multiples of 16) the scheme is its own exact mirror, and as
K(-x, -y) == K(x, y) bit for bit, M commutes with the reversal J.  For
an even node count its spectrum is then the union of those of the two
half-size blocks A +- BJ (Cantoni and Butler, Linear Algebra Appl. 13,
1976), which together take a quarter of the full eigensolve's O(n^3)
work, and only half of M's rows are built.  Forming the blocks adds
one rounding per entry, the order of the eigensolver's own backward
error.  Other schemes get one full eigensolve.

A negative eigenvalue is evidence that prompts a search for a
certificate: a few grid points with dyadic coefficients whose
kernel form is negative beyond an a-priori rounding-error bound.  Such a
form at finitely many points proves that the kernel is not positive
definite, and only it yields NEGATIVE_FOUND; the rest is evidence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EigensolverError, KpdError
from .kernel import KernelParams, PointConfig, form_enclosure, kernel_matrix
from .quadrature import composite_rule

__all__ = [
    "QuadratureScheme",
    "GridCertificate",
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

# Certification is attempted when the final-rung minimum eigenvalue lies
# below -ATTEMPT_FACTOR * max(diag).
ATTEMPT_FACTOR = 1e-8
# The certificate search: grids of up to SEARCH_MAX_POINTS points with
# spacings j/128, j = 2..192, and coefficients in multiples of COEFF_QUANTUM.
SEARCH_MAX_POINTS = 8
SEARCH_SPACINGS = np.arange(2, 193) / 128.0
COEFF_QUANTUM = 2.0**-16


def _check_half_width(half_width) -> None:
    if not (math.isfinite(half_width) and half_width > 0):
        raise DomainError(f"half_width must be finite and > 0, got {half_width}")


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Composite Gauss-Legendre discretization of [-L, L]."""

    node_count: int
    half_width: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _check_half_width(self.half_width)
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
    _check_half_width(half_width)
    if node_count < 1:
        raise DomainError(f"node_count must be >= 1, got {node_count}")
    nodes, weights = composite_rule(-half_width, half_width, node_count)
    return QuadratureScheme(
        node_count=node_count,
        half_width=float(half_width),
        nodes=nodes,
        weights=weights,
    )


def nystrom_matrix(params: KernelParams, scheme: QuadratureScheme) -> np.ndarray:
    """The symmetrized Nystrom matrix sqrt(w_i w_j) K(x_i, x_j).

    Symmetric bit-for-bit, because :func:`~kpd.kernel.kernel_matrix` is:
    (x - y)^2 and x^2 + y^2 round the same when x and y swap.
    """
    sw = np.sqrt(scheme.weights)
    return kernel_matrix(params, scheme.nodes, scheme.nodes) * np.outer(sw, sw)


def _nystrom_spectrum(params: KernelParams, scheme: QuadratureScheme):
    """Ascending eigenvalues of the Nystrom matrix M and its largest
    diagonal entry.

    On an exactly mirrored scheme with an even number n = 2h of nodes,
    M = [[A, B], [JBJ, JAJ]] commutes with the reversal J, so its spectrum
    is that of the two h x h blocks A + BJ and A - BJ.  Only the first h
    rows of M are built.  Any other scheme gets one full eigensolve.
    """
    x, w = scheme.nodes, scheme.weights
    h, odd = divmod(scheme.node_count, 2)
    if odd or not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
        matrix = nystrom_matrix(params, scheme)
        blocks, diag = [matrix], np.diag(matrix)
    else:
        sw = np.sqrt(w)
        rows = kernel_matrix(params, x[:h], x) * np.outer(sw[:h], sw)
        a, bj = rows[:, :h], rows[:, ::-1][:, :h]
        blocks, diag = [a + bj, a - bj], np.diag(a)
    try:
        vals = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigensolverError(f"Nystrom eigensolver failed: {exc}") from exc
    return vals, float(np.max(diag))


def truncation_tail_bound(params: KernelParams, half_width: float) -> float:
    """Diagonal kernel mass outside [-L, L]: the kernel decays like
    1/(pi a 2^t x^(2t)) along the diagonal, integrable for t > 1/2, which
    gives L^(1-2t) / (pi a 2^t (t - 1/2)).

    Summed in logs, so that it is inf where it overflows binary64 and 0.0
    where it underflows; every term but the first is finite.
    """
    t, a = params.t, params.a
    if t <= 0.5:
        return math.inf
    log_bound = (
        (0.5 - t) * (2.0 * math.log(half_width))
        - t * math.log(2.0)
        - math.log(math.pi)
        - math.log(a)
        - math.log(t - 0.5)
    )
    with np.errstate(over="ignore"):
        return float(np.exp(log_bound))


@dataclass(frozen=True, eq=False)
class GridCertificate:
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


def certify_negative_direction(params: KernelParams) -> GridCertificate | None:
    """Search few-point configurations for a certified negative kernel form.

    For m = 2..SEARCH_MAX_POINTS the candidates are the symmetric grids
    x_k = (k - (m-1)/2) h over the spacings SEARCH_SPACINGS.  The spacing
    whose Gram matrix has the most negative lambda_min / lambda_max wins;
    its lowest eigenvector, scaled so that its largest entry is 1 and
    rounded to multiples of COEFF_QUANTUM, gives the coefficients.  The
    first m whose configuration is negative beyond the rounding-error
    bound of :func:`~kpd.kernel.form_enclosure` is returned, else None.
    Points and coefficients are dyadic, so the decimals that ``repr``
    prints are exactly the configuration certified, and ``value`` is the
    float form that ``kpd verify`` replays.
    """
    for m in range(2, SEARCH_MAX_POINTS + 1):
        grids = SEARCH_SPACINGS[:, None] * (np.arange(m) - (m - 1) / 2)
        grams = kernel_matrix(params, grids, grids)
        vals = np.linalg.eigvalsh(grams)
        best = int(np.argmin(vals[:, 0] / vals[:, -1]))
        vec = np.linalg.eigh(grams[best])[1][:, 0]
        vec = vec / vec[np.argmax(np.abs(vec))]
        coeffs = np.round(vec / COEFF_QUANTUM) * COEFF_QUANTUM
        config = PointConfig(tuple(grids[best].tolist()), tuple(coeffs.tolist()))
        cert = GridCertificate(config, *form_enclosure(params, config))
        if cert.certified_negative:
            return cert
    return None


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Evidence from a refinement ladder at fixed kernel parameters.

    ``levels`` records (node_count, half_width, min_eigenvalue) per rung;
    ``smallest_eigenvalues`` holds the six smallest at the final rung.
    ``certificate`` is the few-point grid configuration found by
    :func:`certify_negative_direction`, or None.  The verdict is
    resolution-qualified by design: NEGATIVE_FOUND is issued only with a
    certificate whose quadratic form is negative with its error bound
    excluding zero, and NO_NEGATIVE_AT_RESOLUTION never claims
    positive-definiteness.
    """

    params: KernelParams
    levels: tuple
    smallest_eigenvalues: tuple
    verdict: str
    certificate: GridCertificate | None
    tail_bound: float

    @property
    def min_eigenvalue(self) -> float:
        return self.levels[-1][2]


def min_operator_eigenvalue(params: KernelParams, ladder) -> SpectralReport:
    """Minimum Nystrom eigenvalue across a refinement ladder.

    ``ladder`` is a nonempty sequence of (node_count, half_width) with
    nondecreasing node counts.  The certificate search runs when the
    final-level minimum eigenvalue is more negative than
    -ATTEMPT_FACTOR * max(diag); only a certified negative certificate
    yields NEGATIVE_FOUND.
    """
    ladder = [(int(n), float(L)) for n, L in ladder]
    if not ladder:
        raise DomainError("refinement ladder must be nonempty")
    if any(b[0] < a[0] for a, b in zip(ladder, ladder[1:])):
        raise DomainError("ladder node counts must be nondecreasing")

    levels = []
    for node_count, half_width in ladder:
        vals, max_diag = _nystrom_spectrum(params, build_scheme(node_count, half_width))
        levels.append((node_count, half_width, float(vals[0])))

    certificate = None
    if vals[0] < -ATTEMPT_FACTOR * max_diag:
        certificate = certify_negative_direction(params)
    verdict = NO_NEGATIVE_AT_RESOLUTION if certificate is None else NEGATIVE_FOUND

    return SpectralReport(
        params=params,
        levels=tuple(levels),
        smallest_eigenvalues=tuple(float(v) for v in vals[:6]),
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
