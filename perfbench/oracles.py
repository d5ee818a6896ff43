"""Reference computations that share no code with ``kpd``.

Every formula here is written out again from the paper's definitions:

    K(x, y) = 1 / (pi * (1 + (x - y)^2 + a * (x^2 + y^2)^t))
    d(x, y) = (x - y)^2 + a * (x^2 + y^2)^t

Small configurations are evaluated in mpmath interval arithmetic, so a sign
claim rests on an enclosure that excludes zero.  Large (spectral)
certificates are evaluated in float64 with an a-priori forward-error bound.
Nystrom eigenvalues are recomputed with SciPy's Gauss-Legendre nodes and
its symmetric eigensolver.
"""

import contextlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath import iv

UNIT_ROUNDOFF = 2.0**-53


def _mpf(x):
    """mpf of an int, float, decimal string, Fraction or mpf."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)
PANEL_DEGREE = 16


# ---------------------------------------------------------------------------
# Kernel and quadratic forms.


def kernel_matrix(t, a, x, y):
    x = np.asarray(x, dtype=float)[:, None]
    y = np.asarray(y, dtype=float)[None, :]
    return 1.0 / (math.pi * (1.0 + (x - y) ** 2 + a * (x * x + y * y) ** t))


def _iv_power(s, t):
    """s^t for an interval s >= 0 with the convention 0^t = 0."""
    if s.b == 0:
        return iv.mpf(0)
    return s ** t


@contextlib.contextmanager
def _iv_dps(dps):
    saved = iv.dps
    iv.dps = dps
    try:
        yield
    finally:
        iv.dps = saved


def _iv_number(text):
    text = str(text)
    if "/" in text:
        q = Fraction(text)
        return iv.mpf(q.numerator) / q.denominator
    return iv.mpf(text)


def form_enclosure(t, a, points, coeffs, distance=False, dps=30, dps_cap=1600):
    """Interval enclosure (lo, hi) of sum_jk c_j c_k K(x_j, x_k), or of the
    distance form d when ``distance`` is set.

    ``points`` and ``coeffs`` are decimal strings; the enclosure is of the
    exact decimals.  The precision doubles until the enclosure excludes
    zero or the cap is reached.
    """
    digits = max(len(str(v)) for v in list(points) + list(coeffs))
    dps = max(dps, digits + 10)
    while True:
        with _iv_dps(dps):
            xs = [_iv_number(p) for p in points]
            cs = [_iv_number(c) for c in coeffs]
            tt, aa = iv.mpf(t), iv.mpf(a)
            total = iv.mpf(0)
            n = len(xs)
            for j in range(n):
                for k in range(j, n):
                    diff = xs[j] - xs[k]
                    dist = diff * diff + aa * _iv_power(xs[j] ** 2 + xs[k] ** 2, tt)
                    value = dist if distance else 1 / (iv.pi * (1 + dist))
                    total += (1 if j == k else 2) * cs[j] * cs[k] * value
            lo, hi = mp.mpf(total.a), mp.mpf(total.b)
        if lo > 0 or hi < 0 or dps >= dps_cap:
            return lo, hi
        dps = min(2 * dps, dps_cap)


def form_float(t, a, points, coeffs):
    """Float64 quadratic form with an a-priori error bound.

    The bound (2n + 24) * u * sum|c_j c_k| K_jk covers the two length-n dot
    products (gamma_n each), a few ulps per kernel entry and the rounding
    of the decimal points to binary64.
    """
    x = np.array([float(p) for p in points])
    c = np.array([float(v) for v in coeffs])
    k = kernel_matrix(t, a, x, x)
    value = float(c @ (k @ c))
    scale = float(np.abs(c) @ (k @ np.abs(c)))
    return value, (2 * len(x) + 24) * UNIT_ROUNDOFF * scale


def certified_form(t, a, points, coeffs):
    """(lo, hi) enclosure of the kernel quadratic form: intervals for small
    configurations, float64 plus error bound for large ones."""
    if len(points) <= 16:
        lo, hi = form_enclosure(t, a, points, coeffs)
        return float(lo), float(hi)
    value, bound = form_float(t, a, points, coeffs)
    return value - bound, value + bound


# ---------------------------------------------------------------------------
# The two-point boundary.


def a_threshold(t):
    with mp.workdps(40):
        t = mp.mpf(t)
        return (2 ** (t * t - 1) + 2 ** (t * t - t)) / (2 ** (t - 1) - 1) ** (2 * t - 1)


def z_tangent(t):
    with mp.workdps(40):
        t = mp.mpf(t)
        return (2 ** (t - 1) - 1) ** 2 / 2**t


def margin(z, t, a, dps=40):
    """Sign of the 2x2 Gram determinant at the points (sqrt(z), 0)."""
    with mp.workdps(dps):
        z, t, a = mp.mpf(z), mp.mpf(t), mp.mpf(a)
        zt = z**t
        return (1 + z) ** 2 - 1 + 2 * a * zt * ((1 + z) - 2 ** (t - 1)) + (a * zt) ** 2


def violation_z(t, a):
    """The z in (0, z_tangent) where the margin-minimising weight equals a
    (requires a > a_threshold(t)); the margin is negative there."""
    h = 2.0 ** (t - 1.0) - 1.0
    hi = float(z_tangent(t))
    lo = hi * 1e-12
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if (h - mid) / mid**t > a:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def violation_window_floor(t, samples=4000):
    """Smallest weight a for which some z has a negative margin.

    For z <= z_tangent the margin, a quadratic in a, is negative between
    its roots a_-(z) < a_+(z); for larger z it has no real roots.  The
    minimum of a_-(z) over a log grid approximates the window's lower edge.
    """
    h = 2.0 ** (t - 1.0) - 1.0
    zt = float(z_tangent(t))
    best = math.inf
    for i in range(samples):
        z = zt * 10.0 ** (-8.0 * (1.0 - i / (samples - 1)))
        b = h - z
        disc = b * b - z * z - 2.0 * z
        if disc >= 0.0:
            best = min(best, (b - math.sqrt(disc)) / z**t)
    return best


# ---------------------------------------------------------------------------
# Vanishing-moment witnesses and the cleared form.


def binomial_witness(order):
    n = order + 2
    y = [Fraction(j) for j in range(n)]
    c = [Fraction((-1) ** j * math.comb(order + 1, j)) for j in range(n)]
    return y, c


def t_coefficient(t, a, y, c, dps=60):
    """-a * sum_jk c_j c_k (y_j^2 + y_k^2)^t."""
    with mp.workdps(dps):
        t = mp.mpf(t)
        total = mp.fsum(
            _mpf(cj * ck) * _mpf(yj * yj + yk * yk) ** t
            for yj, cj in zip(y, c)
            for yk, ck in zip(y, c)
            if yj * yj + yk * yk != 0
        )
        return -mp.mpf(a) * total


def cleared_form(t, a, y, c, z, dps=60):
    """f(z) = sum_jk c_j c_k prod_{(p,q) != (j,k)} (1 + A_pq z + B_pq z^t),
    evaluated directly, with the magnitude scale sum_jk |c_j c_k| prod(...)."""
    with mp.workdps(dps):
        z, t, a = mp.mpf(z), mp.mpf(t), mp.mpf(a)
        zt = z**t
        n = len(y)
        factor = {}
        for p in range(n):
            for q in range(n):
                s = _mpf(y[p] * y[p] + y[q] * y[q])
                b = a * s**t if s != 0 else mp.mpf(0)
                factor[p, q] = 1 + _mpf((y[p] - y[q]) ** 2) * z + b * zt
        value = scale = mp.mpf(0)
        for j in range(n):
            for k in range(n):
                prod = mp.mpf(1)
                for pq, f in factor.items():
                    if pq != (j, k):
                        prod *= f
                w = _mpf(c[j] * c[k])
                value += w * prod
                scale += abs(w) * prod
        return value, scale


def series_value(terms, t, z, dps=60):
    """sum over keys (i, j) of coeff * z^(i + j*t)."""
    with mp.workdps(dps):
        z, t = mp.mpf(z), mp.mpf(t)
        return mp.fsum(_mpf(co) * z ** (i + j * t) for (i, j), co in terms)


# ---------------------------------------------------------------------------
# Spectral probe.


def nystrom_eigenvalues(t, a, node_count, half_width):
    """Eigenvalues of sqrt(w_i w_j) K(x_i, x_j) on the composite rule of
    degree-16 panels (plus one remainder panel) over [-L, L]."""
    from scipy.linalg import eigvalsh
    from scipy.special import roots_legendre

    full, rem = divmod(node_count, PANEL_DEGREE)
    degrees = [PANEL_DEGREE] * full + ([rem] if rem else [])
    edges = np.linspace(-half_width, half_width, len(degrees) + 1)
    nodes, weights = [], []
    for deg, lo, hi in zip(degrees, edges[:-1], edges[1:]):
        x, w = roots_legendre(deg)
        nodes.append(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
    x, w = np.concatenate(nodes), np.concatenate(weights)
    sw = np.sqrt(w)
    m = sw[:, None] * kernel_matrix(t, a, x, x) * sw[None, :]
    return eigvalsh(0.5 * (m + m.T))


# ---------------------------------------------------------------------------
# Fractional powers.


def l1_bound(w, s):
    """C(s) |w|^s with C(s) = e / min(sigma, 1 - sigma) + 1/s."""
    sigma = s - math.floor(s)
    return (math.e / min(sigma, 1.0 - sigma) + 1.0 / s) * abs(w) ** s


def power(w, s, dps=30):
    with mp.workdps(dps):
        return complex(mp.mpc(w) ** mp.mpf(s))
