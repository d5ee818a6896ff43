"""The mpmath rungs as numpy object arrays of mpfs: the reference that the
libmp evaluation in kpd.kernel and kpd.witness must match bit for bit.

This is the evaluation those modules ran before their mpmath rungs moved
to libmp values: the full n x n grid of entries, ``c @ M @ c`` by numpy's
object matmul, and the form_enclosure bound from the arrays.  Every
operation is an mpf operation at the working precision.
"""

import math

import mpmath as mp
import numpy as np

from kpd.kernel import POW_ULPS, _as_mpf, _gamma


def mpf_array(values) -> np.ndarray:
    """The values as an object array of mpfs at the working precision."""
    return np.array([_as_mpf(v) for v in values], dtype=object)


def distance_matrix(params, x, y) -> np.ndarray:
    """d(x_i, y_j) for object arrays of mpfs, as the binary64 function
    orders its operations."""
    x, y = x[..., :, None], y[..., None, :]
    diff, xx, yy = x - y, x * x, y * y
    d = np.power(xx + yy, params.t)
    d *= params.a
    d += diff * diff
    return d


def kernel_matrix(params, x, y) -> np.ndarray:
    # the array goes left: mpf * ndarray would first try to convert the
    # whole array through its repr
    return 1 / ((1 + distance_matrix(params, x, y)) * (+mp.pi))


def form_enclosure(params, config, dps: int, distance: bool = False) -> tuple:
    """(value, bound) of :func:`kpd.kernel.form_enclosure` at ``dps``
    digits, from the full grid of object arrays."""
    with mp.workdps(dps):
        x, c = mpf_array(config.points), mpf_array(config.coeffs)
        m = (distance_matrix if distance else kernel_matrix)(params, x, x)
        u = mp.ldexp(1, 1 - mp.mp.prec)
        n = len(c)
        value = c @ m @ c
        k = 6 * math.ceil(params.t) + 2 * POW_ULPS + 2
        if max(k, 2 * n + 16) >= 1 / (4 * u):
            return value, math.inf
        e = 2 * np.abs(x).max() * _gamma(2, u)
        g = _gamma(k, u)
        ac = np.abs(c)
        if distance:
            rel = g / (1 - g)
            absolute = e * (2 * (x.max() - x.min()) + e) * (1 + 2 * g) * ac.sum() ** 2
        else:
            phi = g + (1 + g) * e * (1 + e)
            if not 2 * phi + _gamma(4, u) < 0.5:
                return value, math.inf
            kappa = (_gamma(4, u) + phi) / (1 - phi)
            rel, absolute = kappa / (1 - kappa), 0
        scale = ac @ np.abs(m) @ ac
        bound = _gamma(2 * n + 8, u) * scale + (rel * scale + absolute) / (1 - _gamma(4, u))
        return value, bound / (1 - _gamma(2 * n + 16, u))


def cleared_form(params, config, q, dps: int):
    """pi q prod_pq (1 + D_pq) over the full grid, as kpd.witness._clear."""
    with mp.workdps(dps):
        x = mpf_array(config.points)
        return mp.pi * q * math.prod((1 + distance_matrix(params, x, x)).flat)
