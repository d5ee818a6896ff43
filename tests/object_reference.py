"""Earlier evaluations in kpd.kernel and kpd.witness, kept as the
references that the current ones must match bit for bit, or enclose.

The mpmath rungs as numpy object arrays of mpfs, as those modules ran
them before their mpmath rungs moved to libmp values and then to fixed
point: the full n x n grid of entries, ``c @ M @ c`` by numpy's object
matmul, and the form_enclosure bound from the arrays.  Every operation is
an mpf operation at the working precision; at 53 bits it is the binary64
rung's loop, and at any precision its enclosure must meet the fixed-point
rung's.

The witness series as a dict keyed by (i, j), as kpd.witness expanded it
before it moved to dense integer tables, and the cleared form evaluated
directly at one z.

The two-point margin in float literals, as kpd.boundary evaluated floats
and arrays before one integer-literal formula also served Fractions.
"""

import itertools
import math
from fractions import Fraction
from numbers import Rational

import mpmath as mp
import numpy as np
from mpmath import libmp

import kpd.kernel
from kpd.errors import DomainError
from kpd.kernel import POW_ULPS, PointConfig, _gamma
from kpd.witness import SERIES_DPS, ExponentKey, _clear, _scaled, _weights


def _as_mpf(value) -> mp.mpf:
    """A value as an mpf at the working precision: a rational rounded once,
    a float or an mpf exactly."""
    if isinstance(value, Rational):
        num, den = value.numerator, value.denominator
        return mp.make_mpf(libmp.from_rational(num, den, mp.mp.prec, libmp.round_nearest))
    return value if isinstance(value, mp.mpf) else mp.mpf(value)


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


def _times(poly: dict, A: int, B: int) -> dict:
    """poly * (1 + A z + B z^t), poly keyed by (i, j) for z^(i + j*t)."""
    out = dict(poly)
    for (i, j), co in poly.items():
        if A:
            out[i + 1, j] = out.get((i + 1, j), 0) + co * A
        if B:
            out[i, j + 1] = out.get((i, j + 1), 0) + co * B
    return out


def keyed_series(params, w) -> dict:
    """The terms of :func:`kpd.witness.cleared_form_series`, from the same
    integers accumulated in dicts keyed by (i, j)."""
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    e0, b = _weights(params, Y, L)
    P: dict = {(0, 0): 1}
    D: dict = {}
    for (yp, cp), (yq, cq) in itertools.product(zip(Y, c), repeat=2):
        g = (yp - yq) ** 2, b[yp * yp + yq * yq]
        D = _times(D, *g)
        weight = cp * cq
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
    return terms


def cleared_form_value(params, w, z, dps: int):
    """f(z) = pi Q prod_pq (1 + D_pq) in mpmath at ``dps`` digits, with Q
    the :func:`kpd.kernel.form_enclosure` value and D the distance matrix
    of the points y_j sqrt(z) and coefficients c_j; no expansion.  At small
    z the form cancels heavily (see :func:`kpd.witness.find_negative_scale`)."""
    if not (float(z) > 0):
        raise DomainError(f"z must be > 0, got {z!r}")
    if not isinstance(dps, int) or dps < 1:
        raise DomainError(f"dps must be an integer >= 1, got {dps!r}")
    with mp.workdps(dps):
        root = mp.sqrt(_as_mpf(z))
        config = PointConfig(tuple(_as_mpf(yj) * root for yj in w.y), w.c)
    q, _, rows = kpd.kernel._fixed_point(params, config, libmp.dps_to_prec(dps), False)
    return _clear(config, q, dps, rows)


def margin(z, t: float, a: float):
    """The two-point margin of :mod:`kpd.boundary` for a float or a numpy
    array z >= 0."""
    azt = a * z**t
    return (1.0 + z) ** 2 - 1.0 + 2.0 * azt * ((1.0 + z) - 2.0 ** (t - 1.0)) + azt**2
