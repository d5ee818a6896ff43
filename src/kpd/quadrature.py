"""Gauss-Legendre quadrature helpers shared by the numerical modules.

Plain composite rules for building discretization schemes, as numpy
arrays, plus a small adaptive integrator that works for complex-valued
integrands (real and imaginary parts share the same nodes).  The
integrator's panels run on Python floats: each integrand is called with a
float node, and the weighted terms are added left to right, not with
``sum()``, so that every Python version rounds them alike.
"""

import functools

import numpy as np

from .errors import ToleranceError

# Nodes per Gauss-Legendre panel (composite rules, adaptive steps); bisections per adaptive panel.
PANEL_DEGREE, MAX_DEPTH = 16, 40


@functools.cache
def unit_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached by degree."""
    if degree < 1:
        raise ValueError(f"rule degree must be >= 1, got {degree}")
    return np.polynomial.legendre.leggauss(degree)


def mapped_rule(a: float, b: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped affinely onto [a, b]."""
    x, w = unit_rule(degree)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def composite_rule(a: float, b: float, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with exactly ``node_count`` nodes.

    Full panels of ``PANEL_DEGREE`` nodes plus one smaller remainder panel
    partition [a, b] into equal-width pieces.  Nodes are strictly
    increasing and interior; weights are positive and sum to b - a.

    The panel edges from ``linspace`` are mirror-symmetric only to a few
    ulps.  On a symmetric interval (a == -b) whose panels all have one
    degree, the rule is symmetrized as ``leggauss`` does on [-1, 1], so
    that x == -x[::-1] and w == w[::-1] exactly.  A layout with a
    remainder panel is not symmetric and is returned as built.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    full, rem = divmod(node_count, PANEL_DEGREE)
    degrees = [PANEL_DEGREE] * full + ([rem] if rem else [])
    edges = np.linspace(a, b, len(degrees) + 1)
    nodes, weights = [], []
    for deg, lo, hi in zip(degrees, edges[:-1], edges[1:]):
        x, w = mapped_rule(lo, hi, deg)
        nodes.append(x)
        weights.append(w)
    x, w = np.concatenate(nodes), np.concatenate(weights)
    if a == -b and len(set(degrees)) == 1:
        x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    return x, w


def fixed_quad(f, a: float, b: float):
    """One-panel Gauss-Legendre integral of a scalar callable, called with
    Python floats.  A plain loop adds the terms left to right: from Python
    3.12, ``sum()`` of floats is compensated and would round differently."""
    x, w = mapped_rule(a, b, PANEL_DEGREE)
    total = 0.0
    for xi, wi in zip(x.tolist(), w.tolist()):
        total += wi * f(xi)
    return total


def adaptive_quad(f, a: float, b: float, tol: float):
    """Adaptive bisection Gauss-Legendre integration to absolute tolerance.

    Works for complex integrands; the error indicator is the modulus of
    the difference between one- and two-panel estimates.  Each panel is
    integrated once: a half's estimate is handed to the step that bisects
    it.  A panel's budget goes to its halves in proportion to max(1/2, the
    half's share of |left| + |right|): rounding in the indicator grows with
    the integrand's mass, not the panel's width, so where the mass gathers
    (the fracpow ray near 0 at large s) so does the budget, and no half gets
    less than a third, so a kink in a light part still converges.  Raises
    :class:`ToleranceError` after ``MAX_DEPTH`` bisections.
    """

    def recurse(lo, hi, whole, budget, depth):
        mid = 0.5 * (lo + hi)
        left, right = fixed_quad(f, lo, mid), fixed_quad(f, mid, hi)
        halves = left + right
        err = abs(halves - whole)
        if err <= budget:
            return halves
        if depth >= MAX_DEPTH:
            raise ToleranceError(
                f"adaptive quadrature stalled on [{lo}, {hi}]: "
                f"error estimate {err:.3e} > budget {budget:.3e}"
            )
        mass = abs(left) + abs(right)
        wl, wr = (max(0.5, abs(left) / mass), max(0.5, abs(right) / mass)) if mass else (0.5, 0.5)
        share = budget * wl / (wl + wr)
        return (recurse(lo, mid, left, share, depth + 1)
                + recurse(mid, hi, right, budget - share, depth + 1))

    a, b = float(a), float(b)
    return recurse(a, b, fixed_quad(f, a, b), float(tol), 0)
