import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import kpd.fracpow
import kpd.quadrature
from kpd.errors import DomainError, ToleranceError
from kpd.fracpow import (
    DERIVATIVE_STEP,
    INTEGER_GAP,
    FracPowerParams,
    _taylor_remainder,
    integral_power,
    integrand_l1_norm,
    l1_bound_constant,
    split_power,
    validate_representation,
)
from kpd.quadrature import (
    PANEL_DEGREE,
    adaptive_quad,
    composite_rule,
    fixed_quad,
    mapped_rule,
    unit_rule,
)

GRID_S = (0.5, 1.5, 2.5, 3.7)
GRID_W = (0.1, 1.0, 4.0, 10.0, 1.0 + 1.0j)
# L1 norms at w = 1, from a 30-digit mpmath quadrature of the same integral
L1_REFERENCE = {0.99: 100.436954666, 4.95: 0.182215504272, 5.9: 0.0170150749698}


def numpy_scalar_fixed_quad(f, a, b):
    """fixed_quad on numpy scalars, the reference for the float panels: the
    integrand gets numpy float64 nodes, and ``sum()`` adds the products of
    numpy weights from 0."""
    x, w = mapped_rule(a, b, PANEL_DEGREE)
    return sum(wi * f(xi) for xi, wi in zip(x, w))


class TestSplitPower:
    def test_basic_splits(self):
        p = split_power(0.5)
        assert (p.int_part, p.frac_part) == (0, 0.5)
        p = split_power(3.7)
        assert p.int_part == 3
        assert p.frac_part == pytest.approx(0.7, rel=1e-12)

    def test_prefactor_value(self):
        # (0.5)_2 / Gamma(0.5) = 0.75 / sqrt(pi)
        p = split_power(1.5)
        assert p.prefactor == pytest.approx(0.75 / math.sqrt(math.pi), rel=1e-13)
        assert p.prefactor == pytest.approx(0.4231421876608172, rel=1e-12)

    def test_prefactor_matches_rising_factorial_route(self):
        for s in (0.3, 1.25, 2.75, 5.5, 9.1):
            p = split_power(s)
            # the rising factorial (sigma)_{S+1} = sigma (sigma+1) ... (sigma+S)
            rising = math.prod(p.frac_part + k for k in range(p.int_part + 1))
            direct = rising / math.gamma(1.0 - p.frac_part)
            assert p.prefactor == pytest.approx(direct, rel=1e-12)

    def test_prefactor_positive_across_grid(self):
        for k in range(10):
            for frac in (0.1, 0.5, 0.9):
                assert split_power(k + frac).prefactor > 0

    def test_integer_rejected(self):
        for bad in (3.0, 1, 2.0 + 1e-12):
            with pytest.raises(DomainError):
                split_power(bad)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            split_power(-0.5)
        with pytest.raises(DomainError):
            split_power(31.5)


class TestFracPowerParams:
    @pytest.mark.parametrize("frac_part, prefactor", [(0.0, 1.0), (1.0, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_invalid_fields_rejected(self, frac_part, prefactor):
        with pytest.raises(DomainError):
            FracPowerParams(0.5, 0, frac_part, prefactor)


class TestIntegralPower:
    def test_unit_argument(self):
        assert integral_power(1.0, split_power(0.5), tol=1e-8) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_square_root_of_four(self):
        assert integral_power(4.0, split_power(0.5), tol=1e-8) == pytest.approx(
            2.0, abs=2e-8
        )

    def test_complex_principal_branch(self):
        got = integral_power(1.0 + 1.0j, split_power(1.5), tol=1e-10)
        want = (1.0 + 1.0j) ** 1.5
        assert abs(got - want) <= 1e-9 * abs(want)
        # the polar form of the oracle
        assert want == pytest.approx(
            2.0**0.75 * cmath.exp(1j * 3.0 * math.pi / 8.0), rel=1e-15
        )

    def test_zero_returns_zero(self):
        assert integral_power(0.0, split_power(2.5)) == 0.0

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            integral_power(-1.0, split_power(0.5))

    @pytest.mark.parametrize("s", GRID_S)
    def test_homogeneity(self, s):
        p = split_power(s)
        h1 = integral_power(1.7, p, tol=1e-10)
        for c in (2.0, 5.0, 0.25):
            hc = integral_power(c * 1.7, p, tol=1e-10)
            assert abs(hc - c**s * h1) <= 1e-8 * abs(hc)

    def test_near_imaginary_axis(self):
        for (w, s) in ((0.1 + 1.0j, 1.5), (0.02 + 1.0j, 2.5)):
            got = integral_power(w, split_power(s), tol=1e-8)
            want = w**s
            assert abs(got - want) <= 1e-8 * abs(want)

    def test_too_close_to_imaginary_axis_raises(self):
        # the tail cutoff would pass MAX_CUTOFF: a diagnostic, not a hang
        with pytest.raises(ToleranceError, match="too close to the imaginary axis"):
            integral_power(1e-12 + 1j, split_power(0.5), tol=1e-8)

    def test_pure_imaginary_rejected(self):
        with pytest.raises(DomainError):
            integral_power(1.0j, split_power(0.5))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(DomainError):
            integral_power(1.0, split_power(0.5), tol=tol)

    def test_small_real_limit(self):
        # |h| <= B(s) C(s) |w|^s forces h -> 0 along the positive reals
        p = split_power(2.5)
        got = integral_power(1e-4, p, tol=1e-8)
        assert abs(got - (1e-4) ** 2.5) <= 1e-8 * (1e-4) ** 2.5
        assert abs(got) <= p.prefactor * l1_bound_constant(p) * (1e-4) ** 2.5


class TestL1Bound:
    def test_constant_values(self):
        assert l1_bound_constant(split_power(0.5)) == pytest.approx(
            2.0 * math.e + 2.0, rel=1e-13
        )
        assert l1_bound_constant(split_power(1.5)) == pytest.approx(
            2.0 * math.e + 2.0 / 3.0, rel=1e-13
        )

    def test_norm_respects_bound_spot(self):
        p = split_power(1.5)
        norm = integrand_l1_norm(3.0, p)
        assert 0 < norm <= l1_bound_constant(p) * 3.0**1.5

    # sigma near 1, and the imaginary axis, where the outer range has no decay
    @pytest.mark.parametrize("s", GRID_S + (0.99, 4.95, 5.9, 0.999999))
    @pytest.mark.parametrize("w", GRID_W + (1j, 1e-12 + 1j))
    def test_norm_respects_bound_grid(self, s, w):
        p = split_power(s)
        norm = integrand_l1_norm(w, p)
        assert math.isfinite(norm)
        assert norm <= l1_bound_constant(p) * abs(w) ** s

    @pytest.mark.parametrize("s", sorted(L1_REFERENCE))
    def test_norm_is_above_reference(self, s):
        norm, want = integrand_l1_norm(1.0, split_power(s)), L1_REFERENCE[s]
        assert norm >= want
        if s == 0.99:  # S = 0 at real w: the closed-form tail is tight
            assert norm <= want * (1 + 1e-6)

    @given(
        st.floats(min_value=0.05, max_value=12.0),
        st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_norm_respects_bound_property(self, s, arg, modulus):
        assume(abs(s - round(s)) > INTEGER_GAP)
        p, w = split_power(s), cmath.rect(modulus, arg)
        norm = integrand_l1_norm(w, p)
        assert math.isfinite(norm)
        assert 0 < norm <= l1_bound_constant(p) * modulus**s

    def test_zero_w(self):
        assert integrand_l1_norm(0.0, split_power(0.5)) == 0.0

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            integrand_l1_norm(-1.0 + 1.0j, split_power(0.5))


class TestCancellationGuard:
    @pytest.mark.parametrize("s", GRID_S)
    @pytest.mark.parametrize("omega", (1.0, cmath.exp(1j * math.pi / 4)))
    def test_remainder_series_matches_naive(self, s, omega):
        # overlap region where both evaluations are stable
        p = split_power(s)
        S = p.int_part
        for mu in (0.5, 0.7, 0.9, 1.0):
            z = mu * omega
            series = _taylor_remainder(z, S)  # the remainder over z^(S+1)
            naive = sum((-z) ** l / math.factorial(l) for l in range(S + 1)) - cmath.exp(-z)
            naive = -naive / z ** (S + 1)  # remainder = exp expansion tail = -(partial - exp)
            assert abs(series - naive) <= 1e-10 * max(abs(series), 1e-12)


class TestValidation:
    def test_default_grid_passes(self):
        pairs = [(w, s) for s in GRID_S for w in GRID_W]
        report = validate_representation(pairs, tol=1e-6)
        assert report.passed, report.failures
        assert len(report.entries) == len(pairs)
        for e in report.entries:
            assert e["rel_err"] <= 1e-6

    def test_derivative_relation(self):
        report = validate_representation([(2.0, 1.5)], tol=1e-6)
        e = report.entries[0]
        assert e["derivative_rel_err"] <= 1e-4

    def test_passed_reflects_failures(self):
        report = validate_representation([(4.0, 0.5)], tol=1e-6)
        assert report.passed == (len(report.failures) == 0)
        assert report.passed

    @pytest.mark.parametrize(
        "part, reasons",
        [
            ("_l1_total", ["l1 bound violated"]),
            ("_power_bracket", ["rel err nan > tol 1.0e-06", "derivative check failed"]),
        ],
    )
    def test_nan_fails(self, monkeypatch, part, reasons):
        monkeypatch.setattr(kpd.fracpow, part, lambda om, p, tol: math.nan)
        report = validate_representation([(1.0, 5.9)], tol=1e-6)
        assert not report.passed
        assert [msg for _, _, msg in report.failures] == reasons

    def test_entries_equal_pointwise_values(self):
        # the scale-free part is shared between points of one direction, but
        # every value is bit for bit the one the public functions return
        tol = 1e-6
        pairs = [(w, s) for s in GRID_S for w in GRID_W]
        report = validate_representation(pairs, tol=tol)
        for (w, s), e in zip(pairs, report.entries):
            p, q = split_power(s), split_power(s + 1.0)
            h = integral_power(w, p, tol=tol / 10.0)
            assert repr(e["h"]) == repr(h)
            hq1 = integral_power(w + DERIVATIVE_STEP, q, tol=tol / 10.0)
            hq0 = integral_power(w, q, tol=tol / 10.0)
            deriv = (hq1 - hq0) / DERIVATIVE_STEP
            assert e["derivative_rel_err"] == abs(deriv - (s + 1.0) * h) / abs((s + 1.0) * h)
            assert e["l1_norm_upper"] == integrand_l1_norm(w, p)

    def test_no_state_between_calls(self, monkeypatch):
        # count integrand evaluations: the quadrature's and the L1 norm's
        # Taylor remainders
        count = [0]

        def counted(f):
            def g(*args):
                count[0] += 1
                return f(*args)

            return g

        quad = kpd.fracpow.adaptive_quad
        remainder = kpd.fracpow._taylor_remainder
        monkeypatch.setattr(kpd.fracpow, "adaptive_quad", lambda f, *a: quad(counted(f), *a))
        monkeypatch.setattr(kpd.fracpow, "_taylor_remainder", counted(remainder))
        pairs = [(w, s) for s in GRID_S for w in GRID_W]
        runs = []
        for _ in range(2):
            count[0] = 0
            report = validate_representation(pairs, tol=1e-6)
            runs.append((count[0], repr(report.entries)))
        assert runs[0] == runs[1]
        # the real w share direction 1, so four of them cost what one does
        real = [(w, 1.5) for w in GRID_W if w.imag == 0]
        costs = []
        for grid in (real, real[:1]):
            count[0] = 0
            validate_representation(grid, tol=1e-6)
            costs.append(count[0])
        assert len(real) == 4 and costs[0] == costs[1] > 0

    @pytest.mark.parametrize("part", ["_power_bracket", "_l1_total"])
    def test_scale_free_part_once_per_key_and_call(self, monkeypatch, part):
        calls = []
        original = getattr(kpd.fracpow, part)

        def recorded(om, p, tol):
            calls.append((om, p.s, tol))
            return original(om, p, tol)

        monkeypatch.setattr(kpd.fracpow, part, recorded)
        pairs = [(w, s) for s in (0.5, 1.5) for w in (1.0, 4.0, 1.0 + 1.0j)]
        runs = []
        for _ in range(2):
            calls.clear()
            validate_representation(pairs, tol=1e-6)
            runs.append(list(calls))
        assert runs[0] == runs[1]
        assert len(set(runs[0])) == len(runs[0])
        # real w and their shifts share direction 1; 1 + 1j and its shift
        # have one each.  The bracket is needed at s and s + 1 (the shift at
        # s + 1 only), the L1 total at s: s = 0.5 and 1.5 share s + 1 = 1.5.
        want = {"_power_bracket": 8, "_l1_total": 4}[part]
        assert len(runs[0]) == want


class TestAdaptiveQuadrature:
    def test_smooth_integral(self):
        got = adaptive_quad(math.sin, 0.0, math.pi, tol=1e-12)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_complex_integrand_shares_nodes(self):
        got = adaptive_quad(lambda x: cmath.exp(1j * x), 0.0, math.pi, tol=1e-12)
        assert got.real == pytest.approx(0.0, abs=1e-12)
        assert got.imag == pytest.approx(2.0, rel=1e-12)

    def test_each_panel_integrated_once(self, monkeypatch):
        panels = []

        def recorded(f, a, b):
            panels.append((a, b))
            return fixed_quad(f, a, b)

        monkeypatch.setattr(kpd.quadrature, "fixed_quad", recorded)
        f = lambda x: 1.0 / (1.0 + 100.0 * x * x)
        got = adaptive_quad(f, 0.0, 1.0, tol=1e-12)
        assert min(b - a for a, b in panels) <= 0.25  # two bisection levels or more
        assert len(panels) == len(set(panels))
        # the same value as a recursion that integrates each panel again
        # as the next step's whole
        def reintegrating(lo, hi, budget):
            mid = 0.5 * (lo + hi)
            halves = fixed_quad(f, lo, mid) + fixed_quad(f, mid, hi)
            if abs(halves - fixed_quad(f, lo, hi)) <= budget:
                return halves
            return reintegrating(lo, mid, budget / 2) + reintegrating(mid, hi, budget / 2)

        assert got == reintegrating(0.0, 1.0, 1e-12)
        assert got == pytest.approx(math.atan(10.0) / 10.0, rel=1e-12)

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            unit_rule(0)
        with pytest.raises(ValueError):
            composite_rule(0.0, 1.0, 0)

    def test_depth_exhaustion_raises(self):
        spike = lambda x: 1.0 / math.sqrt(abs(x - 0.123456789) + 1e-300)
        with pytest.raises(ToleranceError):
            adaptive_quad(spike, 0.0, 1.0, tol=1e-14, max_depth=3)


class TestFloatPanels:
    def test_integrand_gets_python_floats(self):
        seen = []
        got = fixed_quad(lambda x: seen.append(type(x)) or cmath.exp(1j * x), 0.0, 1.0)
        assert seen == [float] * PANEL_DEGREE
        assert type(got) is complex

    def test_terms_are_added_left_to_right(self):
        # 1e16 and -1e16 at the ends and 1 between: a plain loop rounds each
        # small term into the large partial sum, a compensated sum does not
        x, w = mapped_rule(-1.0, 1.0, PANEL_DEGREE)
        values = dict(zip(x.tolist(), [1e16] + [1.0] * (PANEL_DEGREE - 2) + [-1e16]))
        terms = [wi * values[xi] for xi, wi in zip(x.tolist(), w.tolist())]
        total = 0.0
        for term in terms:
            total += term
        got = fixed_quad(values.__getitem__, -1.0, 1.0)
        assert got == total
        assert got != math.fsum(terms)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_validation_matches_the_numpy_scalar_path(self, monkeypatch, tol):
        # the same floats, bit for bit; derivative_rel_err is left out: it
        # divided a numpy complex by multiplying with the step's reciprocal
        pairs = [(w, s) for s in GRID_S for w in GRID_W]
        entries = validate_representation(pairs, tol=tol).entries
        monkeypatch.setattr(kpd.quadrature, "fixed_quad", numpy_scalar_fixed_quad)
        reference = validate_representation(pairs, tol=tol).entries
        for e, ref in zip(entries, reference):
            assert type(e["h"]) is complex and repr(e["h"]) == repr(complex(ref["h"]))
            for key in ("rel_err", "l1_norm_upper"):
                assert float(e[key]).hex() == float(ref[key]).hex(), (e["w"], e["s"], key)
