import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpd.boundary
import object_reference
from kpd.boundary import (
    SCAN_POINTS,
    _margin,
    boundary_report,
    critical_weight,
    find_schwarz_violation,
    schwarz_margin,
    schwarz_margin_exact,
    tangency_z,
    threshold_weight,
)
from kpd.definiteness import pd_check
from kpd.errors import DomainError
from kpd.kernel import KernelParams, quadratic_form, resolve_form_sign


class TestMargin:
    def test_zero_at_origin(self):
        for t in (1.5, 2.0, 3.0, 7.0):
            for a in (0.5, 1.0, 12.0):
                assert schwarz_margin(0.0, t, a) == 0.0

    def test_tangency_value_is_exactly_zero(self):
        # all quantities are exact dyadics at t=2, a=12, z=1/4
        assert schwarz_margin(0.25, 2.0, 12.0) == 0.0

    def test_known_negative_value(self):
        assert schwarz_margin(0.2, 2.0, 13.0) == pytest.approx(-0.1216, abs=1e-12)

    def test_exact_rational_value(self):
        got = schwarz_margin_exact(Fraction(1, 5), 2, Fraction(13))
        assert got == Fraction(-76, 625)

    def test_exact_rational_tangency(self):
        assert schwarz_margin_exact(Fraction(1, 4), 2, Fraction(12)) == 0

    @pytest.mark.parametrize(
        "z, a, want",
        [
            (Fraction(1, 5), 13, Fraction(-76, 625)),
            (Fraction(1, 4), 12, 0),
            (Fraction(1, 5), 12, Fraction(-61, 625)),
        ],
    )
    def test_formula_is_exact_on_fractions(self, z, a, want):
        got = _margin(z, 2, Fraction(a))
        assert type(got) is Fraction and got == want

    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=1.0, max_value=12.0, exclude_min=True),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_formula_matches_float_reference_bitwise(self, z, t, a):
        assert _margin(z, t, a).hex() == object_reference.margin(z, t, a).hex()

    @pytest.mark.parametrize(
        "t, a", [(1.3, 1e300), (2.0, 8.0), (2.0, 13.0), (2.5, 3.0), (3.0, 1e308), (25.0, 1e300)]
    )
    def test_formula_matches_float_reference_on_scan(self, t, a):
        z0 = tangency_z(t)
        zs = np.exp(np.linspace(math.log(z0 * 1e-12), math.log(z0), SCAN_POINTS))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _margin(zs, t, a), object_reference.margin(zs, t, a)
        assert got.tobytes() == want.tobytes()

    def test_exact_requires_integer_t(self):
        with pytest.raises(DomainError):
            schwarz_margin_exact(Fraction(1, 5), 1.5, Fraction(13))

    def test_small_t_guard_and_override(self):
        with pytest.raises(DomainError):
            schwarz_margin(0.1, 1.0, 1.0)

    @pytest.mark.parametrize("z, t", [(0.1, math.nan), (0.1, math.inf), (-0.1, 2.0), (math.inf, 2.0)])
    def test_invalid_inputs_rejected(self, z, t):
        with pytest.raises(DomainError):
            schwarz_margin(z, t, 1.0)


class TestCriticalWeight:
    def test_value_at_tangency(self):
        assert critical_weight(0.25, 2.0) == 12.0

    def test_hand_value(self):
        assert critical_weight(0.5, 2.0) == 2.0

    def test_domain_error_outside_range(self):
        with pytest.raises(DomainError):
            critical_weight(1.0, 2.0)  # 2^(t-1)-1 = 1
        with pytest.raises(DomainError):
            critical_weight(0.0, 2.0)

    def test_underflowing_power_is_infinite(self):
        # 1e-15^25 underflows to 0 in binary64: the weight diverges there
        assert critical_weight(1e-15, 25.0) == math.inf

    @pytest.mark.parametrize("t", [1.5, 2.0, 3.0])
    def test_strictly_decreasing_on_branch(self, t):
        z0 = tangency_z(t)
        zs = np.linspace(z0 * 1e-6, z0 * 0.999999, 400)
        vals = [critical_weight(z, t) for z in zs]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("t", [1.5, 2.0, 2.5, 3.0, 6.0])
    def test_minimized_margin_identity(self, t):
        # margin(z, t, critical_weight(z)) == 2^t z - (2^(t-1)-1)^2
        hi = 2.0 ** (t - 1.0) - 1.0
        for z in np.linspace(hi * 1e-4, hi * 0.999, 57):
            a = critical_weight(z, t)
            lhs = schwarz_margin(z, t, a)
            rhs = 2.0**t * z - (2.0 ** (t - 1.0) - 1.0) ** 2
            scale = (1.0 + z) ** 2 + 1.0 + 2.0 * a * z**t * abs(1.0 + z - 2.0 ** (t - 1.0)) + (a * z**t) ** 2
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestBoundaryReport:
    def test_t2_closed_forms(self):
        rep = boundary_report(2.0)
        assert rep.a_threshold == pytest.approx(12.0, rel=1e-12)
        assert rep.z_tangent == pytest.approx(0.25, rel=1e-12)

    def test_threshold_values(self):
        # frozen from 40-digit evaluation of the closed form
        assert threshold_weight(1.5) == pytest.approx(23.664620963579203, rel=1e-12)
        assert threshold_weight(3.0) == pytest.approx(1.316872427983539, rel=1e-12)
        assert threshold_weight(5.0) == pytest.approx(4.6368975786211452e-4, rel=1e-12)
        assert threshold_weight(7.5) == pytest.approx(2.0440900337836374e-11, rel=1e-12)

    def test_t5_threshold_is_exact_ratio(self):
        # (2^24 + 2^20) / 15^9, a rational number representable head-on
        assert threshold_weight(5.0) == pytest.approx(
            Fraction(2**24 + 2**20, 15**9), rel=1e-15
        )

    def test_threshold_is_exact_at_t2_and_accurate_to_the_cap(self):
        # one formula on all of (1, T_CAP]: 2303 values of t against the
        # closed form in 50-digit mpmath
        assert threshold_weight(2.0) == 12.0
        worst = 0.0
        with mp.workdps(50):
            for k in range(1, 2304):
                t = 1 + 29 * k / 2303
                tt = mp.mpf(t)
                want = (2 ** (tt * tt - 1) + 2 ** (tt * tt - tt)) / (2 ** (tt - 1) - 1) ** (2 * tt - 1)
                worst = max(worst, abs(threshold_weight(t) - want) / want)
        assert worst < 1e-13

    @pytest.mark.parametrize("t", [1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0])
    def test_cross_check_identity(self, t):
        rep = boundary_report(t)
        assert rep.a_threshold == pytest.approx(
            critical_weight(rep.z_tangent, t), rel=1e-12
        )

    def test_divergence_toward_t_one(self):
        # the threshold blows up like 2/((t-1) ln 2); frozen 40-digit value
        assert threshold_weight(1.01) == pytest.approx(320.92241137222223, rel=1e-8)
        assert threshold_weight(1.0 + 1e-6) > 1e6

    def test_cap_guard(self):
        with pytest.raises(DomainError):
            boundary_report(31.0)

    def test_requires_t_above_one(self):
        with pytest.raises(DomainError):
            boundary_report(1.0)

    def test_failed_cross_check_raises(self, monkeypatch):
        monkeypatch.setattr(kpd.boundary, "threshold_weight", lambda t: 13.0)
        with pytest.raises(DomainError, match="cross-check failed"):
            boundary_report(2.0)


class TestViolationSearch:
    def test_t2_a13_matches_quadratic_root(self):
        res = find_schwarz_violation(2.0, 13.0)
        assert res.found
        # critical_weight(z) = 13 means 13 z^2 + z - 1 = 0
        z_expected = (-1.0 + math.sqrt(53.0)) / 26.0
        assert res.z == pytest.approx(z_expected, abs=1e-10)
        assert res.g_value < 0
        assert res.min_eigenvalue < 0

    def test_certificate_replays_negative(self):
        res = find_schwarz_violation(2.0, 13.0)
        params = KernelParams(2.0, 13.0)
        assert quadratic_form(params, res.certificate.config) < 0
        assert pd_check(params, res.certificate.config.points, 1e-12).verdict == "FAIL"

    def test_below_slice_boundary_not_found(self):
        # for t=2 the margin is nonnegative on the whole slice for a <= ~8.8
        res = find_schwarz_violation(2.0, 8.0)
        assert not res.found
        assert res.scan_min_g is not None and res.scan_min_g >= 0

    def test_window_below_threshold_is_detected(self):
        # the margin window at t=2 reaches below the closed-form threshold:
        # margin(0.2; 2, 12) = -0.0976 < 0, a genuine violation at a = 12
        res = find_schwarz_violation(2.0, 12.0)
        assert res.found
        assert res.g_value < 0
        assert quadratic_form(KernelParams(2.0, 12.0), res.certificate.config) < 0

    @pytest.mark.parametrize("t,a", [(2.0, 13.0), (2.5, 3.0)])
    def test_vectorized_scan_matches_scalar_margins(self, t, a):
        res = find_schwarz_violation(t, a)
        z0 = tangency_z(t)
        zs = np.exp(np.linspace(math.log(z0 * 1e-12), math.log(z0), kpd.boundary.SCAN_POINTS))
        gs = [schwarz_margin(float(z), t, a) for z in zs]
        k = int(np.argmin(gs))
        assert res.scan_min_g == pytest.approx(gs[k], rel=1e-12)
        assert res.scan_argmin_z == pytest.approx(zs[k], rel=1e-12)

    def test_huge_weight_still_found(self):
        res = find_schwarz_violation(2.0, 1e8)
        assert res.found
        assert res.g_value < 0

    @pytest.mark.parametrize("t,a", [(25.0, 1e300), (2.0, 1e300), (3.0, 1e308), (1.3, 1e300)])
    def test_extreme_weight_found(self, t, a):
        # the roots lie far below the scan (near 1e-150 at t = 2); at t = 25
        # z^t underflows while the bracket widens, and the scan's terms overflow
        res = find_schwarz_violation(t, a)
        assert res.found
        assert res.g_value < 0
        value, _, _ = resolve_form_sign(KernelParams(t, a), res.certificate.config)
        assert value < 0

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            find_schwarz_violation(1.0, 5.0)
        with pytest.raises(DomainError):
            find_schwarz_violation(2.0, 0.0)
