import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import libmp

from kpd.definiteness import cnd_check, pd_check
from kpd.errors import DomainError, PreconditionError
from kpd.kernel import KernelParams, PointConfig, _arith, _matrix, distance_form, kernel_matrix
from kpd.kernel import quadratic_form

INV_PI = 1.0 / math.pi


TWO_POINTS = (math.sqrt(0.2), 0.0)


class TestPdCheck:
    def test_single_entry_passes(self):
        v = pd_check(KernelParams(1.0, 1.0), (0.0,), tolerance=1e-10)
        assert v.verdict == "PASS"
        assert v.statistic == pytest.approx(INV_PI, rel=1e-15)

    def test_small_t_grid_passes(self):
        assert pd_check(KernelParams(0.5, 1.0), (0.0, 1.0, 2.0, 3.0), 1e-10).verdict == "PASS"

    def test_two_point_failure_matches_closed_form(self):
        params = KernelParams(2.0, 13.0)
        v = pd_check(params, TWO_POINTS, tolerance=1e-12)
        assert v.verdict == "FAIL"
        # closed-form 2x2 minimum eigenvalue
        g = kernel_matrix(params, TWO_POINTS, TWO_POINTS)
        aa, dd = g[0, 0], g[1, 1]
        bb = g[0, 1]
        lam = 0.5 * ((aa + dd) - math.hypot(aa - dd, 2.0 * bb))
        assert v.statistic == pytest.approx(lam, rel=1e-12)
        assert v.certificate is not None
        assert v.certificate.config.points == TWO_POINTS

    def test_failure_certificate_replays(self):
        params = KernelParams(2.0, 13.0)
        v = pd_check(params, TWO_POINTS, 1e-12)
        q = quadratic_form(params, v.certificate.config)
        assert abs(q - v.statistic) <= 1e-12 * 2
        assert v.certificate.value == q
        assert v.certificate.value + v.certificate.error_bound < 0

    def test_boundary_flag_for_duplicated_points(self):
        v = pd_check(KernelParams(1.0, 1.0), (2.0, 2.0), tolerance=1e-10)
        assert v.verdict == "PASS"
        # a zero eigenvalue may land on either side of 0.0 at rounding level
        assert abs(v.statistic) < 1e-15
        assert v.boundary == (v.statistic < 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DomainError):
            pd_check(KernelParams(1.0, 1.0), (0.0,), tolerance=-1.0)

    @given(
        t=st.floats(0.2, 4.0),
        a=st.floats(1e-2, 1e2),
        points=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
    )
    # numpy's power and Python's ** differ in the last bit here
    @example(t=2.0026073774223874, a=1.0, points=[897090.78125])
    @settings(max_examples=60, deadline=None)
    def test_gram_is_the_loop_entries(self, t, a, points):
        # bit for bit the entries that the binary64 rung of the certificate's
        # form reads, so a gram record prints the entries its replay reads
        params = KernelParams(t, a)
        gram = pd_check(params, points, 1e-10).gram
        assert gram.tolist() == _matrix(params, [float(v) for v in points], _arith(params), False)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # at 1e-10 this Gram matrix FAILs, and this distance form is positive
        with pytest.raises(DomainError):
            pd_check(KernelParams(2.0, 13.0), TWO_POINTS, tolerance=tol)
        with pytest.raises(DomainError):
            cnd_check(KernelParams(2.0, 13.0), PointConfig((0.0, 1.0), (1.0, -1.0)), tol)


class TestCndCheck:
    def test_identical_points_cancel(self):
        v = cnd_check(
            KernelParams(0.5, 1.0),
            PointConfig((3.0, 3.0), (1.0, -1.0)),
            tolerance=1e-12,
        )
        assert v.verdict == "PASS"
        assert v.statistic == 0.0

    def test_t1_additive_part_annihilates(self):
        # value reduces to sum c_j c_k (y_j - y_k)^2 = -4 + 8 - 4 = 0
        v = cnd_check(
            KernelParams(1.0, 1.0),
            PointConfig((0.0, 1.0, 2.0), (1.0, -2.0, 1.0)),
            tolerance=1e-12,
        )
        assert v.verdict == "PASS"
        assert abs(v.statistic) < 1e-12

    def test_zero_sum_precondition(self):
        with pytest.raises(PreconditionError):
            cnd_check(
                KernelParams(1.0, 1.0),
                PointConfig((0.0, 1.0), (1.0, -0.5)),
                tolerance=1e-12,
            )
        with pytest.raises(PreconditionError):
            cnd_check(KernelParams(1.0, 1.0), PointConfig((0.0,), (0.0,)), 1e-12)

    def test_random_small_t_configs_pass(self, random_zero_sum_config):
        rng = np.random.default_rng(7)
        params = KernelParams(0.5, 3.0)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            cfg = random_zero_sum_config(rng, n)
            assert cnd_check(params, cfg, tolerance=1e-10).verdict == "PASS"

    def test_t1_value_equals_squared_difference_sum(self, random_zero_sum_config):
        # at t=1 the additive a*(y_j^2 + y_k^2) part annihilates under the
        # zero-sum constraint, leaving exactly sum c_j c_k (y_j - y_k)^2
        rng = np.random.default_rng(99)
        params = KernelParams(1.0, 4.0)
        for _ in range(25):
            cfg = random_zero_sum_config(rng, int(rng.integers(2, 7)))
            got = -cnd_check(params, cfg, tolerance=1e-6).statistic
            pts, c = [float(p) for p in cfg.points], [float(v) for v in cfg.coeffs]
            want = math.fsum(
                c[j] * c[k] * (pts[j] - pts[k]) ** 2
                for j in range(len(c))
                for k in range(len(c))
            )
            scale = math.fsum(
                abs(c[j] * c[k]) * distance_form(params, pts[j], pts[k])
                for j in range(len(c))
                for k in range(len(c))
            )
            assert abs(got - want) <= 1e-12 * max(scale, 1.0)

    def test_large_t_failure_has_certificate(self):
        # t=3: the distance form is not CND; a spread configuration fails
        params = KernelParams(3.0, 1.0)
        cfg = PointConfig((0.0, 1.0, 4.0), (1.0, -2.0, 1.0))
        value = sum(
            cfg.coeffs[j]
            * cfg.coeffs[k]
            * distance_form(params, cfg.points[j], cfg.points[k])
            for j in range(3)
            for k in range(3)
        )
        v = cnd_check(params, cfg, tolerance=1e-10)
        assert (v.verdict == "FAIL") == (value > 1e-10)
        if v.failed:
            assert v.certificate.config is cfg
            assert v.certificate.value == -v.statistic


def _exact(v) -> Fraction:
    """The rational a float or an mpf denotes."""
    return Fraction(*libmp.to_rational(v._mpf_)) if isinstance(v, mp.mpf) else Fraction(v)


class TestFailIsCertified:
    # every FAIL is a certificate whose enclosure excludes the pass side,
    # checked in exact rationals
    @given(
        st.floats(min_value=1.05, max_value=4.0),
        st.floats(min_value=0.1, max_value=30.0),
        # about half of such configurations fail
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=2, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_pd_fail_certificate_is_negative(self, t, a, points):
        v = pd_check(KernelParams(t, a), points, tolerance=0.0)
        assert v.verdict == ("FAIL" if v.certificate is not None else "PASS")
        assert v.boundary == (v.certificate is None and v.statistic < 0)
        if v.failed:
            cert = v.certificate
            assert v.statistic < 0
            assert cert.config.points == tuple(points)
            assert _exact(cert.value) + _exact(cert.error_bound) < 0

    @given(
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.1, max_value=30.0),
        st.lists(
            st.tuples(st.floats(min_value=-5.0, max_value=5.0), st.integers(-5, 5)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_cnd_fail_certificate_exceeds_tolerance(self, t, a, pairs):
        points = [x for x, _ in pairs] + [0.5]
        coeffs = [c for _, c in pairs] + [-sum(c for _, c in pairs)]
        tolerance = 1e-10
        v = cnd_check(KernelParams(t, a), PointConfig(points, coeffs), tolerance)
        # for CND the statistic decides the verdict both ways
        assert v.failed == (v.statistic < -tolerance)
        assert v.boundary == (not v.failed and v.statistic < 0)
        if v.failed:
            cert = v.certificate
            assert _exact(cert.value) - _exact(cert.error_bound) > _exact(tolerance)
