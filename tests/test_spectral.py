import math
from fractions import Fraction

import numpy as np
import pytest

from kpd import (
    DomainError,
    KernelParams,
    NEGATIVE_FOUND,
    NO_NEGATIVE_AT_RESOLUTION,
    build_scheme,
    certify_negative_direction,
    min_operator_eigenvalue,
    nystrom_matrix,
    open_problem_sweep,
    quadratic_form,
)
from kpd.spectral import (
    COEFF_QUANTUM,
    SEARCH_MAX_POINTS,
    sweep_rows,
    truncation_tail_bound,
)


class TestScheme:
    def test_weights_sum_to_interval_length(self):
        for n in (1, 5, 16, 100, 257):
            s = build_scheme(n, 20.0)
            assert np.sum(s.weights) == pytest.approx(40.0, rel=1e-12)
            assert s.node_count == n == len(s.nodes)

    def test_nodes_increasing_and_interior(self):
        s = build_scheme(100, 5.0)
        assert np.all(np.diff(s.nodes) > 0)
        assert s.nodes[0] > -5.0 and s.nodes[-1] < 5.0

    def test_single_node_is_midpoint(self):
        s = build_scheme(1, 7.0)
        assert s.nodes[0] == 0.0
        assert s.weights[0] == pytest.approx(14.0, rel=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            build_scheme(10, -1.0)
        with pytest.raises(ValueError):
            build_scheme(0, 1.0)


class TestNystromMatrix:
    def test_single_node_value(self):
        s = build_scheme(1, 5.0)
        m = nystrom_matrix(KernelParams(1.0, 1.0), s)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(10.0 / math.pi, rel=1e-14)

    def test_bitwise_symmetry(self):
        s = build_scheme(64, 10.0)
        m = nystrom_matrix(KernelParams(1.7, 2.5), s)
        assert np.array_equal(m, m.T)

    def test_pd_kernel_is_numerically_psd(self):
        s = build_scheme(200, 20.0)
        m = nystrom_matrix(KernelParams(1.0, 1.0), s)
        assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_violating_kernel_goes_negative(self):
        s = build_scheme(100, 5.0)
        m = nystrom_matrix(KernelParams(2.0, 13.0), s)
        assert np.linalg.eigvalsh(m)[0] < -1e-4


class TestCertification:
    def test_negative_direction_certifies(self):
        cert = certify_negative_direction(KernelParams(2.0, 13.0))
        assert cert is not None
        assert cert.certified_negative
        assert cert.value + cert.error_bound < 0
        assert cert.config.n <= SEARCH_MAX_POINTS

    def test_certificate_matches_explicit_quadratic_form(self):
        # the stored value is the float form that a replay computes
        params = KernelParams(2.0, 13.0)
        cert = certify_negative_direction(params)
        assert quadratic_form(params, cert.config) == cert.value
        assert cert.error_bound < abs(cert.value)

    @pytest.mark.parametrize("t, a", [(2.0, 2.0), (2.0, 13.0), (2.5, 0.5), (3.0, 0.5)])
    def test_stored_decimals_are_the_certified_configuration(self, t, a):
        # dyadic points and coefficients: repr prints them exactly, so the
        # stored text read as a Fraction is the configuration certified
        cert = certify_negative_direction(KernelParams(t, a))
        assert cert.certified_negative
        assert 2 <= cert.config.n <= SEARCH_MAX_POINTS
        for v in cert.config.points + cert.config.coeffs:
            assert Fraction(repr(v)) == Fraction(v)
        coeffs = cert.config.coeffs
        assert max(map(abs, coeffs)) == 1.0
        assert all((c / COEFF_QUANTUM).is_integer() for c in coeffs)
        points = cert.config.points
        assert points == tuple(-p for p in reversed(points))

    @pytest.mark.parametrize("t, a", [(0.5, 2.0), (1.0, 1.0), (1.0, 13.0)])
    def test_pd_kernel_gives_no_certificate(self, t, a):
        assert certify_negative_direction(KernelParams(t, a)) is None


class TestLadder:
    def test_pd_sample_no_negative(self):
        rep = min_operator_eigenvalue(
            KernelParams(0.5, 2.0), [(50, 20.0), (100, 20.0), (200, 20.0)]
        )
        assert rep.verdict == NO_NEGATIVE_AT_RESOLUTION
        assert all(level[2] >= -1e-10 for level in rep.levels)
        assert rep.certificate is None

    def test_refinement_deltas_shrink_on_pd_sample(self):
        rep = min_operator_eigenvalue(
            KernelParams(1.0, 1.0), [(100, 20.0), (200, 20.0), (400, 20.0)]
        )
        eigs = [lvl[2] for lvl in rep.levels]
        d1 = abs(eigs[1] - eigs[0])
        d2 = abs(eigs[2] - eigs[1])
        assert d2 <= d1 + 1e-12

    def test_known_violation_certifies(self):
        rep = min_operator_eigenvalue(KernelParams(2.0, 13.0), [(100, 5.0), (200, 5.0)])
        assert rep.verdict == NEGATIVE_FOUND
        assert rep.certificate is not None
        assert rep.certificate.certified_negative
        assert rep.min_eigenvalue < -1e-3

    def test_open_region_report_only_at_coarse_resolution(self):
        # min eigenvalue ~ -1e-10 at this resolution: evidence, no claim
        rep = min_operator_eigenvalue(KernelParams(2.0, 6.0), [(100, 20.0)])
        assert rep.verdict == NO_NEGATIVE_AT_RESOLUTION

    def test_six_smallest_recorded_sorted(self):
        rep = min_operator_eigenvalue(KernelParams(1.0, 1.0), [(100, 10.0)])
        eigs = rep.smallest_eigenvalues
        assert len(eigs) == 6
        assert all(x <= y for x, y in zip(eigs, eigs[1:]))

    def test_empty_or_decreasing_ladder_rejected(self):
        with pytest.raises(DomainError):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [])
        with pytest.raises(DomainError):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [(100, 5.0), (50, 5.0)])

    def test_tail_bound(self):
        assert truncation_tail_bound(KernelParams(2.0, 1.0), 20.0) == pytest.approx(
            2.0 * 20.0**-3.0 / (math.pi * 4.0 * 3.0), rel=1e-12
        )
        assert math.isinf(truncation_tail_bound(KernelParams(0.5, 1.0), 20.0))
        # 2^t and L^(1-2t) alone overflow binary64 here; the bound does not
        assert truncation_tail_bound(KernelParams(1100.0, 2.0), 20.0) == 0.0
        assert truncation_tail_bound(KernelParams(1100.0, 2.0), 0.5) == math.inf


class TestVerdicts:
    # the default ladder of kpd spectrum and sweep
    LADDER = [(100, 20.0), (200, 20.0), (400, 20.0)]

    @pytest.mark.parametrize(
        "t, a, verdict",
        [(2.0, a, NO_NEGATIVE_AT_RESOLUTION) for a in (0.5, 1.0)]
        + [(2.0, a, NEGATIVE_FOUND) for a in (2.0, 2.5, 3.0, 6.0, 9.0, 12.0, 13.0, 24.0)]
        + [(2.5, 0.5, NEGATIVE_FOUND), (3.0, 0.5, NEGATIVE_FOUND)],
    )
    def test_default_ladder_verdict(self, t, a, verdict):
        rep = min_operator_eigenvalue(KernelParams(t, a), self.LADDER)
        assert rep.verdict == verdict
        if verdict == NEGATIVE_FOUND:
            assert rep.certificate.certified_negative
            assert rep.certificate.config.n <= SEARCH_MAX_POINTS
        else:
            assert rep.certificate is None


class TestSweep:
    def test_rows_schema_and_determinism(self):
        ladder = [(48, 6.0), (96, 6.0)]
        res1 = open_problem_sweep([1.0, 13.0], ladder)
        res2 = open_problem_sweep([1.0, 13.0], ladder)
        rows1, rows2 = sweep_rows(res1), sweep_rows(res2)
        assert rows1 == rows2
        assert len(rows1) == 4
        assert set(rows1[0]) == {"t", "a", "level", "node_count", "L", "min_eigenvalue", "verdict"}
        # verdict only on the last level of each point
        assert rows1[0]["verdict"] == ""
        assert rows1[1]["verdict"] in (NEGATIVE_FOUND, NO_NEGATIVE_AT_RESOLUTION)

    def test_control_labeling(self):
        res = open_problem_sweep([6.0, 12.5], [(32, 6.0)])
        assert res[0]["control"] is False
        assert res[1]["control"] is True

    def test_certified_negatives_only(self):
        # every NEGATIVE_FOUND verdict must carry a conclusive certificate
        res = open_problem_sweep([3.0, 13.0], [(96, 6.0), (192, 6.0)])
        for entry in res:
            rep = entry["report"]
            if rep.verdict == NEGATIVE_FOUND:
                assert rep.certificate is not None
                assert rep.certificate.certified_negative

    def test_sweep_survives_bad_point(self):
        res = open_problem_sweep([1.0, -2.0], [(32, 6.0)])
        assert "report" in res[0]
        assert "error" in res[1]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(params, ladder):
            raise TypeError("bug")

        monkeypatch.setattr("kpd.spectral.min_operator_eigenvalue", broken)
        with pytest.raises(TypeError):
            open_problem_sweep([1.0], [(32, 6.0)])
