import math
from fractions import Fraction

import numpy as np
import pytest

import kpd.spectral
from kpd.errors import DomainError
from kpd.kernel import KernelParams, quadratic_form
from kpd.quadrature import PANEL_DEGREE, composite_rule, mapped_rule
from kpd.spectral import (
    COEFF_QUANTUM,
    NEGATIVE_FOUND,
    NO_NEGATIVE_AT_RESOLUTION,
    SEARCH_MAX_POINTS,
    _nystrom_spectrum,
    build_scheme,
    certify_negative_direction,
    min_operator_eigenvalue,
    nystrom_matrix,
    truncation_tail_bound,
)


class TestScheme:
    def test_weights_sum_to_interval_length(self):
        for n in (1, 5, 16, 100, 257):
            x, w = build_scheme(n, 20.0)
            assert np.sum(w) == pytest.approx(40.0, rel=1e-12)
            assert len(x) == len(w) == n

    def test_nodes_increasing_and_interior(self):
        x, _ = build_scheme(100, 5.0)
        assert np.all(np.diff(x) > 0)
        assert x[0] > -5.0 and x[-1] < 5.0

    def test_single_node_is_midpoint(self):
        x, w = build_scheme(1, 7.0)
        assert x[0] == 0.0
        assert w[0] == pytest.approx(14.0, rel=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            build_scheme(10, -1.0)
        with pytest.raises(DomainError, match="node_count must be >= 1"):
            build_scheme(0, 1.0)

    # at 1e308 the width 2 L overflows and the panel edges would be NaN
    @pytest.mark.parametrize("half_width", [math.inf, -math.inf, math.nan, 0.0, 1e308])
    def test_non_finite_half_width_rejected_before_the_rule(self, half_width):
        with pytest.raises(DomainError, match="finite and > 0"):
            build_scheme(16, half_width)


class TestCompositeRule:
    @pytest.mark.parametrize("n", [1, 2, 5, 15, 16, 64, 400, 1600])
    def test_equal_panels_mirror_exactly(self, n):
        x, w = composite_rule(-20.0, 20.0, n)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert np.sum(w) == pytest.approx(40.0, rel=1e-12)

    @pytest.mark.parametrize(
        "lo, hi, n", [(-20.0, 20.0, 100), (-20.0, 20.0, 200), (-20.0, 20.0, 257), (0.0, 3.0, 32)]
    )
    def test_other_layouts_are_the_plain_panel_concatenation(self, lo, hi, n):
        # a remainder panel (or an interval not centred at 0) keeps the
        # rule as built, byte for byte
        full, rem = divmod(n, PANEL_DEGREE)
        degrees = [PANEL_DEGREE] * full + ([rem] if rem else [])
        edges = np.linspace(lo, hi, len(degrees) + 1)
        panels = [mapped_rule(*edge, deg) for deg, *edge in zip(degrees, edges[:-1], edges[1:])]
        x, w = composite_rule(lo, hi, n)
        assert x.tobytes() == np.concatenate([p[0] for p in panels]).tobytes()
        assert w.tobytes() == np.concatenate([p[1] for p in panels]).tobytes()


class TestNystromMatrix:
    def test_single_node_value(self):
        m = nystrom_matrix(KernelParams(1.0, 1.0), *build_scheme(1, 5.0))
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(10.0 / math.pi, rel=1e-14)

    def test_bitwise_symmetry(self):
        # even and odd n, a remainder-panel scheme, and t >= 5
        for n, L, t, a in [
            (64, 10.0, 1.7, 2.5),
            (37, 10.0, 1.7, 2.5),
            (101, 20.0, 2.0, 13.0),
            (200, 20.0, 5.0, 0.3),
            (96, 20.0, 7.5, 1.0),
        ]:
            m = nystrom_matrix(KernelParams(t, a), *build_scheme(n, L))
            assert np.array_equal(m, m.T)

    def test_pd_kernel_is_numerically_psd(self):
        m = nystrom_matrix(KernelParams(1.0, 1.0), *build_scheme(200, 20.0))
        assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_violating_kernel_goes_negative(self):
        m = nystrom_matrix(KernelParams(2.0, 13.0), *build_scheme(100, 5.0))
        assert np.linalg.eigvalsh(m)[0] < -1e-4


class TestSplitSpectrum:
    @pytest.mark.parametrize("a", [0.3, 5.0, 13.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.7])
    def test_mirrored_blocks_match_full_solve(self, t, a):
        # both solves are backward stable, so they agree to a few ulps of
        # the norm |lambda|_max, which exceeds max(diag) up to 14-fold here
        params = KernelParams(t, a)
        for n, L in ((16, 5.0), (64, 10.0), (400, 20.0)):
            x, w = build_scheme(n, L)
            m = nystrom_matrix(params, x, w)
            vals, max_diag = _nystrom_spectrum(params, x, w)
            full = np.linalg.eigvalsh(m)
            assert max_diag == np.max(np.diag(m))
            assert np.all(np.diff(vals) >= 0)
            assert np.max(np.abs(vals - full)) <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("n", [1, 15, 100, 200, 257])
    def test_other_schemes_take_the_full_solve(self, n):
        params = KernelParams(2.0, 13.0)
        x, w = build_scheme(n, 20.0)
        m = nystrom_matrix(params, x, w)
        vals, max_diag = _nystrom_spectrum(params, x, w)
        assert vals.tobytes() == np.linalg.eigvalsh(m).tobytes()
        assert max_diag == np.max(np.diag(m))

    def test_default_ladder_takes_both_branches(self, monkeypatch):
        entries = []
        kernel_matrix = kpd.spectral.kernel_matrix

        def recorded(params, x, y):
            entries.append(len(x) * len(y))
            return kernel_matrix(params, x, y)

        monkeypatch.setattr(kpd.spectral, "kernel_matrix", recorded)
        min_operator_eigenvalue(KernelParams(1.0, 1.0), *TestVerdicts.LADDER)
        # rungs 100 and 200 carry a remainder panel; rung 400 builds half its rows
        assert entries == [100 * 100, 200 * 200, 200 * 400]

    @pytest.mark.parametrize(
        "t, a",
        [(1.1, 30.0), (1.25, 0.2), (1.5, 1.0), (2.0, 1.0), (2.0, 13.0), (2.5, 0.2), (3.0, 0.5), (5.5, 8.0)],
    )
    def test_ladder_matches_full_solve_reference(self, monkeypatch, t, a):
        params = KernelParams(t, a)
        split = min_operator_eigenvalue(params, *TestVerdicts.LADDER)

        def full_solve(params, x, w):
            m = nystrom_matrix(params, x, w)
            return np.linalg.eigvalsh(m), float(np.max(np.diag(m)))

        monkeypatch.setattr(kpd.spectral, "_nystrom_spectrum", full_solve)
        ref = min_operator_eigenvalue(params, *TestVerdicts.LADDER)
        assert split.verdict == ref.verdict
        assert (split.certificate is None) == (ref.certificate is None)
        if ref.certificate is not None:
            assert split.certificate.config == ref.certificate.config
            assert split.certificate.value == ref.certificate.value
            assert split.certificate.error_bound == ref.certificate.error_bound
        assert split.levels[:2] == ref.levels[:2]
        norm = np.linalg.norm(nystrom_matrix(params, *build_scheme(400, 20.0)), 2)
        got = np.array(split.smallest_eigenvalues)
        assert np.max(np.abs(got - ref.smallest_eigenvalues)) <= 1e-14 * norm


class TestCertification:
    def test_negative_direction_certifies(self):
        cert = certify_negative_direction(KernelParams(2.0, 13.0))
        assert cert is not None
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
        assert cert is not None and cert.value + cert.error_bound < 0
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
        rep = min_operator_eigenvalue(KernelParams(0.5, 2.0), [50, 100, 200], 20.0)
        assert rep.verdict == NO_NEGATIVE_AT_RESOLUTION
        assert all(level[2] >= -1e-10 for level in rep.levels)
        assert rep.certificate is None

    def test_refinement_deltas_shrink_on_pd_sample(self):
        rep = min_operator_eigenvalue(KernelParams(1.0, 1.0), [100, 200, 400], 20.0)
        eigs = [lvl[2] for lvl in rep.levels]
        d1 = abs(eigs[1] - eigs[0])
        d2 = abs(eigs[2] - eigs[1])
        assert d2 <= d1 + 1e-12

    def test_known_violation_certifies(self):
        rep = min_operator_eigenvalue(KernelParams(2.0, 13.0), [100, 200], 5.0)
        assert rep.verdict == NEGATIVE_FOUND
        assert rep.certificate is not None
        assert rep.certificate.value + rep.certificate.error_bound < 0
        assert rep.levels[-1][2] < -1e-3

    def test_open_region_report_only_at_coarse_resolution(self):
        # min eigenvalue ~ -1e-10 at this resolution: evidence, no claim
        rep = min_operator_eigenvalue(KernelParams(2.0, 6.0), [100], 20.0)
        assert rep.verdict == NO_NEGATIVE_AT_RESOLUTION

    def test_six_smallest_recorded_sorted(self):
        rep = min_operator_eigenvalue(KernelParams(1.0, 1.0), [100], 10.0)
        eigs = rep.smallest_eigenvalues
        assert len(eigs) == 6
        assert all(x <= y for x, y in zip(eigs, eigs[1:]))

    def test_empty_or_decreasing_ladder_rejected(self):
        with pytest.raises(DomainError):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [], 5.0)
        with pytest.raises(DomainError):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [100, 50], 5.0)

    def test_empty_rung_or_bad_half_width_rejected(self):
        # the CLI rejects both at parse time; a library caller gets a
        # DomainError, which a sweep records for its weight
        with pytest.raises(DomainError, match="node_count must be >= 1"):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [0], 20.0)
        with pytest.raises(DomainError, match="half_width must be finite and > 0"):
            min_operator_eigenvalue(KernelParams(1.0, 1.0), [16], math.inf)

    def test_tail_bound(self):
        assert truncation_tail_bound(KernelParams(2.0, 1.0), 20.0) == pytest.approx(
            2.0 * 20.0**-3.0 / (math.pi * 4.0 * 3.0), rel=1e-12
        )
        assert math.isinf(truncation_tail_bound(KernelParams(0.5, 1.0), 20.0))
        # 2^t and L^(1-2t) alone overflow binary64 here; the bound does not
        assert truncation_tail_bound(KernelParams(1100.0, 2.0), 20.0) == 0.0
        assert truncation_tail_bound(KernelParams(1100.0, 2.0), 0.5) == math.inf


class TestVerdicts:
    # the default ladder of kpd spectrum and sweep: node counts, half-width
    LADDER = ((100, 200, 400), 20.0)

    @pytest.mark.parametrize(
        "t, a, verdict",
        [(2.0, a, NO_NEGATIVE_AT_RESOLUTION) for a in (0.5, 1.0)]
        + [(2.0, a, NEGATIVE_FOUND) for a in (2.0, 2.5, 3.0, 6.0, 9.0, 12.0, 13.0, 24.0)]
        + [(2.5, 0.5, NEGATIVE_FOUND), (3.0, 0.5, NEGATIVE_FOUND)],
    )
    def test_default_ladder_verdict(self, t, a, verdict):
        rep = min_operator_eigenvalue(KernelParams(t, a), *self.LADDER)
        assert rep.verdict == verdict
        if verdict == NEGATIVE_FOUND:
            assert rep.certificate is not None
            assert rep.certificate.value + rep.certificate.error_bound < 0
            assert rep.certificate.config.n <= SEARCH_MAX_POINTS
        else:
            assert rep.certificate is None

