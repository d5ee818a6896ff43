from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from kpd import (
    DomainError,
    KernelParams,
    PreconditionError,
    SizeCapError,
    build_binomial_witness,
    check_moments,
    cleared_form_series,
    cleared_form_value,
    difference_power_sum,
    find_negative_scale,
    predict_t_coefficient_sign,
    quadratic_form,
    subset_product_identity,
    t_power_coefficient,
    WitnessConfig,
)

# 9-term direct sum, our long-standing oracle for the T=1, t=1.5, a=1 case
KAPPA_T15 = -(-4.0 + 2.0 * 4.0**1.5 + 4.0 * 2.0**1.5 - 4.0 * 5.0**1.5 + 8.0**1.5)


class TestBinomialWitness:
    def test_order_one(self):
        w = build_binomial_witness(1)
        assert w.y == (0, 1, 2)
        assert w.c == (1, -2, 1)
        assert w.moment_order == 1

    def test_order_two_alternating(self):
        w = build_binomial_witness(2)
        assert w.c == (1, -3, 3, -1)
        assert sum(cj * yj**2 for cj, yj in zip(w.c, w.y)) == 0

    def test_order_zero(self):
        w = build_binomial_witness(0)
        assert w.y == (0, 1)
        assert w.c == (1, -1)

    def test_invalid_witness_rejected(self):
        with pytest.raises(PreconditionError):
            WitnessConfig(y=(0, 1, 2), c=(1, -2, 2), moment_order=1)

    def test_non_rational_floats_rejected(self):
        with pytest.raises(DomainError):
            WitnessConfig(y=(0.0, 1.1), c=(1, -1), moment_order=0)


class TestMoments:
    def test_order_one_moments(self):
        w = build_binomial_witness(1)
        assert check_moments(w, 1) == [0, 0]
        assert check_moments(w, 2)[2] == 2  # 0 - 2 + 4

    @pytest.mark.parametrize("order", [0, 3, 7, 12])
    def test_exact_annihilation_at_scale(self, order):
        w = build_binomial_witness(order)
        moments = check_moments(w, order)
        assert all(m == 0 for m in moments)

    def test_moments_are_fractions(self):
        w = build_binomial_witness(2)
        assert all(isinstance(m, Fraction) for m in check_moments(w, 4))


class TestSeriesExpansion:
    def test_constant_term_vanishes_for_any_zero_sum(self):
        w = build_binomial_witness(0)
        s = cleared_form_series(KernelParams(0.5, 2.0), w)
        assert s.coefficient(0, 0) == 0

    def test_t15_integer_cancellation_and_fractional_terms(self):
        # frozen against an independent brute-force trinomial expansion
        w = build_binomial_witness(1)
        s = cleared_form_series(KernelParams(1.5, 1.0), w)
        assert s.coefficient(0, 0) == 0
        assert s.coefficient(1, 0) == 0
        assert s.coefficient(2, 0) == Fraction(24)
        assert s.coefficient(3, 0) == Fraction(168)
        assert s.coefficient(4, 0) == Fraction(360)
        assert s.coefficient(5, 0) == Fraction(312)
        assert s.coefficient(6, 0) == Fraction(96)
        assert s.coefficient(7, 0) == 0
        assert float(s.coefficient(0, 1)) == pytest.approx(
            -1.2197659469584872431, rel=1e-15
        )
        assert float(s.coefficient(1, 1)) == pytest.approx(
            15.920089536506565227, rel=1e-15
        )

    def test_integer_coefficients_are_exact_fractions(self):
        w = build_binomial_witness(2)
        s = cleared_form_series(KernelParams(2.5, 3.0), w)
        for i in range(3):
            c = s.coefficient(i, 0)
            assert isinstance(c, Fraction) and c == 0

    def test_key_degree_bound(self):
        w = build_binomial_witness(1)
        s = cleared_form_series(KernelParams(1.5, 1.0), w)
        assert all(k.i + k.j <= w.n * w.n - 1 for k in s.terms)

    def test_canonical_form_stores_no_zeros(self):
        w = build_binomial_witness(1)
        s = cleared_form_series(KernelParams(1.5, 1.0), w)
        assert all(v != 0 for v in s.terms.values())

    def test_fractional_coefficient_matches_direct_sum(self):
        w = build_binomial_witness(1)
        params = KernelParams(1.5, 1.0)
        s = cleared_form_series(params, w)
        kappa = t_power_coefficient(params, w, dps=50)
        assert abs(s.coefficient(0, 1) - kappa) < mp.mpf("1e-40")

    @pytest.mark.parametrize(
        "witness,t",
        [(0, 0.5), (1, 1.5), (2, 2.25), (3, 3.75)]
        + [
            # non-integer y and mixed-sign c: only the zeroth moment vanishes
            pytest.param(
                WitnessConfig(
                    y=(0, Fraction(1, 2), 2, Fraction(7, 3)), c=(1, -3, 5, -3), moment_order=0
                ),
                1.5,
                id="rational-1.5",
            )
        ],
    )
    def test_series_matches_direct_evaluation(self, witness, t):
        w = build_binomial_witness(witness) if isinstance(witness, int) else witness
        params = KernelParams(t, 1.0)
        s = cleared_form_series(params, w)
        for z in np.logspace(-3, 0, 20):
            direct = cleared_form_value(params, w, float(z), dps=60)
            series = s.evaluate(float(z), dps=60)
            assert abs(series - direct) <= mp.mpf("1e-9") * max(abs(direct), mp.mpf(1e-30))

    def test_size_cap(self):
        w = build_binomial_witness(7)  # n = 9 > default cap 8
        with pytest.raises(SizeCapError):
            cleared_form_series(KernelParams(7.5, 1.0), w)

    def test_integer_t_rejected(self):
        w = build_binomial_witness(1)
        with pytest.raises(DomainError):
            cleared_form_series(KernelParams(2.0, 1.0), w)


class TestDirectEvaluation:
    def test_zero_coefficients_give_zero(self):
        w = WitnessConfig(y=(0, 1), c=(0, 0), moment_order=0)
        assert cleared_form_value(KernelParams(1.5, 1.0), w, 0.5) == 0.0

    def test_small_z_asymptotics(self):
        # frozen 50-digit value; the leading term underestimates by ~20%
        w = build_binomial_witness(1)
        v = cleared_form_value(KernelParams(1.5, 1.0), w, 1e-4, dps=50)
        assert float(v) == pytest.approx(-9.77905273077771e-7, rel=1e-9)
        lead = KAPPA_T15 * (1e-4) ** 1.5
        assert v < 0
        assert float(v) == pytest.approx(lead, rel=0.25)

    def test_float_and_mp_paths_agree_at_moderate_z(self):
        w = build_binomial_witness(1)
        params = KernelParams(1.5, 1.0)
        for z in (0.1, 1.0, 10.0):
            f64 = cleared_form_value(params, w, z)
            hp = cleared_form_value(params, w, z, dps=50)
            assert f64 == pytest.approx(float(hp), rel=1e-12)

    def test_rejects_nonpositive_z(self):
        w = build_binomial_witness(1)
        with pytest.raises(DomainError):
            cleared_form_value(KernelParams(1.5, 1.0), w, 0.0)


class TestTPowerCoefficient:
    def test_t15_matches_nine_term_oracle(self):
        w = build_binomial_witness(1)
        got = t_power_coefficient(KernelParams(1.5, 1.0), w)
        assert got == pytest.approx(KAPPA_T15, rel=1e-14)
        assert got == pytest.approx(-1.2197659469584872, rel=1e-9)

    def test_t25_nonnegative(self):
        w = build_binomial_witness(2)
        got = t_power_coefficient(KernelParams(2.5, 1.0), w)
        assert got > 0
        assert got == pytest.approx(10.191692368477602, rel=1e-12)

    def test_linearity_in_weight(self):
        w = build_binomial_witness(1)
        v1 = t_power_coefficient(KernelParams(1.5, 1.0), w)
        v2 = t_power_coefficient(KernelParams(1.5, 2.0), w)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-15)

    def test_moment_precondition(self):
        w = build_binomial_witness(1)  # moments vanish through 1 only
        with pytest.raises(PreconditionError):
            t_power_coefficient(KernelParams(2.5, 1.0), w)

    @pytest.mark.parametrize(
        "t,order,sign",
        [(1.5, 1, -1), (2.5, 2, 1), (3.5, 3, -1), (4.5, 4, 1), (5.25, 5, -1)],
    )
    def test_parity_suite(self, t, order, sign):
        w = build_binomial_witness(order)
        got = t_power_coefficient(KernelParams(t, 1.0), w, dps=50)
        predicted = predict_t_coefficient_sign(t)
        assert (predicted == "nonpositive") == (sign < 0)
        assert float(got) * sign > 1e-6


class TestSignPrediction:
    def test_values(self):
        assert predict_t_coefficient_sign(1.5) == "nonpositive"
        assert predict_t_coefficient_sign(2.5) == "nonnegative"
        assert predict_t_coefficient_sign(3.25) == "nonpositive"

    def test_integer_rejected(self):
        with pytest.raises(DomainError):
            predict_t_coefficient_sign(2.0)
        with pytest.raises(DomainError):
            predict_t_coefficient_sign(3.0 + 1e-12)


class TestFindNegativeScale:
    def test_t15_certificate(self):
        params = KernelParams(1.5, 1.0)
        cert = find_negative_scale(params, build_binomial_witness(1))
        assert cert.z <= 2.0**-1
        assert cert.f_value < 0
        assert cert.q_value < 0
        # replay independently through the kernel quadratic form
        replay = quadratic_form(params, cert.config, dps=cert.dps + 20)
        assert replay < 0

    def test_t35_small_weight_certificate(self):
        params = KernelParams(3.5, 0.01)
        cert = find_negative_scale(params, build_binomial_witness(3))
        assert cert.f_value < 0
        assert cert.q_value < 0

    def test_even_integer_part_rejected(self):
        with pytest.raises(PreconditionError):
            find_negative_scale(KernelParams(2.5, 1.0), build_binomial_witness(2))


class TestExactIdentities:
    def test_two_point_hand_case(self):
        lhs, rhs = subset_product_identity(2, 1, 0, 1, [0, 1])
        assert lhs == 1
        assert rhs == 1

    def test_empty_subset_case(self):
        lhs, rhs = subset_product_identity(3, 0, 1, 2, [0, 1, 3])
        assert lhs == rhs == 1

    def test_three_point_case(self):
        lhs, rhs = subset_product_identity(3, 2, 1, 2, [0, 1, 3])
        assert lhs == rhs

    def test_full_grid_with_random_rationals(self):
        rng = np.random.default_rng(123)
        for n in (1, 2, 3):
            for m in range(0, min(3, n * n - 1) + 1):
                for _ in range(3):
                    y = [
                        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                        for _ in range(n)
                    ]
                    for j in range(n):
                        for k in range(n):
                            lhs, rhs = subset_product_identity(n, m, j, k, y)
                            assert lhs == rhs

    def test_cap_error(self):
        with pytest.raises(SizeCapError):
            subset_product_identity(5, 12, 0, 1, list(range(5)), cap=1000)

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            subset_product_identity(2, 1, 0, 2, [0, 1])
        with pytest.raises(DomainError):
            subset_product_identity(2, 4, 0, 1, [0, 1])


class TestDifferencePowerSums:
    def test_zero_sum_order_zero(self):
        w = build_binomial_witness(0)
        assert difference_power_sum(0, w) == 0

    def test_t1_witness_first_order(self):
        w = build_binomial_witness(1)
        assert difference_power_sum(1, w) == 0

    def test_beyond_order_is_nonzero(self):
        w = build_binomial_witness(1)
        assert difference_power_sum(2, w) == 24

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
    def test_vanishing_through_order(self, order):
        w = build_binomial_witness(order)
        for v in range(order + 1):
            assert difference_power_sum(v, w) == 0
