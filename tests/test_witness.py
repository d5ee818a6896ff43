import hashlib
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np
from mpmath import libmp
import pytest

import kpd.kernel
import kpd.witness
from kpd.errors import DomainError, PreconditionError, SizeCapError, ToleranceError
from kpd.kernel import Certificate, KernelParams, _as_mpf, form_enclosure, quadratic_form
from kpd.witness import (
    SERIES_DPS,
    WitnessConfig,
    _pair_data,
    build_binomial_witness,
    check_moments,
    cleared_form_series,
    cleared_form_value,
    difference_power_sum,
    find_negative_scale,
    predict_t_coefficient_sign,
    subset_product_identity,
    t_power_coefficient,
)

# 9-term direct sum, our long-standing oracle for the T=1, t=1.5, a=1 case
KAPPA_T15 = -(-4.0 + 2.0 * 4.0**1.5 + 4.0 * 2.0**1.5 - 4.0 * 5.0**1.5 + 8.0**1.5)

# non-integer y and c, mixed signs: only the zeroth moment vanishes
RATIONAL_WITNESS = WitnessConfig(
    y=(Fraction(-5, 6), Fraction(1, 2), 2, Fraction(7, 3)),
    c=(Fraction(2, 3), Fraction(-9, 7), 5, Fraction(-92, 21)),
    moment_order=0,
)


def exact_expansion(params, w, dps=SERIES_DPS):
    """sum_jk c_j c_k prod_{pq != jk} (1 + A_pq z + B_pq z^t) in exact
    Fractions, one trinomial product per (j, k), with each B_pq taken as
    the exact value of its mpf at ``dps`` digits; zero terms dropped."""
    with mp.workdps(dps):
        A, B = _pair_data(params, w)
    B = {pq: Fraction(int(b.man)) * Fraction(2) ** int(b.exp) for pq, b in B.items()}
    total = {}
    for j, k in A:
        weight = w.c[j] * w.c[k]
        if not weight:
            continue
        poly = {(0, 0): weight}
        for pq in A:
            if pq == (j, k):
                continue
            out = dict(poly)
            for (i, l), co in poly.items():
                out[i + 1, l] = out.get((i + 1, l), 0) + co * A[pq]
                out[i, l + 1] = out.get((i, l + 1), 0) + co * B[pq]
            poly = out
        for key, co in poly.items():
            total[key] = total.get(key, 0) + co
    return {key: co for key, co in total.items() if co}


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

    @pytest.mark.parametrize(
        "y, c, order",
        [((), (), 0), ((0, 1), (1,), 0), ((0, 1), (1, -1), -1)],
        ids=["empty", "unequal", "negative-order"],
    )
    def test_malformed_witness_rejected(self, y, c, order):
        with pytest.raises(DomainError):
            WitnessConfig(y=y, c=c, moment_order=order)

    def test_negative_arguments_rejected(self):
        w = build_binomial_witness(1)
        for call in (
            lambda: build_binomial_witness(-1),
            lambda: check_moments(w, -1),
            lambda: predict_t_coefficient_sign(float("nan")),
            lambda: subset_product_identity(0, 0, 0, []),
            lambda: difference_power_sum(-1, w),
        ):
            with pytest.raises(DomainError):
                call()


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
        kappa = t_power_coefficient(params, w)
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
            with mp.workdps(60):
                zm = mp.mpf(float(z))
                zt = zm ** mp.mpf(t)
                series = mp.fsum(co * zm**k.i * zt**k.j for k, co in s.terms.items())
            assert abs(series - direct) <= mp.mpf("1e-9") * max(abs(direct), mp.mpf(1e-30))

    @pytest.mark.parametrize("witness", [1, 2, RATIONAL_WITNESS], ids=["1", "2", "rational"])
    def test_terms_are_the_exact_expansion_rounded_once(self, witness):
        w = build_binomial_witness(witness) if isinstance(witness, int) else witness
        t = (witness if isinstance(witness, int) else 1) + 0.37
        params = KernelParams(t, 2.5)
        terms = cleared_form_series(params, w).terms
        want = exact_expansion(params, w)
        assert set(terms) == set(want)
        prec = libmp.dps_to_prec(SERIES_DPS)
        for (i, j), exact in want.items():
            got = terms[i, j]
            if j:
                rounded = libmp.from_rational(exact.numerator, exact.denominator, prec, libmp.round_nearest)
                assert got._mpf_ == rounded, (i, j)
            else:
                assert type(got) is Fraction and got == exact, (i, j)

    @pytest.mark.parametrize(
        "witness,digest",
        [
            pytest.param(1, "58510732e153f872d3e4fd4cee92da53ce6b89b185e20a5a3e190ae04a2fb008", id="1"),
            pytest.param(2, "16e6ccbd9f77c4977b7b2ebb7b5b85e6491571a81b4cdab87fdda34530ed99cd", id="2"),
            pytest.param(3, "5f12410d622dc44d805ba80c03437d5796d82c3766b45d70de0700f114b38342", id="3"),
            pytest.param(4, "500a5c9cf16cb6a3e42f972f0685746a2ceab2645e693dc8aa41867b9568d9cd", id="4"),
            pytest.param(
                RATIONAL_WITNESS, "fb9474a67df78ef94d91df45b2a955abc56348245a017f1d8125bd200e861678", id="rational"
            ),
        ],
    )
    def test_terms_pinned_bit_for_bit(self, witness, digest):
        # digests of the expansion with each z^t-carrying coefficient rounded
        # once from its exact integer form: every key, every coefficient's
        # type and every mpf's exact bits must stay the same
        w = build_binomial_witness(witness) if isinstance(witness, int) else witness
        t = (witness if isinstance(witness, int) else 1) + 0.37
        terms = cleared_form_series(KernelParams(t, 2.5), w).terms
        text = repr(
            sorted((k, type(v).__name__, getattr(v, "_mpf_", v)) for k, v in terms.items())
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_expansion_at_the_size_cap(self):
        # order 6: n = 8 points, the largest witness the cap admits
        w, params = build_binomial_witness(6), KernelParams(6.4, 1.0)
        s = cleared_form_series(params, w)
        assert all((i, 0) not in s.terms for i in range(7))
        kappa = t_power_coefficient(params, w)
        assert abs(s.coefficient(0, 1) - kappa) < mp.mpf("1e-40") * abs(kappa)
        z = 0.3
        direct = cleared_form_value(params, w, z, dps=60)
        with mp.workdps(60):
            zm = mp.mpf(z)
            zt = zm ** mp.mpf(params.t)
            series = mp.fsum(co * zm**k.i * zt**k.j for k, co in s.terms.items())
        assert abs(series - direct) <= mp.mpf("1e-30") * abs(direct)

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
        assert cleared_form_value(KernelParams(1.5, 1.0), w, 0.5, dps=50) == 0

    def test_small_z_asymptotics(self):
        # frozen 50-digit value; the leading term underestimates by ~20%
        w = build_binomial_witness(1)
        v = cleared_form_value(KernelParams(1.5, 1.0), w, 1e-4, dps=50)
        assert float(v) == pytest.approx(-9.77905273077771e-7, rel=1e-9)
        lead = KAPPA_T15 * (1e-4) ** 1.5
        assert v < 0
        assert float(v) == pytest.approx(lead, rel=0.25)

    def test_rejects_nonpositive_z(self):
        w = build_binomial_witness(1)
        with pytest.raises(DomainError):
            cleared_form_value(KernelParams(1.5, 1.0), w, 0.0, dps=50)


class TestTPowerCoefficient:
    def test_t15_matches_nine_term_oracle(self):
        w = build_binomial_witness(1)
        got = float(t_power_coefficient(KernelParams(1.5, 1.0), w))
        assert got == pytest.approx(KAPPA_T15, rel=1e-14)
        assert got == pytest.approx(-1.2197659469584872, rel=1e-9)

    def test_t25_nonnegative(self):
        w = build_binomial_witness(2)
        got = float(t_power_coefficient(KernelParams(2.5, 1.0), w))
        assert got > 0
        assert got == pytest.approx(10.191692368477602, rel=1e-12)

    def test_linearity_in_weight(self):
        w = build_binomial_witness(1)
        v1 = t_power_coefficient(KernelParams(1.5, 1.0), w)
        v2 = t_power_coefficient(KernelParams(1.5, 2.0), w)
        assert float(v2) == pytest.approx(2.0 * float(v1), rel=1e-15)

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
        got = t_power_coefficient(KernelParams(t, 1.0), w)
        predicted = predict_t_coefficient_sign(t)
        assert (predicted == "nonpositive") == (sign < 0)
        assert float(got) * sign > 1e-6

    @pytest.mark.parametrize("t,order", [(1.5, 1), (2.5, 2), (3.75, 3), (4.5, 5)])
    def test_equals_loop_over_all_pairs(self, t, order):
        # the reference raises every ordered pair's y_j^2 + y_k^2 to the
        # power t itself; the sums take the same terms in the same order
        w, params = build_binomial_witness(order), KernelParams(t, 0.3)
        pairs = [(j, k) for j in range(w.n) for k in range(w.n)]
        sums = [w.y[j] ** 2 + w.y[k] ** 2 for j, k in pairs]
        weights = [w.c[j] * w.c[k] for j, k in pairs]
        with mp.workdps(SERIES_DPS):
            want = -_as_mpf(params.a) * mp.fsum(
                _as_mpf(c) * _as_mpf(s) ** _as_mpf(t) for c, s in zip(weights, sums) if s
            )
        assert t_power_coefficient(params, w) == want


class TestPrecisionArgument:
    @pytest.mark.parametrize("dps", [0, -5, 2.5, 50.0, None])
    def test_invalid_dps_rejected(self, dps):
        w, params = build_binomial_witness(1), KernelParams(1.5, 1.0)
        with pytest.raises(DomainError):
            cleared_form_value(params, w, 0.5, dps=dps)


class TestPairData:
    @pytest.mark.parametrize("order", [0, 1, 3, 5])
    def test_b_is_symmetric_and_exact(self, order):
        w, params = build_binomial_witness(order), KernelParams(3.75, 0.01)
        with mp.workdps(50):
            A, B = _pair_data(params, w)
            for (p, q), b in B.items():
                assert b == B[q, p]
                s = w.y[p] ** 2 + w.y[q] ** 2
                assert b == (_as_mpf(params.a) * _as_mpf(s) ** _as_mpf(params.t) if s else 0)
                assert A[p, q] == (w.y[p] - w.y[q]) ** 2


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


def scan(params, w):
    return find_negative_scale(params, w, t_power_coefficient(params, w))


class TestFindNegativeScale:
    def test_t15_certificate(self):
        params = KernelParams(1.5, 1.0)
        cert = scan(params, build_binomial_witness(1))
        assert cert.z <= 2.0**-1
        assert cert.f_value < 0
        assert cert.value < 0
        # replay independently through the kernel quadratic form
        replay = quadratic_form(params, cert.config, dps=cert.dps + 20)
        assert replay < 0

    def test_t35_small_weight_certificate(self):
        params = KernelParams(3.5, 0.01)
        cert = scan(params, build_binomial_witness(3))
        assert cert.f_value < 0
        assert cert.value < 0

    def test_no_certified_scale_raises(self, monkeypatch):
        monkeypatch.setattr(kpd.witness, "certify_negative", lambda *args: None)
        with pytest.raises(ToleranceError, match="no negative value"):
            scan(KernelParams(1.5, 1.0), build_binomial_witness(1))

    def test_even_integer_part_rejected(self):
        with pytest.raises(PreconditionError):
            scan(KernelParams(2.5, 1.0), build_binomial_witness(2))
        with pytest.raises(PreconditionError):
            find_negative_scale(KernelParams(1.5, 1.0), build_binomial_witness(1), 0.0)

    # (t, a) -> the first z certified negative, its dps, its q_value as the
    # record stores it, and a ceiling on the mpmath form enclosures, made
    # inside resolve_form_sign or by the scan itself; a scan over z = 2^-k
    # without a binary64 stage made 58, 22, 24 and 8 of them
    @pytest.mark.parametrize(
        "t, a, z, dps, q_value, mp_calls",
        [
            (3.75, 0.01, 2.0**-50, 100, "-1.338625418689734758040744981324833785651764990663912068155838690604752061428807329519996451848483860e-57", 45),
            (1.481906, 0.010063, 2.0**-22, 50, "-0.00000000000012121260631323255162752274242026287045421224023232", 1),
            (3.354057, 0.014399, 2.0**-24, 50, "-4.2206961374242013735311577257577656758808753044919e-26", 11),
            (1.267167, 7.895252, 2.0**-8, 50, "-0.000056652636869077020254335351606415680249198909141738", 1),
        ],
        ids=["t3.75", "t1.48", "t3.35", "t1.27"],
    )
    def test_scan_result_and_its_mpmath_work(self, monkeypatch, t, a, z, dps, q_value, mp_calls):
        stages = []

        def counted(params, config, dps=None, distance=False):
            stages.append(dps)
            return form_enclosure(params, config, dps, distance)

        for module in (kpd.kernel, kpd.witness):
            monkeypatch.setattr(module, "form_enclosure", counted)
        cert = scan(KernelParams(t, a), build_binomial_witness(int(t)))
        assert (cert.z, cert.dps) == (z, dps)
        assert mp.nstr(cert.value, cert.dps, strip_zeros=False) == q_value
        # the enclosure at the reported dps, kept even where binary64 settled
        assert isinstance(cert, Certificate) and isinstance(cert.error_bound, mp.mpf)
        assert cert.value + cert.error_bound < 0
        assert sum(d is not None for d in stages) <= mp_calls


class TestExactIdentities:
    def test_two_point_hand_case(self):
        lhs, rhs = subset_product_identity(1, 0, 1, [0, 1])
        assert lhs == 1
        assert rhs == 1

    def test_empty_subset_case(self):
        lhs, rhs = subset_product_identity(0, 1, 2, [0, 1, 3])
        assert lhs == rhs == 1

    def test_three_point_case(self):
        lhs, rhs = subset_product_identity(2, 1, 2, [0, 1, 3])
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
                            lhs, rhs = subset_product_identity(m, j, k, y)
                            assert lhs == rhs

    @pytest.mark.parametrize(
        "y",
        [
            [Fraction(-2, 3)],
            [Fraction(-1, 2), Fraction(5, 3)],
            [Fraction(-7, 6), Fraction(3, 4), Fraction(-5, 9)],
        ],
        ids=["n1", "n2", "n3"],
    )
    def test_integer_enumeration_matches_fraction_brute_force(self, y):
        n = len(y)
        pairs = [(p, q) for p in range(n) for q in range(n)]
        sq = {pq: (y[pq[0]] - y[pq[1]]) ** 2 for pq in pairs}

        def e(pool, r):
            total = Fraction(0)
            for J in combinations(pool, r):
                term = Fraction(1)
                for pq in J:
                    term *= sq[pq]
                total += term
            return total

        for m in range(0, min(3, n * n - 1) + 1):
            for j, k in pairs:
                lhs = e([pq for pq in pairs if pq != (j, k)], m)
                rhs = sum(
                    ((-1) ** v * sq[j, k] ** v * e(pairs, m - v) for v in range(m + 1)),
                    Fraction(0),
                )
                got = subset_product_identity(m, j, k, y)
                assert got == (lhs, rhs), (m, j, k)
                assert all(type(v) is Fraction for v in got)

    def test_cap_error(self):
        # C(25, 12) = 5200300 subsets exceeds SUBSET_CAP
        with pytest.raises(SizeCapError):
            subset_product_identity(12, 0, 1, list(range(5)))

    def test_bad_indices(self):
        with pytest.raises(DomainError):
            subset_product_identity(1, 0, 2, [0, 1])
        with pytest.raises(DomainError):
            subset_product_identity(4, 0, 1, [0, 1])


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
