import hashlib
import math
from fractions import Fraction
from itertools import combinations, product

import mpmath as mp
import numpy as np
from mpmath import libmp
import pytest
from hypothesis import example, given, settings, strategies as st

import kpd.kernel
import kpd.witness
import object_reference
from object_reference import cleared_form_value
from kpd.errors import DomainError, PreconditionError, SizeCapError, ToleranceError
from kpd.kernel import (
    GUARD,
    Certificate,
    KernelParams,
    PointConfig,
    _fixed_point,
    _fraction,
    _one_plus_d,
    _scaled,
    form_enclosure,
    quadratic_form,
)
from kpd.witness import (
    SERIES_DPS,
    ExponentKey,
    WitnessConfig,
    _clear,
    _weights,
    build_binomial_witness,
    check_moments,
    cleared_form_series,
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
# zero weights c_p c_q for every pair with index 1 or 3, and B_00 = 0
ZERO_WEIGHT_WITNESS = WitnessConfig(
    y=(0, Fraction(1, 3), 1, Fraction(5, 2)),
    c=(Fraction(1, 2), 0, Fraction(-1, 2), 0),
    moment_order=0,
)
# a repeated point: A_pq = 0 off the diagonal too
REPEATED_POINT_WITNESS = WitnessConfig(
    y=(Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)), c=(1, 1, -2), moment_order=0
)


def assert_reference_series(params, w):
    """cleared_form_series has the terms of the dict-keyed expansion: the
    same keys, coefficient types and exact bits."""
    got, want = cleared_form_series(params, w).terms, object_reference.keyed_series(params, w)
    assert got.keys() == want.keys()
    for key, co in want.items():
        assert type(got[key]) is type(co), key
        if isinstance(co, Fraction):
            assert got[key] == co, key
        else:
            assert got[key]._mpf_ == co._mpf_, key
    assert all(type(key) is ExponentKey for key in got)


@st.composite
def rational_witnesses(draw):
    """2-5 rational points and coefficients with a zero sum, some of them 0."""
    n = draw(st.integers(2, 5))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    y = draw(st.lists(rational, min_size=n, max_size=n))
    c = draw(st.lists(rational, min_size=n - 1, max_size=n - 1))
    return WitnessConfig(y=tuple(y), c=(*c, -sum(c, Fraction(0))), moment_order=0)


def exact_expansion(params, w):
    """sum_jk c_j c_k prod_{pq != jk} (1 + A_pq z + B_pq z^t) in exact
    Fractions, one trinomial product per (j, k), with each B_pq taken as
    the exact value of its weight b 2^e0 (:func:`kpd.witness._weights`);
    zero terms dropped."""
    Y, L = _scaled(w.y)
    e0, b = _weights(params, Y, L)
    pairs = [(p, q) for p in range(w.n) for q in range(w.n)]
    B = {(p, q): b[Y[p] ** 2 + Y[q] ** 2] * Fraction(2) ** e0 for p, q in pairs}
    A = {(p, q): (w.y[p] - w.y[q]) ** 2 for p, q in pairs}
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


def assert_within_stated_bounds(params, w):
    """Each weight B = b 2^e0 of :func:`kpd.witness._weights` is within
    2^(1 - prec) B of a (S / L^2)^t, and kappa within 2^(1 - prec) sum |c_j
    c_k| B_jk + 2^-prec |kappa| of -a sum c_j c_k (y_j^2 + y_k^2)^t, both
    taken at 120 digits, whose own error the slack 10^-110 covers."""
    (Y, L), (c, C) = _scaled(w.y), _scaled(w.c)
    e0, b = _weights(params, Y, L)
    prec, kappa = libmp.dps_to_prec(SERIES_DPS), t_power_coefficient(params, w)
    with mp.workdps(120):
        a, t, slack = mp.mpf(params.a), mp.mpf(params.t), mp.mpf(10) ** -110
        B = {s: mp.ldexp(bs, e0) for s, bs in b.items()}
        for s, bs in B.items():
            want = a * (mp.mpf(s) / L**2) ** t if s else 0
            assert abs(bs - want) <= mp.ldexp(bs, 1 - prec) * (1 + slack), s
        pairs = [(cj * ck, yj * yj + yk * yk) for cj, yj in zip(c, Y) for ck, yk in zip(c, Y)]
        want = -a * mp.fsum(cc * (mp.mpf(s) / L**2) ** t for cc, s in pairs if s) / C**2
        scale = mp.fsum(abs(cc) * B[s] for cc, s in pairs) / C**2
        bound = mp.ldexp(scale, 1 - prec) + mp.ldexp(abs(kappa), -prec)
        assert abs(kappa - want) <= bound + slack * scale


def rounded_full_sum(params, w):
    """-sum_jk c_j c_k B_jk over all n^2 ordered pairs in exact Fractions,
    B_jk the weight b 2^e0 of y_j^2 + y_k^2 (:func:`kpd.witness._weights`),
    rounded once to nearest at the prec bits of SERIES_DPS."""
    Y, L = _scaled(w.y)
    e0, b = _weights(params, Y, L)
    pairs = product(zip(w.c, Y), repeat=2)
    total = -sum((cj * ck * b[yj * yj + yk * yk] for (cj, yj), (ck, yk) in pairs), Fraction(0))
    total *= Fraction(2) ** e0
    prec = libmp.dps_to_prec(SERIES_DPS)
    return libmp.from_rational(total.numerator, total.denominator, prec, libmp.round_nearest)


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

    def test_order_cap(self):
        cap = kpd.witness.MAX_WITNESS_ORDER
        assert cap >= 12  # kpd identities builds up to order 12
        # refused before a binomial is taken, at any size
        for order in (cap + 1, 10**9):
            with pytest.raises(SizeCapError):
                build_binomial_witness(order)

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
            pytest.param(2, "641fee9f622891199935f61fa6ed8f60d0ea83a9d2d36d745a926dda612cb6da", id="2"),
            pytest.param(3, "6f80aa952ba61dd8e900a5845508467101489542d0dc8c9597c8bc87990a4fb8", id="3"),
            pytest.param(4, "e8a34897741462331bf02c823e527ff07f65db8681c8912f2d4a030780999193", id="4"),
            pytest.param(
                RATIONAL_WITNESS, "4710959294bdefb5cfc873b83203f4d17e508b29a09a3809c4b5eedadb62ee41", id="rational"
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

    @pytest.mark.parametrize("order", range(7))
    def test_binomial_series_is_the_keyed_expansion(self, order):
        # order 6 has n = 8 points, the most the cap admits
        assert_reference_series(KernelParams(order + 0.37, 2.5), build_binomial_witness(order))

    @pytest.mark.parametrize(
        "w,t",
        [(RATIONAL_WITNESS, 1.37), (RATIONAL_WITNESS, 2.81), (ZERO_WEIGHT_WITNESS, 0.6),
         (REPEATED_POINT_WITNESS, 3.3)],
        ids=["rational-1.37", "rational-2.81", "zero-weights", "repeated-point"],
    )
    def test_rational_series_is_the_keyed_expansion(self, w, t):
        assert_reference_series(KernelParams(t, 0.7), w)

    @settings(max_examples=25, deadline=None)
    @given(
        w=rational_witnesses(),
        t=st.floats(0.05, 4.95).filter(lambda t: abs(t - round(t)) > 0.01),
        a=st.floats(0.01, 20.0),
    )
    def test_random_series_is_the_keyed_expansion(self, w, t, a):
        assert_reference_series(KernelParams(t, a), w)

    def test_expansion_at_the_size_cap(self):
        # order 6: n = 8 points, the largest witness the cap admits
        w, params = build_binomial_witness(6), KernelParams(6.4, 1.0)
        s = cleared_form_series(params, w)
        assert all((i, 0) not in s.terms for i in range(7))
        kappa = t_power_coefficient(params, w)
        assert abs(s.coefficient(0, 1) - kappa) < mp.mpf("1e-40") * abs(kappa)
        assert_within_stated_bounds(params, w)
        assert_within_stated_bounds(KernelParams(6.4, 1e3), w)
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
        # the reference loops over every ordered pair's weight in exact
        # Fractions and rounds once; both lie within kappa's stated bound of
        # the 120-digit sum of every pair's power
        w, params = build_binomial_witness(order), KernelParams(t, 0.3)
        assert t_power_coefficient(params, w)._mpf_ == rounded_full_sum(params, w)
        assert_within_stated_bounds(params, w)


    @pytest.mark.parametrize("t", [49.9, 51.1, 55.5, 63.5])
    def test_sign_survives_the_cancellation(self, t):
        # the binomial witness cancels about 1.1 T digits, more than
        # SERIES_DPS holds from T = 45: the weights climb the ladder until
        # their bound excludes zero, and kappa has the sign of (-1)^T
        w = build_binomial_witness(math.floor(t))
        assert t_power_coefficient(KernelParams(t, 1.0), w) < 0

    def test_equals_series_coefficient_bit_for_bit(self):
        params, w = KernelParams(5.5, 1.0), build_binomial_witness(5)
        kappa = t_power_coefficient(params, w)
        assert kappa._mpf_ == cleared_form_series(params, w).coefficient(0, 1)._mpf_

    def test_unresolved_sign_raises(self, monkeypatch):
        # weights of an exactly cancelling sum resolve at no rung
        params, w = KernelParams(1.5, 1.0), build_binomial_witness(1)
        monkeypatch.setattr(kpd.witness, "_weights", lambda *args: (0, {s: 1 for s in (0, 1, 2, 4, 5, 8)}))
        with pytest.raises(ToleranceError):
            t_power_coefficient(params, w)


class TestPrecisionArgument:
    @pytest.mark.parametrize("dps", [0, -5, 2.5, 50.0, None])
    def test_invalid_dps_rejected(self, dps):
        w, params = build_binomial_witness(1), KernelParams(1.5, 1.0)
        with pytest.raises(DomainError):
            cleared_form_value(params, w, 0.5, dps=dps)


class TestPairData:
    @pytest.mark.parametrize("order", [0, 1, 3, 5])
    def test_b_is_symmetric_and_exact(self, order):
        # y = Y / L exactly; B_pq = B_qp is one weight per y_p^2 + y_q^2,
        # within its stated bound of the power at 120 digits
        w, params = build_binomial_witness(order), KernelParams(order + 0.75, 0.01)
        Y, L = _scaled(w.y)
        assert [Fraction(v, L) for v in Y] == list(w.y)
        e0, b = _weights(params, Y, L)
        assert set(b) == {yp * yp + yq * yq for yp in Y for yq in Y} and e0 <= 0
        assert b[0] == 0 and all(v > 0 for s, v in b.items() if s)
        assert_within_stated_bounds(params, w)


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

    def test_each_sum_is_powered_once_per_rung(self, monkeypatch):
        # kpd witness --t 3.75 --a 0.01: kappa and the scan, which climbs to
        # 100 digits, read one mpf_pow of each nonzero y_j^2 + y_k^2 per rung
        # (14 of them, 4 among them), plus at most one of 4^t; powering at
        # every scan step made 336
        params, w, keys, precs = KernelParams(3.75, 0.01), build_binomial_witness(3), [], set()
        mpf_pow = libmp.mpf_pow

        def counted_pow(s, t, prec, rnd):
            keys.append((libmp.to_int(s), prec))
            return mpf_pow(s, t, prec, rnd)

        def counted_rung(params, config, prec, distance):
            precs.add(prec)
            return _fixed_point(params, config, prec, distance)

        monkeypatch.setattr(kpd.kernel.libmp, "mpf_pow", counted_pow)
        monkeypatch.setattr(kpd.kernel, "_fixed_point", counted_rung)
        monkeypatch.setattr(kpd.witness, "_fixed_point", counted_rung)
        assert scan(params, w).dps == 100 and len(precs) == 2
        sums = {yj * yj + yk * yk for yj in w.y for yk in w.y} - {0}
        assert len(keys) == len(set(keys)) <= len(precs) * (len(sums) + 1), len(keys)

    # (t, a) -> the first z certified negative, its dps, its q_value as the
    # record stores it, and a ceiling on the mpmath form enclosures, made
    # inside resolve_form_sign or by the scan itself; a scan over z = 2^-k
    # without a binary64 stage made 58, 22, 24 and 8 of them
    @pytest.mark.parametrize(
        "t, a, z, dps, q_value, mp_calls",
        [
            (3.75, 0.01, 2.0**-50, 100, "-1.338625418689734758040744981324833785651764913367157335443394824937749405037341077523153540248086116e-57", 45),
            (1.481906, 0.010063, 2.0**-22, 50, "-0.00000000000012121260631323255162752274242026287045567651855494", 1),
            (3.354057, 0.014399, 2.0**-24, 50, "-4.2206961374242013735311562700928449547700238859595e-26", 11),
            (1.267167, 7.895252, 2.0**-8, 50, "-0.000056652636869077020254335351606415680249198909142602", 1),
        ],
        ids=["t3.75", "t1.48", "t3.35", "t1.27"],
    )
    def test_scan_result_and_its_mpmath_work(self, monkeypatch, t, a, z, dps, q_value, mp_calls):
        stages = []

        def counted(params, config, dps=None, distance=False):
            stages.append(dps)
            return form_enclosure(params, config, dps, distance)

        def counted_rung(params, config, prec, distance):
            stages.append(prec)
            return _fixed_point(params, config, prec, distance)

        # the scan's own enclosure at the next rung calls the rung directly
        monkeypatch.setattr(kpd.kernel, "form_enclosure", counted)
        monkeypatch.setattr(kpd.witness, "_fixed_point", counted_rung)
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


@st.composite
def rational_witnesses(draw):
    """Distinct rational points y and the divided-difference weights
    c_j = s / prod_{k != j} (y_j - y_k) times a rational s, which
    annihilate the moments 0..n-2; the stated moment order is drawn from 0..n-2."""
    values = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    y = draw(st.lists(values, min_size=2, max_size=5, unique=True))
    s = draw(values.filter(bool))
    c = [s / math.prod(yj - yk for yk in y if yk != yj) for yj in y]
    return WitnessConfig(tuple(y), tuple(c), draw(st.integers(0, len(y) - 2)))


class TestIntegerArithmetic:
    """The integer sums over scaled points and the once-per-pair
    evaluations equal their plain Fraction and n^2 references exactly."""

    @given(rational_witnesses(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_moments_and_difference_sums_are_the_fraction_sums(self, w, v):
        pairs = [(cj * ck, yj - yk) for cj, yj in zip(w.c, w.y) for ck, yk in zip(w.c, w.y)]
        moments = check_moments(w, w.n + 1)
        assert all(type(m) is Fraction for m in moments)
        for ell, moment in enumerate(moments):
            assert moment == sum((cj * yj**ell for cj, yj in zip(w.c, w.y)), Fraction(0))
        total = sum((weight * d ** (2 * v) for weight, d in pairs), Fraction(0))
        assert difference_power_sum(v, w) == (-1) ** v * total

    @given(rational_witnesses(), st.floats(0.05, 0.95), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    # y = +-2 share one y^2: kappa is exactly 0, which no rung's bound excludes
    @example(WitnessConfig((2, -2), (Fraction(1, 4), Fraction(-1, 4)), 0), 0.5, 1.0)
    def test_t_power_coefficient_is_the_full_sum_bit_for_bit(self, w, frac, a):
        # one set of weights, one exact sum, one rounding: kappa is the n^2
        # sum rounded once and the z^t coefficient of the series, which
        # stores no zero coefficient
        params = KernelParams(w.moment_order + frac, a)
        kappa = t_power_coefficient(params, w)
        assert kappa._mpf_ == rounded_full_sum(params, w)
        co = cleared_form_series(params, w).coefficient(0, 1)
        assert kappa._mpf_ == co._mpf_ if kappa else co == 0

    @given(rational_witnesses(), st.floats(0.05, 0.95), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    @example(WitnessConfig((2, -2), (Fraction(1, 4), Fraction(-1, 4)), 0), 0.5, 1.0)
    def test_weights_and_kappa_within_their_bounds(self, w, frac, a):
        assert_within_stated_bounds(KernelParams(w.moment_order + frac, a), w)

    @given(
        rational_witnesses(),
        st.floats(0.1, 6.0),
        st.floats(0.01, 13.0),
        st.integers(0, 30),
        st.sampled_from([50, 100, 200, 400, 800]),
    )
    @settings(max_examples=40, deadline=None)
    def test_cleared_form_is_the_full_grid_product_bit_for_bit(self, w, t, a, m, dps):
        # q's fixed-point enclosure meets the full grid of mpf object arrays
        # (the earlier libmp rung); f, the product over the full n x n grid
        # of the rows (1 + D_pq) L^2 2^wp that rung read, times pi and q, is
        # within two ulps of a product 40 digits wider
        params = KernelParams(t, a)
        config = PointConfig(tuple(yj / 2**m for yj in w.y), w.c)
        prec = libmp.dps_to_prec(dps)
        q, bound, rows = _fixed_point(params, config, prec, False)
        assert (q, bound) == form_enclosure(params, config, dps)
        want, want_bound = object_reference.form_enclosure(params, config, dps)
        assert abs(_fraction(q) - _fraction(want)) <= _fraction(bound) + _fraction(want_bound)
        assert rows == _one_plus_d(params, *_scaled(config.points), prec + 2 * GUARD)
        f = _clear(config, q, dps, rows)
        ref = object_reference.cleared_form(params, config, q, dps + 40)
        with mp.workdps(dps + 40):
            assert abs(f - ref) <= abs(ref) * mp.ldexp(1, 2 - prec)
