import math
import warnings
from fractions import Fraction
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import object_reference
from kpd.definiteness import cnd_check, pd_check
from kpd.errors import DomainError, ToleranceError
from kpd.kernel import (
    DPS_CAP,
    DPS_LADDER,
    Certificate,
    KernelParams,
    PointConfig,
    _bound,
    _fraction,
    _matrix,
    certify_negative,
    distance_form,
    form_enclosure,
    kernel_matrix,
    next_rung,
    quadratic_form,
    resolve_form_sign,
)
from kpd.witness import build_binomial_witness

INV_PI = 1.0 / math.pi


def kernel_entry(params, x, y):
    """K(x, y): the kernel_matrix entry of the points x and y."""
    return float(kernel_matrix(params, [x], [y])[0, 0])


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
params_st = st.builds(
    KernelParams,
    t=st.floats(min_value=0.1, max_value=6.0),
    a=st.floats(min_value=1e-3, max_value=1e3),
)


class TestValidation:
    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            KernelParams(t=0.0, a=1.0)
        with pytest.raises(DomainError):
            KernelParams(t=-1.0, a=1.0)

    def test_rejects_nonpositive_a(self):
        with pytest.raises(DomainError):
            KernelParams(t=1.0, a=0.0)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            KernelParams(t=float("nan"), a=1.0)
        with pytest.raises(DomainError):
            distance_form(KernelParams(1.0, 1.0), float("nan"), 0.0)
        with pytest.raises(DomainError):
            distance_form(KernelParams(1.0, 1.0), 0.0, float("inf"))

    def test_config_length_mismatch(self):
        with pytest.raises(DomainError):
            PointConfig((0.0, 1.0), (1.0,))
        with pytest.raises(DomainError):
            PointConfig((), ())

    def test_gram_requires_positive_diagonal(self):
        # at t = 1e6 the entry at (2, 2) underflows to 0
        with pytest.raises(DomainError, match="Gram diagonal must be strictly positive"):
            pd_check(KernelParams(1e6, 2.0), (0.0, 2.0), tolerance=1e-10)


class TestEvalKernel:
    """Single kernel values: kernel_matrix entries."""

    def test_origin_is_inv_pi(self):
        assert kernel_entry(KernelParams(2.0, 1.0), 0.0, 0.0) == pytest.approx(
            INV_PI, rel=1e-15
        )

    def test_unit_points(self):
        # denominator 1 + 1 + 1*(1+0)^1 = 3
        assert kernel_entry(KernelParams(1.0, 1.0), 1.0, 0.0) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-15
        )

    def test_against_high_precision(self):
        # independent mpmath evaluation at the exact same float inputs
        x = math.sqrt(0.2)
        got = kernel_entry(KernelParams(2.0, 13.0), x, 0.0)
        with mp.workdps(40):
            xm = mp.mpf(x)
            want = 1 / (mp.pi * (1 + xm**2 + 13 * (xm**2) ** 2))
            assert abs(got - float(want)) < 1e-15
        assert got == pytest.approx(1.0 / (1.72 * math.pi), rel=1e-12)

    @given(params_st, finite_floats, finite_floats)
    @settings(max_examples=80, deadline=None)
    def test_symmetry_bitwise(self, params, x, y):
        assert kernel_entry(params, x, y) == kernel_entry(params, y, x)

    @given(params_st, finite_floats, finite_floats)
    @settings(max_examples=80, deadline=None)
    def test_range(self, params, x, y):
        v = kernel_entry(params, x, y)
        assert 0.0 < v <= INV_PI
        # equality only where the distance form vanishes at working
        # precision (exactly at the origin; underflow can add more)
        if distance_form(params, x, y) > 1e-15:
            assert v < INV_PI

    def test_strict_maximum_only_at_origin(self):
        params = KernelParams(1.0, 1.0)
        assert kernel_entry(params, 0.0, 0.0) == INV_PI
        for (x, y) in ((1e-6, 0.0), (0.0, -1e-6), (0.5, 0.5), (3.0, -2.0)):
            assert kernel_entry(params, x, y) < INV_PI


class TestDistanceForm:
    def test_zero_at_origin(self):
        assert distance_form(KernelParams(0.5, 1.0), 0.0, 0.0) == 0.0

    def test_hand_value(self):
        # 1 + 2*sqrt(25) = 11
        assert distance_form(KernelParams(0.5, 2.0), 3.0, 4.0) == pytest.approx(
            11.0, rel=1e-15
        )

    def test_high_precision_value(self):
        got = distance_form(KernelParams(1.5, 1.0), 1.0, -1.0)
        assert got == pytest.approx(4.0 + 2.0**1.5, rel=1e-15)

    @given(params_st, finite_floats)
    @example(KernelParams(1.0, 1.0), 2.3838313829684797e-156)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_matches_power(self, params, x):
        # d(x, x) = a * (x^2 + x^2)^t >= 0 with Python's float power;
        # summed as in the definition, since 2.0 * x * x rounds
        # differently once x^2 is subnormal
        got = distance_form(params, x, x)
        assert got == (x * x + x * x) ** params.t * params.a
        assert got >= 0.0

    def test_zero_power_convention(self):
        # 0**s = 0 for s > 0, however small s is
        for t in (1e-3, 0.5, 1.0, 4.5):
            assert kernel_matrix(KernelParams(t, 3.0), [0.0], [0.0])[0, 0] == INV_PI
            assert distance_form(KernelParams(t, 3.0), 0.0, 0.0) == 0.0

    @given(params_st, finite_floats, finite_floats)
    @example(KernelParams(2.0026073774223874, 1.0), 897090.78125, 897090.78125)
    @settings(max_examples=80, deadline=None)
    def test_is_the_loop_entry(self, params, x, y):
        # bit for bit the entry of the binary64 rung's loop, in a larger
        # point set too, and of the form of one point; at the example numpy's
        # array power differs from Python's ** by an ulp
        got = distance_form(params, x, y)
        want = _matrix(params, [0.0, x, 1.5, y, -2.0], True)[1][3]
        assert got.hex() == want.hex()
        if x == y:
            one_point = form_enclosure(params, PointConfig((x,), (1.0,)), distance=True)[0]
            assert got.hex() == one_point.hex()

    def test_overflow_is_inf_without_warning(self):
        # 4**1e6 overflows binary64: the distance is its limit inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert distance_form(KernelParams(1e6, 2.0), 2.0, 0.0) == math.inf


class TestGramMatrix:
    """The numpy kernel grid of the spectral evidence: kernel_matrix(x, x)."""

    def test_single_point(self):
        g = kernel_matrix(KernelParams(0.7, 2.0), [0.0], [0.0])
        assert g.shape == (1, 1)
        assert g[0, 0] == pytest.approx(INV_PI, rel=1e-15)

    def test_duplicated_points_rank_one(self):
        g = kernel_matrix(KernelParams(1.0, 1.0), [0.0, 0.0], [0.0, 0.0])
        assert np.all(g == g[0, 0])
        assert abs(np.linalg.det(g)) < 1e-30

    def test_two_point_negative_determinant(self):
        # Schwarz check: margin(0.2; 2, 13) = 1.72^2 - 3.08 < 0, so det < 0
        x = [math.sqrt(0.2), 0.0]
        assert np.linalg.det(kernel_matrix(KernelParams(2.0, 13.0), x, x)) < 0

    @given(params_st, st.lists(finite_floats, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_exact_symmetry_and_positive_diagonal(self, params, pts):
        g = kernel_matrix(params, pts, pts)
        assert np.array_equal(g, g.T)
        assert np.all(np.diag(g) > 0)

    def test_entry_beyond_binary64_is_zero_without_warning(self):
        # d(0, 1e154) = 1e308 + 1e154 is finite, pi (1 + d) is not; the
        # entry is the limit 0, under pyproject's error::RuntimeWarning
        assert kernel_matrix(KernelParams(0.5, 1.0), [0.0], [1e154])[0, 0] == 0.0
        # here x - y itself overflows
        assert kernel_matrix(KernelParams(2.0, 1.0), [1e308], [-1e308])[0, 0] == 0.0

    def test_overflowing_square_sum_keeps_a_finite_entry(self):
        # 1e154^2 + 1e154^2 overflows binary64, yet its square root, the
        # distance at t = 1/2, and the entry 2.25e-155 are finite; the entries
        # whose x^2 + y^2 stays finite are computed as before
        x = [0.0, 1e154]
        got = kernel_matrix(KernelParams(0.5, 1.0), x, x)
        with mp.workdps(30):
            want = 1 / (mp.pi * (1 + mp.sqrt(2) * mp.mpf(1e154)))
        assert got[1, 1] == pytest.approx(float(want), rel=1e-15)
        assert (got[0, 0], got[0, 1], got[1, 0]) == (INV_PI, 0.0, 0.0)

    def test_vectorized_matches_scalar(self):
        # numpy's power may differ from Python's ** by an ulp, so the grid
        # matches the loop's entries within the error the form_enclosure
        # bound allows each of them (the one-term form of the entry)
        params = KernelParams(1.7, 0.3)
        x = [-2.0, 0.0, 0.5, 3.0]
        m = kernel_matrix(params, x, x)
        loop = _matrix(params, x, False)
        for i, xi in enumerate(x):
            for j, xj in enumerate(x):
                assert loop[i][j] == 1 / ((1 + distance_form(params, xi, xj)) * math.pi)
                allowed = _bound(params, 1, False, loop[i][j])
                assert abs(m[i, j] - loop[i][j]) <= 2 * allowed


class TestQuadraticForm:
    def test_zero_coefficients(self):
        cfg = PointConfig((1.0, 2.0), (0.0, 0.0))
        assert quadratic_form(KernelParams(1.0, 1.0), cfg) == 0.0

    def test_single_point_positive(self):
        cfg = PointConfig((3.0,), (1.0,))
        params = KernelParams(1.0, 1.0)
        assert quadratic_form(params, cfg) == pytest.approx(
            kernel_entry(params, 3.0, 3.0), rel=1e-15
        )

    def test_eigenvector_direction_negative(self):
        # 2x2 eigen-decomposition oracle
        params = KernelParams(2.0, 13.0)
        x = math.sqrt(0.2)
        vals, vecs = np.linalg.eigh(kernel_matrix(params, [x, 0.0], [x, 0.0]))
        assert vals[0] < 0
        cfg = PointConfig((x, 0.0), tuple(vecs[:, 0]))
        assert quadratic_form(params, cfg) == pytest.approx(vals[0], abs=1e-14)

    @given(
        params_st,
        st.lists(
            st.tuples(finite_floats, st.floats(min_value=-3, max_value=3)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_double_sum(self, params, pairs):
        pts = tuple(p for p, _ in pairs)
        cs = tuple(c for _, c in pairs)
        cfg = PointConfig(pts, cs)
        got = quadratic_form(params, cfg)
        naive = 0.0
        scale = 0.0
        for j in range(len(pts)):
            for k in range(len(pts)):
                term = cs[j] * cs[k] * kernel_entry(params, pts[j], pts[k])
                naive += term
                scale += abs(term)
        # 8 units of accumulated rounding across n^2 terms
        assert abs(got - naive) <= 8 * len(pts) ** 2 * 2.3e-16 * max(scale, 1e-300)

    def test_high_precision_path_agrees(self):
        params = KernelParams(1.5, 1.0)
        cfg = PointConfig((0.0, 0.25, 0.5), (1.0, -2.0, 1.0))
        f64 = quadratic_form(params, cfg)
        hp = quadratic_form(params, cfg, dps=50)
        assert abs(f64 - float(hp)) < 1e-14

    def test_resolve_form_sign_escalates(self):
        # A strongly cancelling configuration: the witness at tiny scale.
        params = KernelParams(1.5, 1.0)
        z = 2.0**-30
        r = math.sqrt(z)
        cfg = PointConfig((0.0, r, 2.0 * r), (1.0, -2.0, 1.0))
        value, dps, bound = resolve_form_sign(params, cfg)
        assert value < 0
        assert dps in DPS_LADDER[1:]
        assert value + bound < 0
        # an exactly zero form is never resolved, however far it escalates
        zero = PointConfig((0.5, 0.5), (1, -1))
        with pytest.raises(ToleranceError, match="at dps 800"):
            resolve_form_sign(params, zero)

    def test_one_ladder_and_no_precision_argument(self):
        # binary64, then mpmath from 50 digits doubling to the cap
        assert DPS_LADDER == (None, 50, 100, 200, 400, 800) and DPS_CAP == 800
        assert [next_rung(d) for d in (17, 50, 100, 200, 400, 800)] == [
            50, 100, 200, 400, 800, 800
        ]
        # distance and threshold are keywords: a third positional is refused
        with pytest.raises(TypeError):
            resolve_form_sign(KernelParams(2.0, 13.0), PointConfig((0.0,), (1.0,)), 30)


class TestCertifyNegative:
    def test_negative_form_certifies(self):
        # the two-point violation at t = 2, a = 13: binary64 settles it
        params = KernelParams(2.0, 13.0)
        cfg = pd_check(params, (math.sqrt(0.2), 0.0), tolerance=0.0).certificate.config
        cert = certify_negative(params, cfg)
        assert isinstance(cert, Certificate)
        assert cert.config is cfg
        assert cert.dps == 17
        assert (cert.value, cert.error_bound) == form_enclosure(params, cfg)
        assert cert.value + cert.error_bound < 0

    def test_escalated_form_certifies_in_mpmath(self):
        # the cancelling witness of test_resolve_form_sign_escalates
        params = KernelParams(1.5, 1.0)
        r = math.sqrt(2.0**-30)
        cert = certify_negative(params, PointConfig((0.0, r, 2.0 * r), (1.0, -2.0, 1.0)))
        assert cert is not None and cert.dps >= 30
        assert isinstance(cert.value, mp.mpf)
        assert cert.value + cert.error_bound < 0

    def test_positive_form_gives_none(self):
        params = KernelParams(2.0, 13.0)
        assert certify_negative(params, PointConfig((0.0, 1.0), (1.0, 1.0))) is None
        # the lowest Gram eigenvector at duplicated points, with eigenvalue
        # -2.6e-17: its form, +3.7e-30, is inside the binary64 bound and
        # resolved positive at 50 digits
        cfg = PointConfig(
            (0.5, 0.0, 0.5), (-0.707106781186663, 1.1207701433590955e-13, 0.7071067811864318)
        )
        assert form_enclosure(params, cfg)[1] > 1e-20
        assert resolve_form_sign(params, cfg)[0] > 0
        assert certify_negative(params, cfg) is None

    def test_zero_form_gives_none(self):
        # exactly zero: resolve_form_sign raises ToleranceError at the cap
        zero = PointConfig((0.5, 0.5), (1, -1))
        assert certify_negative(KernelParams(1.5, 1.0), zero) is None


# the fixed-point rungs' inputs: integer and non-integer t, and 1-6 points
# from 2^-500 up to 1e150 (and 0) as floats, dyadic and non-dyadic Fractions
# and 60-digit mpfs, with their coefficients
rung_t = st.one_of(st.integers(1, 6).map(float), st.floats(0.1, 6.0))
rung_triples = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.builds(math.ldexp, st.floats(-2, 2), st.integers(-500, 497))),
        st.floats(-3, 3),
        st.sampled_from(["float", "dyadic", "fraction", "mpf"]),
    ),
    min_size=1,
    max_size=6,
)


def rung_config(triples):
    """The PointConfig of (point, coefficient, kind) triples."""
    def convert(v, kind):
        with mp.workdps(60):
            return {"float": v, "dyadic": Fraction(v), "fraction": Fraction(v) / 3,
                    "mpf": mp.mpf(v) / 3}[kind]

    return PointConfig([convert(x, k) for x, _, k in triples], [convert(c, k) for _, c, k in triples])


def _as_kind(kind, value):
    """A float input as a Fraction near it, or as the mpf of a 17-digit
    decimal string."""
    if kind == "fraction":
        return Fraction(value).limit_denominator(10**6)
    if kind == "decimal":
        with mp.workdps(60):
            return mp.mpf(f"{value:.16e}")
    return value


class TestFormEnclosure:
    @given(
        params_st,
        st.integers(min_value=1, max_value=80).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.floats(min_value=-50, max_value=50),
                    st.floats(min_value=-3, max_value=3),
                ),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from(["float", "fraction", "decimal"]),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    # coincident points: a distance form of 2e-304, beside the underflow term
    @example(KernelParams(2.0, 1.0), [(8.520522545335498e-77, 1.0)], "float", True)
    def test_enclosure_contains_high_precision_form(self, params, pairs, kind, distance):
        cfg = PointConfig(
            tuple(_as_kind(kind, p) for p, _ in pairs),
            tuple(_as_kind(kind, c) for _, c in pairs),
        )
        exact, exact_bound = form_enclosure(params, cfg, dps=120, distance=distance)
        if not distance:
            assert exact == quadratic_form(params, cfg, dps=120)
        for dps in (None, 30):
            value, bound = form_enclosure(params, cfg, dps=dps, distance=distance)
            with mp.workdps(130):  # compare without rounding the difference
                assert abs(value - exact) <= bound + exact_bound, (dps, value, bound)
        # binary64 bounds only inputs it holds exactly; unless one of those is
        # tiny, its bound is within twice the leading terms of its
        # derivation, plus an underflow allowance below 1e-290 here
        bound = form_enclosure(params, cfg, distance=distance)[1]
        inputs = (*cfg.points, *cfg.coeffs)
        if any(v != float(v) for v in inputs):
            assert bound == math.inf
            return
        x, c = np.array(cfg.points, dtype=float), np.array(cfg.coeffs, dtype=float)
        if any(0 < abs(v) < 2.0**-511 for v in inputs):
            return
        m = np.array(_matrix(params, x.tolist(), distance))
        scale = np.abs(c) @ np.abs(m) @ np.abs(c)
        terms = (2 * cfg.n + 6 * math.ceil(params.t) + 22) * scale
        assert bound <= 2 * terms * 2.0**-53 + 1e-290

    @given(rung_t, st.floats(1e-3, 1e3), rung_triples, st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(1.75, 1.0, [(0.5, 1.0, "float"), (6.166184593152453e-33, 1.0, "float")], False)
    # past t = 64 integer powers go through mpf_pow too
    @example(100.0, 0.5, [(0.75, 1.0, "float"), (1.125, -2.0, "fraction"), (0.0, 1.0, "mpf")], False)
    @example(100.0, 0.5, [(0.75, 1.0, "float"), (1.125, -2.0, "fraction"), (0.0, 1.0, "mpf")], True)
    # far points: kernel entries near 1e-801, far below 2^-W
    @example(2.0, 1.0, [(1e200, -1.0, "float"), (1.0000001e200, 1.0, "fraction")], False)
    @example(2.5, 1.0, [(1e150, -1.0, "mpf"), (1.0000001e150, 1.0, "dyadic")], False)
    def test_fixed_point_rungs_contain_the_reference(self, t, a, triples, distance):
        # points from 2^-500 up to 1e150 as floats, dyadic and non-dyadic
        # Fractions and 60-digit mpfs: every rung above binary64 encloses a
        # 1000-digit evaluation of the full grid of mpfs, or for integer t
        # the exact form (a Fraction, times 1/pi for the kernel)
        params, cfg = KernelParams(t, a), rung_config(triples)
        if t.is_integer():
            x, c = [_fraction(v) for v in cfg.points], [_fraction(v) for v in cfg.coeffs]
            d = [[(xj - xk) ** 2 + Fraction(a) * (xj * xj + xk * xk) ** int(t) for xk in x] for xj in x]
            exact = sum(cj * ck * (djk if distance else 1 / (1 + djk))
                        for cj, row in zip(c, d) for ck, djk in zip(c, row))
            with mp.workdps(1100):
                ref = mp.mpf(exact.numerator) / exact.denominator / (1 if distance else mp.pi)
                ref, ref_bound = _fraction(ref), abs(_fraction(ref)) / 10**1090
        else:
            ref, ref_bound = map(_fraction, object_reference.form_enclosure(params, cfg, 1000, distance))
        for dps in DPS_LADDER[1:]:
            value, bound = form_enclosure(params, cfg, dps, distance)
            assert abs(_fraction(value) - ref) <= _fraction(bound) + ref_bound, (dps, value, bound)

    @given(rung_t, st.floats(1e-3, 1e3), st.lists(rung_triples, min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    # past t = 64 integer powers go through the memo too
    @example(100.0, 0.5, [[(0.75, 1.0, "float"), (1.125, -2.0, "fraction")], [(0.0, 1.0, "mpf")]])
    @example(2.5, 1.0, [[(1e150, -1.0, "mpf"), (1.0000001e150, 1.0, "dyadic")], [(1e150, 1.0, "float")]])
    @example(3.75, 0.01, [[(2.0**-500, 1.0, "dyadic"), (1.5, -1.0, "float")], [(2.0**-499, 2.0, "mpf")]])
    def test_power_memo_never_changes_a_result(self, t, a, triples):
        # a KernelParams that has served other configurations, the last one
        # halved (its sums of squares at another L, as a witness scan's next
        # step), every rung and both forms encloses the last configuration
        # bit for bit as a fresh KernelParams does
        *served, last = map(rung_config, triples)
        halved = PointConfig([v / 2 for v in last.points], last.coeffs)
        params = KernelParams(t, a)
        for cfg, dps, distance in product([*served, halved, last], DPS_LADDER[1:], (False, True)):
            form_enclosure(params, cfg, dps, distance)
        for dps, distance in product(DPS_LADDER[1:], (False, True)):
            got = form_enclosure(params, last, dps, distance)
            want = form_enclosure(KernelParams(t, a), last, dps, distance)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (dps, distance)
        # the memo takes no part in equality, hashing or repr
        fresh = KernelParams(t, a)
        assert params._pows
        assert params == fresh and hash(params) == hash(fresh)
        assert repr(params) == repr(fresh) == f"KernelParams(t={t!r}, a={a!r})"

    def test_astronomic_powers_stay_small(self):
        # 2.42^(1e9) has a binary exponent past 2^30.  The kernel entries of
        # a power that large are far below the form's units, so they are 0
        # without forming the power's integer, and a form of the point 1.1
        # against the point 0 (K = 1/pi) resolves at 50 digits; the distance
        # form keeps its block exponent apart from its integers and resolves
        # a form near 3.38^(1e9) there too
        params = KernelParams(1e9, 1.0)
        cfg = PointConfig((0.0, 1.1), (1.0, 1e-20))
        # binary64's 1/pi is 2e-17 above it: only the fixed-point rungs see that
        value, dps, bound = resolve_form_sign(params, cfg, threshold=0.3183098861837907)
        with mp.workdps(60):
            assert dps == 50 and abs(value - 1 / mp.pi) < 1e-45
        cfg = PointConfig((1.1, 1.3), (1.0, -1.0))
        value, dps, bound = resolve_form_sign(params, cfg, distance=True)
        with mp.workdps(60):
            want = 1e9 * mp.log10(mp.mpf(1.3) ** 2 * 2)
            assert dps == 50 and bound < value * 1e-45 and abs(mp.log10(value) - want) < 1e-6

    def test_overflowing_binary64_stage_is_silent(self):
        # d(0, 1e200) overflows binary64: the stage's NaN value and infinite
        # bound exclude nothing, without a warning, and mpmath decides
        params, cfg = KernelParams(2.0, 1.0), PointConfig((0.0, 1e200), (1.0, -1.0))
        value, bound = form_enclosure(params, cfg, distance=True)
        assert math.isnan(value) and bound == math.inf
        assert cnd_check(params, cfg, 1e-10).failed

    def test_overflowing_power_is_inf_without_warning(self):
        # 100^200 and 200^200 overflow binary64: the kernel entries are 0
        # and the form resolves in binary64, while the distance form's
        # inf - inf excludes nothing
        params, cfg = KernelParams(200.0, 1.0), PointConfig((0.0, 10.0), (1.0, -1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert form_enclosure(params, cfg) == (0.3183098861837907, 4.332622266084263e-14)
            assert resolve_form_sign(params, cfg)[1] == 17
            value, bound = form_enclosure(params, cfg, distance=True)
            # where x^2 + y^2 overflows, the entry is the finite
            # hypot(x, y)^(2t)
            huge = form_enclosure(KernelParams(0.5, 1.0), PointConfig((1e155,), (1.0,)), distance=True)
        assert math.isnan(value) and bound == math.inf
        assert huge[0] == distance_form(KernelParams(0.5, 1.0), 1e155, 1e155) < math.inf

    def test_binary64_rung_is_the_libmp_loop_at_53_bits(self):
        # dps 15 is 53 bits, rounding to nearest even as binary64 does; with
        # points k/8 and t in {1, 2, 3} every power is exact, so the binary64
        # rung and the earlier libmp loop, kept as the mpf object-array
        # reference, run the same operations in the same order and agree
        # bit for bit
        rng = np.random.default_rng(30)
        for _ in range(3000):
            n = int(rng.integers(1, 7))
            cfg = PointConfig(
                [int(k) / 8 for k in rng.integers(-64, 65, n)],
                [int(k) / 2**16 for k in rng.integers(-(2**16), 2**16 + 1, n)],
            )
            params = KernelParams(float(rng.integers(1, 4)), float(rng.uniform(0.01, 20)))
            for distance in (False, True):
                value = form_enclosure(params, cfg, distance=distance)[0]
                wide = object_reference.form_enclosure(params, cfg, 15, distance)[0]
                assert mp.mpf(value) == wide, (params, cfg, distance)

    @pytest.mark.parametrize("kind", ["mpf", "wide", "float", "fraction", "dyadic"])
    def test_triangle_stage_equals_full_grid(self, kind):
        # the fixed-point rungs evaluate the upper triangle once and sum it
        # exactly; their enclosure must meet the one of the full n x n grid
        # of mpf object arrays, the earlier libmp rungs, at the same digits.
        # "mpf" inputs carry 60 digits, between the rungs; "wide" ones
        # 1000, more than any rung; "dyadic" points are the witness scan's
        # y_j / 2^m.
        def convert(v):
            with mp.workdps(1000 if kind == "wide" else 60):
                return mp.mpf(v) / 3 if kind in ("mpf", "wide") else _as_kind(kind, v)

        rng = np.random.default_rng(8)
        for n in range(1, 10):
            if kind == "dyadic":
                w = build_binomial_witness(n - 1)
                m = int(rng.integers(0, 40))
                cfg = PointConfig([y / 2**m for y in w.y], w.c)
            else:
                cfg = PointConfig(
                    [convert(v) for v in rng.uniform(-2, 2, n)],
                    [convert(v) for v in rng.uniform(-3, 3, n)],
                )
            for t in (2.0, 1.37, 3.0):
                params = KernelParams(t, 0.7)
                for dps in (30, 120, (50, 200, 400, 800)[n % 4]):
                    for distance in (False, True):
                        value, bound = form_enclosure(params, cfg, dps=dps, distance=distance)
                        want, want_bound = object_reference.form_enclosure(params, cfg, dps, distance)
                        gap = abs(_fraction(value) - _fraction(want))
                        assert gap <= _fraction(bound) + _fraction(want_bound), (n, t, dps, distance)

    def test_fraction_converts_with_one_rounding(self):
        # a wide Fraction is the nearest mpf: within half an ulp, checked
        # in exact rational arithmetic
        rng = np.random.default_rng(15)
        with mp.workdps(15):
            prec = mp.mp.prec
            for _ in range(2000):
                num = int("".join(map(str, rng.integers(0, 10, 40)))) + 1
                den = int("".join(map(str, rng.integers(0, 10, 30)))) + 1
                q = Fraction(int(rng.choice((-1, 1))) * num, den)
                sign, man, exp, bits = object_reference._as_mpf(q)._mpf_
                x = (-1) ** sign * Fraction(man) * Fraction(2) ** exp
                assert abs(q - x) <= Fraction(2) ** (exp + bits - 1 - prec), q

    def test_void_derivation_gets_infinite_bound(self):
        params = KernelParams(2.0, 1.0)
        cfg = PointConfig((0.0, 2.0), (1.0, 1.0))
        # the fixed-point rungs' derivation holds at any precision: at 7 bits
        # or fewer the bound is finite and encloses the form 1/pi + 2/(21 pi)
        # + 1/(65 pi)
        exact = Fraction(1) + Fraction(2, 21) + Fraction(1, 65)
        for dps in (-1, 0, 1):
            value, bound = form_enclosure(params, cfg, dps=dps)
            with mp.workdps(50):
                assert abs(value - mp.mpf(exact.numerator) / exact.denominator / mp.pi) <= bound < 1
        # points near 2e15 that binary64 holds exactly: the float value is
        # -2.2e-78 within a bound of 8.4e-77, which resolves no sign; the
        # form, +4.5e-85, resolves at 50 digits
        far = PointConfig((2000000000000031.0, 2000000000007837.0), (-1.0, 1.0))
        value, bound = form_enclosure(params, far)
        assert abs(value) < bound < 1e-76
        # a third off each point, binary64 holds neither: no float bound
        off = PointConfig([Fraction(x) + Fraction(1, 3) for x in far.points], far.coeffs)
        assert form_enclosure(params, off)[1] == math.inf
        value, dps, bound = resolve_form_sign(params, far)
        with mp.workdps(50):
            assert dps == 50 and abs(value - mp.mpf("4.5458856421161611e-85")) < 1e-100

    def test_tiny_inputs_get_no_float_bound(self):
        # 1e-200 squared underflows, so only the mpmath stages can certify
        cfg = PointConfig((1e-200, 0.0), (1.0, -1.0))
        _, bound = form_enclosure(KernelParams(0.1, 1.0), cfg, distance=True)
        assert bound == math.inf
        _, bound = form_enclosure(KernelParams(0.1, 1.0), cfg, dps=30, distance=True)
        assert bound < 1e-40
