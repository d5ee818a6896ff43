"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings as they complete.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from kpd.boundary import find_schwarz_violation, schwarz_margin_exact
from kpd.cli import main
from kpd.definiteness import cnd_check, pd_check
from kpd.fracpow import integrand_l1_norm, l1_bound_constant, split_power, validate_representation
from kpd.kernel import KernelParams, resolve_form_sign
from kpd.spectral import NEGATIVE_FOUND, NO_NEGATIVE_AT_RESOLUTION, min_operator_eigenvalue
from kpd.witness import (
    build_binomial_witness,
    check_moments,
    cleared_form_series,
    difference_power_sum,
    find_negative_scale,
    predict_t_coefficient_sign,
    subset_product_identity,
    t_power_coefficient,
)


class _Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self, label):
        print(f"ACCEPTANCE {label}: PASS ({self.elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        assert self.elapsed < self.budget_s, f"{label} exceeded runtime budget"


def test_criterion_1_boundary_constant(capsys, tmp_path):
    out_path = tmp_path / "boundary.json"
    with _Stopwatch(1.0) as sw:
        code = main(["boundary", "--t", "2", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_path.read_text())["payload"]
    a0 = payload["a_threshold"]["f64"]
    z0 = payload["z_tangent"]["f64"]
    assert abs(a0 - 12.0) <= 1e-12 * 12.0
    assert abs(z0 - 0.25) <= 1e-12 * 0.25
    with capsys.disabled():
        sw.check("1 boundary-constant")


def test_criterion_2_schwarz_violation():
    with _Stopwatch(1.0) as sw:
        result = find_schwarz_violation(2.0, 13.0)
        assert result.found
        assert result.g_value < 0
        # the quoted margin value, exactly, in rational arithmetic
        assert schwarz_margin_exact(Fraction(1, 5), 2, Fraction(13)) == Fraction(-76, 625)
        # derived 2-point Gram matrix has a negative eigenvalue ...
        params = KernelParams(2.0, 13.0)
        verdict = pd_check(params, result.certificate.config.points, tolerance=1e-12)
        assert verdict.verdict == "FAIL"
        # ... confirmed by certificate replay through the quadratic form
        replay, _, _ = resolve_form_sign(params, result.certificate.config)
        assert replay < 0
    sw.check("2 schwarz-violation")


def test_criterion_3_pd_region_property_suite(random_zero_sum_config):
    with _Stopwatch(30.0) as sw:
        combo_index = 0
        for t in (0.25, 0.5, 0.75, 1.0):
            for a in (0.1, 1.0, 10.0):
                params = KernelParams(t, a)
                rng = np.random.default_rng(1000 + combo_index)
                combo_index += 1
                for _ in range(500):
                    n = int(rng.integers(1, 9))
                    pts = tuple(float(x) for x in rng.uniform(-10, 10, n))
                    verdict = pd_check(params, pts, tolerance=1e-10)
                    assert verdict.verdict == "PASS", (t, a, pts)
                for _ in range(500):
                    n = int(rng.integers(2, 9))
                    cfg = random_zero_sum_config(rng, n)
                    verdict = cnd_check(params, cfg, tolerance=1e-10)
                    assert verdict.verdict == "PASS", (t, a, cfg)
    sw.check("3 pd-region-property-suite")


def test_criterion_4_exact_cancellation():
    with _Stopwatch(30.0) as sw:
        for order in range(6):
            w = build_binomial_witness(order)
            for frac in (0.25, 0.5, 0.75):
                t = order + frac
                series = cleared_form_series(KernelParams(t, 1.0), w)
                for i in range(order + 1):
                    coeff = series.coefficient(i, 0)
                    assert isinstance(coeff, Fraction), (order, t, i)
                    assert coeff == 0, (order, t, i, coeff)
    sw.check("4 exact-cancellation")


def test_criterion_5_t_power_parity():
    with _Stopwatch(1.0) as sw:
        negative_ts = (1.5, 3.5, 5.25)
        nonnegative_ts = (2.5, 4.5)
        for t in negative_ts:
            w = build_binomial_witness(int(t))
            value = t_power_coefficient(KernelParams(t, 1.0), w)
            assert predict_t_coefficient_sign(t) == "nonpositive"
            assert value < 0 and abs(value) > 1e-6, t
        for t in nonnegative_ts:
            w = build_binomial_witness(int(t))
            value = t_power_coefficient(KernelParams(t, 1.0), w)
            assert predict_t_coefficient_sign(t) == "nonnegative"
            assert value >= 0 and abs(value) > 1e-6, t
        # independent 9-term direct-sum oracle for t = 1.5
        oracle = -(-4.0 + 2.0 * 4.0**1.5 + 4.0 * 2.0**1.5 - 4.0 * 5.0**1.5 + 8.0**1.5)
        got = t_power_coefficient(KernelParams(1.5, 1.0), build_binomial_witness(1))
        assert abs(got - oracle) <= 1e-9 * abs(oracle)
    sw.check("5 t-power-parity")


def test_criterion_6_end_to_end_certificates():
    with _Stopwatch(60.0) as sw:
        for (t, a) in ((1.5, 1.0), (1.5, 10.0), (3.5, 0.01)):
            params = KernelParams(t, a)
            w = build_binomial_witness(int(t))
            cert = find_negative_scale(params, w, t_power_coefficient(params, w))
            assert cert.f_value < 0, (t, a)
            # recompute the kernel quadratic form independently, on the
            # kernel's precision ladder, from the stored configuration alone
            replay, dps, _ = resolve_form_sign(params, cert.config)
            assert replay < 0, (t, a, dps)
    sw.check("6 end-to-end-certificates")


def test_criterion_7_identity_suite():
    with _Stopwatch(30.0) as sw:
        rng = np.random.default_rng(20240809)
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
                            assert lhs == rhs, (n, m, j, k, y)
        for order in range(7):
            w = build_binomial_witness(order)
            for v in range(order + 1):
                assert difference_power_sum(v, w) == 0, (order, v)
        for order in range(13):
            w = build_binomial_witness(order)
            assert all(m == 0 for m in check_moments(w, order)), order
    sw.check("7 identity-suite")


def test_criterion_8_fracpow_representation():
    with _Stopwatch(60.0) as sw:
        pairs = [
            (w, s)
            for s in (0.5, 1.5, 2.5, 3.7)
            for w in (0.1, 1.0, 4.0, 10.0, 1.0 + 1.0j)
        ]
        report = validate_representation(pairs, tol=1e-6)
        assert report.passed, report.failures
        for w, s in pairs:
            p = split_power(s)
            assert integrand_l1_norm(w, p) <= l1_bound_constant(p) * abs(w) ** s, (w, s)
    sw.check("8 fracpow-representation")


def test_criterion_9_spectral_probe(capsys, tmp_path):
    with _Stopwatch(300.0) as sw:
        # PD sanity at t=1, a=1 across 200-800 nodes
        report = min_operator_eigenvalue(KernelParams(1.0, 1.0), [200, 400, 800], 20.0)
        assert all(me >= -1e-10 for (_, _, me) in report.levels), report.levels
        assert report.verdict == NO_NEGATIVE_AT_RESOLUTION

        # certified negative for t=2, a=13
        found = min_operator_eigenvalue(KernelParams(2.0, 13.0), [100, 200], 5.0)
        assert found.verdict == NEGATIVE_FOUND
        assert found.certificate is not None
        assert found.certificate.value + found.certificate.error_bound < 0

        # evidence sweep over the open region; CSV emitted; verdicts are
        # resolution-qualified and any NEGATIVE_FOUND is backed by a
        # conclusive certificate (never an uncertified claim)
        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--a-grid", "1,3,6,9,12", "--nodes", "100,200,400",
                "--half-width", "20", "--format", "csv", "--out", str(csv_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,a,level,node_count,L,min_eigenvalue,verdict"
        assert len(lines) == 1 + 5 * 3
        verdicts = [line.rsplit(",", 1)[1] for line in lines[1:]]
        for v in verdicts:
            assert v in ("", NEGATIVE_FOUND, NO_NEGATIVE_AT_RESOLUTION)

        json_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", "--a-grid", "1,3,6,9,12", "--nodes", "100,200,400",
                "--half-width", "20", "--out", str(json_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        reports = json.loads(json_path.read_text())["payload"]["reports"]
        assert len(reports) == 5
        for rep in reports:
            assert rep["verdict"] in (NEGATIVE_FOUND, NO_NEGATIVE_AT_RESOLUTION)
            if rep["verdict"] == NEGATIVE_FOUND:
                assert rep["certificate_conclusive"] is True
                assert rep["certificate_value"]["f64"] < 0
                assert rep["certificate"] is not None
    with capsys.disabled():
        sw.check("9 spectral-probe")
