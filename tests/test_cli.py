import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import kpd.cli
import kpd.definiteness
import kpd.kernel
import kpd.spectral
import kpd.witness
import object_reference
from kpd.certificate import _read
from kpd.cli import RunConfig, _build_parser, main, run, verify_certificate
from kpd.errors import KpdError
from kpd.kernel import (
    DPS_CAP,
    KernelParams,
    PointConfig,
    _matrix,
    form_enclosure,
    resolve_form_sign,
)
from kpd.witness import build_binomial_witness, cleared_form_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    # strict JSON has no Infinity or NaN tokens
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestBoundaryCommand:
    def test_t2_report(self, capsys):
        code, out = run_cli(capsys, "boundary", "--t", "2")
        assert code == 0
        record = json.loads(out)
        payload = record["payload"]
        assert abs(payload["a_threshold"]["f64"] - 12.0) <= 1e-12 * 12.0
        assert payload["z_tangent"]["f64"] == 0.25
        # the config echoes only the options the command reads
        assert record["config"] == {"command": "boundary", "params": {"t": 2.0}}

    def test_violation_search_embeds_certificate(self, capsys):
        code, out = run_cli(capsys, "boundary", "--t", "2", "--a", "13")
        assert code == 0
        violation = json.loads(out)["payload"]["violation"]
        assert violation["found"] is True
        cert = violation["certificate"]
        assert cert["kind"] == "g"
        assert float(cert["value"]) < 0
        assert len(cert["points"]) == len(cert["coeffs"]) == 2

    @pytest.mark.parametrize("t, a", [(29.9, 1e4), (12.0, 1e300), (30.0, 1e300)])
    def test_extreme_violations_confirm(self, capsys, tmp_path, t, a):
        # at a = 1e300 the binary64 bound exceeds the form from t = 12 on,
        # so these certificates need the mpmath stage of certify_negative
        rec = tmp_path / "b.json"
        assert main(["boundary", "--t", repr(t), "--a", repr(a), "--out", str(rec)]) == 0
        capsys.readouterr()
        assert json.loads(rec.read_text())["payload"]["violation"]["found"] is True
        assert verify_certificate(str(rec))["verdict"] == "CONFIRMED"


class TestStoredValueIsTheReplayedForm:
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["boundary", "--t", "1.5", "--a", "40"], ("violation", "certificate")),
            (["gram", "--t", "3", "--a", "5", "--points", "0.3,0,-0.3,0.6"], ("certificate",)),
        ],
    )
    def test_value_is_binary64_form_of_stored_decimals(self, capsys, argv, where):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        cert = json.loads(out)["payload"]
        for key in where:
            cert = cert[key]
        # read as kpd verify reads them: a float's shortest repr as that float
        config = PointConfig(
            tuple(map(_read, cert["points"])), tuple(map(_read, cert["coeffs"]))
        )
        t, a = float(argv[2]), float(argv[4])
        value, dps = resolve_form_sign(KernelParams(t, a), config)[:2]
        assert dps == 17
        assert float(cert["value"]) == value
        assert cert["value"] == repr(value)


class TestGramCommand:
    def test_fail_verdict_with_certificate_and_zero_exit(self, capsys):
        x = repr(math.sqrt(0.2))
        code, out = run_cli(
            capsys, "gram", "--t", "2", "--a", "13", "--points", f"{x},0"
        )
        assert code == 0  # completed analysis, even though the verdict is FAIL
        payload = json.loads(out)["payload"]
        assert payload["pd"]["verdict"] == "FAIL"
        assert payload["certificate"]["kind"] == "gram"

    def test_uncertified_eigenvalue_is_a_boundary_pass(self, capsys):
        # duplicated points: eigh reads the zero eigenvalue as -2.6e-17, below
        # the tolerance, but the eigenvector's form is +3.7e-30, so nothing
        # is certified and the verdict is PASS on the boundary
        code, out = run_cli(
            capsys, "gram", "--t", "2", "--a", "13", "--points", "0.5,0,0.5", "--tol", "1e-300"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["pd"]["verdict"] == "PASS"
        assert payload["pd"]["boundary"] is True
        assert payload["pd"]["statistic"]["f64"] < -1e-300
        assert payload["certificate"] is None

    def test_diagonal_underflow_is_a_diagnostic(self, capsys):
        # at t = 1e6 the kernel at (2, 2) underflows to 0
        code = main(["gram", "--t", "1e6", "--a", "2", "--points", "0,2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "Gram diagonal must be strictly positive" in captured.err

    @pytest.mark.parametrize("points", ["0,1,2,3", f"{math.sqrt(0.2)!r},0"], ids=["pass", "fail"])
    def test_gram_matrix_is_built_once(self, capsys, monkeypatch, points):
        # the payload's entries are the matrix pd_check read, built once by
        # the loop whose binary64 entries a FAIL's certificate reads; no
        # numpy grid is built
        calls, grids = [], []

        def counted(*args):
            calls.append(args)
            return _matrix(*args)

        monkeypatch.setattr(kpd.definiteness, "_matrix", counted)
        monkeypatch.setattr(kpd.kernel, "kernel_matrix", lambda *args: grids.append(args))
        code, out = run_cli(capsys, "gram", "--t", "2", "--a", "13", "--points", points)
        assert code == 0 and len(calls) == 1 and grids == []
        x = [float(v) for v in points.split(",")]
        params = KernelParams(2.0, 13.0)
        want = _matrix(params, x, False)
        assert json.loads(out)["payload"]["entries"] == want

    def test_pass_verdict(self, capsys):
        code, out = run_cli(
            capsys, "gram", "--t", "0.5", "--a", "1", "--points", "0,1,2,3"
        )
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["pd"]["verdict"] == "PASS"
        assert payload["certificate"] is None


class TestCndCommand:
    def test_pass(self, capsys):
        code, out = run_cli(
            capsys,
            "cnd", "--t", "1", "--a", "1",
            "--points", "0,1,2", "--coeffs", "1,-2,1",
        )
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["cnd"]["verdict"] == "PASS"

    def test_fail_embeds_certificate(self, capsys):
        code, out = run_cli(
            capsys,
            "cnd", "--t", "3", "--a", "1",
            "--points", "0,1,4", "--coeffs", "1,-2,1",
        )
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["cnd"]["verdict"] == "FAIL"
        assert payload["certificate"]["kind"] == "cnd"

    def test_fail_keeps_the_resolved_value(self, capsys):
        # the distance form, about 2e800, is past binary64: the verdict and
        # form_value keep the mpmath value that the certificate holds
        code, out = run_cli(
            capsys, "cnd", "--t", "2", "--a", "1", "--points", "0,1e200", "--coeffs", "1,-1"
        )
        assert code == 0
        payload = strict_json(out)["payload"]
        value = payload["certificate"]["value"]
        assert mp.mpf(value) > mp.mpf("1e800")
        assert payload["form_value"]["dec"] == value
        assert payload["cnd"]["statistic"]["dec"] == "-" + value

    def test_pass_keeps_the_resolved_value(self, capsys):
        # the form is -18 x^2 + (sqrt 2 - 2) x at x = 1e200, past binary64
        code, out = run_cli(
            capsys,
            "cnd", "--t", "0.5", "--a", "1",
            "--points", "0,1e200,-1e200", "--coeffs", "1,-2,1",
        )
        assert code == 0
        payload = strict_json(out)["payload"]
        assert payload["cnd"]["verdict"] == "PASS" and payload["certificate"] is None
        form = payload["form_value"]["dec"]
        assert payload["cnd"]["statistic"]["dec"] == form.lstrip("-")
        with mp.workdps(40):
            assert mp.almosteq(mp.mpf(form), -18 * mp.mpf(1e200) ** 2, rel_eps=mp.mpf("1e-29"))


    @pytest.mark.parametrize(
        "coeffs",
        ["1.7e308,-1.7e308,1.7e308", "1e308,1e308,-1e308"],
        ids=["abs-sum-overflows", "sum-overflows"],
    )
    def test_huge_coefficients_that_do_not_sum_to_zero_are_rejected(self, capsys, coeffs):
        # in exact rationals the relative residual is 1/3; binary64 sums
        # of these coefficients overflow
        argv = ["cnd", "--t", "0.5", "--a", "1", "--points=0,1,5", f"--coeffs={coeffs}"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: coefficients must sum to zero")

    @pytest.mark.parametrize(
        "points, coeffs",
        [("0,1", "1,1"), ("0", "0"), ("0,1", "1,-1,0"), ("0,1,2", "1,-1")],
        ids=["nonzero-sum", "one-point", "more-coeffs", "fewer-coeffs"],
    )
    def test_input_preconditions_are_configuration_errors(self, capsys, monkeypatch, points, coeffs):
        # rejected with the configuration, before any computation
        monkeypatch.setattr(kpd.cli, "run", None)
        assert main(["cnd", "--t", "1", "--a", "1", "--points", points, "--coeffs", coeffs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ") and captured.out == ""


class TestWitnessCommand:
    def test_t15_record(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code, out = run_cli(
            capsys, "witness", "--t", "1.5", "--a", "1", "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())["payload"]
        assert payload["moments"][:2] == ["0/1", "0/1"]
        assert payload["t_power_coefficient"]["f64"] == pytest.approx(
            -1.2197659469584872, rel=1e-9
        )
        assert payload["predicted_sign"] == "nonpositive"
        cert = payload["certificate"]
        assert cert["kind"] == "f"
        assert float(cert["value"]) < 0
        assert float(cert["q_value"]) < 0

    def test_one_t_power_coefficient_per_job(self, capsys, monkeypatch):
        calls, original = [], kpd.witness.t_power_coefficient

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kpd.witness, "t_power_coefficient", counted)
        code, out = run_cli(capsys, "witness", "--t", "3.75", "--a", "0.01")
        assert code == 0
        assert json.loads(out)["payload"]["negativity"] == "certified"
        assert len(calls) == 1

    @given(
        floor=st.sampled_from([1, 3]),
        frac=st.floats(0.05, 0.95),
        log_a=st.floats(math.log(0.01), math.log(13.0)),
    )
    # the order-3 scan certifies no scale here; the record holds the order-4 witness
    @example(floor=3, frac=0.94921875, log_a=-4.5)
    @settings(max_examples=25, deadline=None)
    def test_stored_values_hold_their_digits(self, floor, frac, log_a):
        # value (f) and q_value (Q) as written agree with both forms
        # evaluated 40 digits beyond the record's dps_used
        t, a = floor + frac, math.exp(log_a)
        payload = run(RunConfig(command="witness", params={"t": t, "a": a})).payload
        cert, wit = payload["certificate"], payload["witness"]
        params, dps = KernelParams(t, a), cert["dps_used"] + 40
        config = PointConfig(
            tuple(Fraction(p) for p in cert["points"]), tuple(Fraction(c) for c in cert["coeffs"])
        )
        q, _ = form_enclosure(params, config, dps)
        w = kpd.witness.WitnessConfig(
            tuple(map(Fraction, wit["y"])), tuple(map(Fraction, wit["c"])), wit["moment_order"]
        )
        f = object_reference.cleared_form_value(params, w, float(cert["z"]), dps)
        with mp.workdps(dps):
            for stored, want in ((cert["q_value"], q), (cert["value"], f)):
                assert abs(mp.mpf(stored) - want) <= mp.mpf("1e-12") * abs(want), (t, a)

    def test_order_t_plus_one_where_the_order_t_scan_fails(self, capsys, tmp_path):
        # near t = 2 the order-1 witness's negative window closes below
        # z = 4^-100; the order-2 witness certifies at z = 4^-8
        out_path = tmp_path / "witness.json"
        code, _ = run_cli(capsys, "witness", "--t", "1.999", "--a", "1", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())["payload"]
        assert payload["witness"]["moment_order"] == 2 and payload["witness"]["n"] == 4
        assert payload["moments"] == ["0/1"] * 3
        assert payload["t_power_coefficient"]["f64"] < 0
        assert payload["negativity"] == "certified"
        assert payload["certificate"]["coeffs"] == ["1/1", "-3/1", "3/1", "-1/1"]
        assert payload["certificate"]["z"] == repr(4.0**-8)
        assert main(["verify", str(out_path)]) == 0
        assert capsys.readouterr().out.endswith("CONFIRMED\n")

    def test_witness_past_the_order_cap_exits_3(self, capsys):
        # t = 1e6 would ask for a million-point witness
        assert main(["witness", "--t", "1000000.5", "--a", "1"]) == 3
        assert "SizeCapError" in capsys.readouterr().err

    def test_even_integer_part_is_inconclusive(self, capsys):
        code, out = run_cli(capsys, "witness", "--t", "2.5", "--a", "1")
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["negativity"] == "inconclusive"
        assert payload["certificate"] is None


class TestFracpowCommand:
    def test_validation_table(self, capsys):
        code, out = run_cli(capsys, "fracpow", "--validate", "--tol", "1e-6")
        payload = json.loads(out)["payload"]
        assert code == 0
        assert payload["passed"] is True
        assert len(payload["entries"]) == 20


class TestParser:
    def test_repeated_calls_in_one_process_agree(self, capsys, tmp_path):
        # main builds its parser once per process; no call leaves a trace
        # in the next one's config
        assert _build_parser() is _build_parser()
        gram = ["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0"]

        def gram_then_verify(path):
            assert main(gram + ["--out", str(path)]) == 0
            capsys.readouterr()
            assert main(["verify", str(path)]) == 0
            record = json.loads(path.read_text())
            return record["config"], record["payload"], capsys.readouterr().out

        def config(argv, path):
            assert main(argv + ["--out", str(path)]) == 0
            capsys.readouterr()
            return json.loads(path.read_text())["config"]["params"]

        first = gram_then_verify(tmp_path / "first.json")
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--t", "x", "--a", "1", "--points", "0"])
        assert exc.value.code == 2
        again = gram_then_verify(tmp_path / "again.json")
        assert again == first  # --out is not part of the config
        assert config(gram + ["--tol", "1e-3"], tmp_path / "tol.json")["tolerance"] == 1e-3
        assert config(gram, tmp_path / "default.json")["tolerance"] == 1e-10
        spectrum = ["spectrum", "--t", "2", "--a", "13"]
        assert config(spectrum + ["--nodes", "16"], tmp_path / "n16.json")["nodes"] == [16]
        with pytest.raises(SystemExit) as exc:
            main(spectrum + ["--nodes", "16", "--bogus"])
        assert exc.value.code == 2
        assert config(spectrum, tmp_path / "n.json")["nodes"] == [100, 200, 400]
        assert gram_then_verify(tmp_path / "last.json") == first

    def test_unknown_command_rejected(self):
        with pytest.raises(KpdError, match="unknown command"):
            run(RunConfig("nope", {}))


class TestSpectrumCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_t_completes(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--t", "1100", "--a", "2", "--nodes", "16")
        assert code == 0
        assert json.loads(out)["payload"]["tail_bound"]["f64"] == 0.0


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv, path, dec",
        [
            # t <= 1/2: the truncated tail is not integrable
            (("spectrum", "--t", "0.4", "--a", "1", "--nodes", "16"), ("tail_bound",), "inf"),
            # every scanned margin overflows
            (("boundary", "--t", "2", "--a", "1e300"), ("violation", "scan", "min_g"), "inf"),
            # the ~2e800 form overflows binary64; dec keeps its mpmath value
            # at the 50 digits that resolved it
            (
                ("cnd", "--t", "2", "--a", "1", "--points", "0,1e200", "--coeffs", "1,-1"),
                ("form_value",),
                "1.9999999999999997578649777000829042688027182376439e+800",
            ),
        ],
        ids=["spectrum-tail", "boundary-scan", "cnd-form"],
    )
    def test_non_finite_value_is_null_in_f64(self, capsys, argv, path, dec):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        node = strict_json(out)["payload"]
        for key in path:
            node = node[key]
        assert node["f64"] is None
        assert node["dec"] == dec


class TestSweepCommand:
    def test_csv_schema(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--a-grid", "13", "--nodes", "48,96",
            "--half-width", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,a,level,node_count,L,min_eigenvalue,verdict"
        assert len(lines) == 3
        assert lines[2].endswith("NEGATIVE_FOUND")

    def test_csv_only_for_sweeps(self):
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--t", "2", "--format", "csv"])
        assert exc.value.code == 2

    def test_rows_schema_and_determinism(self, capsys):
        argv = ("sweep", "--a-grid", "1,13", "--nodes", "48,96", "--half-width", "6")
        runs = [run_cli(capsys, *argv) for _ in range(2)]
        assert [code for code, _ in runs] == [0, 0]
        payloads = [json.loads(out)["payload"] for _, out in runs]
        assert payloads[0] == payloads[1]
        rows = payloads[0]["rows"]
        assert len(rows) == 4
        assert all(set(row) == set(kpd.cli.CSV_HEADER) for row in rows)
        # the verdict only on the last level of each weight
        assert [row["verdict"] for row in rows[::2]] == ["", ""]
        assert rows[1]["verdict"] in ("NEGATIVE_FOUND", "NO_NEGATIVE_AT_RESOLUTION")
        assert rows[3]["verdict"] == "NEGATIVE_FOUND"

    def test_control_labeling(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--a-grid", "6,12.5", "--nodes", "32", "--half-width", "6"
        )
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert [r["control"] for r in reports] == [False, True]

    def test_certified_negatives_only(self, capsys):
        # every NEGATIVE_FOUND verdict carries a conclusive negative certificate
        code, out = run_cli(
            capsys, "sweep", "--a-grid", "3,13", "--nodes", "96,192", "--half-width", "6"
        )
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert reports[1]["verdict"] == "NEGATIVE_FOUND"
        for rep in reports:
            if rep["verdict"] == "NEGATIVE_FOUND":
                assert rep["certificate"]["kind"] == "gram"
                assert rep["certificate_conclusive"] is True
                bound = rep["certificate_error_bound"]["f64"]
                assert rep["certificate_value"]["f64"] + bound < 0
            else:
                assert rep["certificate"] is None

    def test_bad_weight_fails_the_run(self, capsys, tmp_path):
        # one invalid weight ends the sweep as it ends kpd spectrum: exit 3,
        # the error on stderr, no record on stdout or in --out
        out_path = tmp_path / "sweep.json"
        argv = ["sweep", "--a-grid", "1,-2,13", "--nodes", "16,32", "--half-width", "6"]
        code = main(argv + ["--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error [DomainError]: a must be > 0")
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("--a-grid", "-2", "--nodes", "16", "--half-width", "6"),
            ("--a-grid", "0,1", "--nodes", "16"),
            ("--half-width", "-1", "--nodes", "16"),
            ("--t", "-1", "--nodes", "16"),
        ],
        ids=["a-negative", "a-zero", "half-width", "t"],
    )
    def test_invalid_input_writes_no_rows(self, capsys, argv, fmt):
        code = main(["sweep", *argv, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error [DomainError]:")

    def test_programming_error_propagates(self, monkeypatch):
        def broken(params, node_counts, half_width):
            raise TypeError("bug")

        monkeypatch.setattr(kpd.spectral, "min_operator_eigenvalue", broken)
        with pytest.raises(TypeError):
            main(["sweep", "--a-grid", "1", "--nodes", "32", "--half-width", "6"])

    def test_reports_agree_with_spectrum(self, capsys):
        # run in one process, so that both see the same BLAS thread count
        ladder = ("--nodes", "48,96", "--half-width", "5")
        code, out = run_cli(capsys, "sweep", "--t", "2.5", "--a-grid", "0.5,3,13", *ladder)
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert [r["a"] for r in reports] == [0.5, 3.0, 13.0]
        for entry in reports:
            a = repr(entry.pop("a"))
            entry.pop("control")
            code, out = run_cli(capsys, "spectrum", "--t", "2.5", "--a", a, *ladder)
            assert code == 0
            spectrum = json.loads(out)["payload"]
            for key in ("schema", "t", "a"):
                spectrum.pop(key)
            assert entry == spectrum


class TestDeterminism:
    def test_identical_config_identical_payload(self):
        configs = (
            RunConfig(command="identities", params={"seed": 7}),
            RunConfig(
                command="spectrum",
                params={"t": 2.0, "a": 13.0, "nodes": (48, 96), "half_width": 5.0},
            ),
        )
        for cfg in configs:
            r1, r2 = run(cfg), run(cfg)
            assert r1.payload_json() == r2.payload_json()

    def test_spectrum_certificate_independent_of_blas_threads(self):
        # the Nystrom eigenvalues may round differently with more threads;
        # the grid certificate must not
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        certificates = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "kpd.cli", "spectrum", "--t", "2", "--a", "13"],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            payload = json.loads(proc.stdout)["payload"]
            assert payload["verdict"] == "NEGATIVE_FOUND"
            certificates.append(json.dumps(payload["certificate"], sort_keys=True))
        assert certificates[0] == certificates[1]

    def test_seed_changes_payload_inputs_not_schema(self):
        r1 = run(RunConfig(command="identities", params={"seed": 1}))
        r2 = run(RunConfig(command="identities", params={"seed": 2}))
        assert set(r1.payload) == set(r2.payload)
        assert r1.payload_json() != r2.payload_json()

    def test_payload_independent_of_caller_precision(self):
        configs = (
            RunConfig(command="witness", params={"t": 1.5, "a": 1.0}),
            # a form of -1.3e-57, certified on the fixed-point rungs
            RunConfig(command="witness", params={"t": 3.75, "a": 0.01}),
            RunConfig(
                command="gram",
                params={
                    "t": 2.0, "a": 13.0, "points": "0.4472135954999579,0", "tolerance": 1e-10
                },
            ),
            RunConfig(command="boundary", params={"t": 2.0, "a": 13.0}),
            # a distance form that only mpmath resolves
            RunConfig(
                command="cnd",
                params={
                    "t": 2.0, "a": 1.0, "points": "0,1e200", "coeffs": "1,-1", "tolerance": 1e-10
                },
            ),
        )
        for cfg in configs:
            with mp.workdps(15):
                low = run(cfg).payload_json()
            with mp.workdps(200):
                high = run(cfg).payload_json()
            assert low == high


    def test_no_mpmath_precision_is_read_or_set(self, monkeypatch, tmp_path):
        # with every way of setting mpmath's precision made to raise, and that
        # precision left at 12 or at 2000 bits, the records, verdicts and
        # series terms are the same bytes
        commands = (
            ["witness", "--t", "3.5", "--a", "1"],
            ["witness", "--t", "3.75", "--a", "0.01"],
            ["witness", "--t", "2.5", "--a", "1"],
            ["cnd", "--t", "2", "--a", "1", "--points", "0,1e200", "--coeffs", "1,-1"],
        )
        path = str(tmp_path / "record.json")

        def outcomes():
            out = []
            for argv in commands:
                code = main([*argv, "--out", path])
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)["payload"]
                out.append((code, json.dumps(payload, sort_keys=True)))
                if payload.get("certificate"):
                    out.append(verify_certificate(path))
            terms = cleared_form_series(KernelParams(3.5, 1.0), build_binomial_witness(3)).terms
            return out + [repr(sorted((k, getattr(v, "_mpf_", v)) for k, v in terms.items()))]

        def forbidden(*args, **kwargs):
            raise RuntimeError("kpd set mpmath's working precision")

        context = type(mp.mp)
        results = []
        for prec in (12, 2000):
            mp.mp.prec = prec
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(context, "prec", property(context.prec.fget, forbidden))
                    patch.setattr(context, "dps", property(context.dps.fget, forbidden))
                    for name in ("workdps", "workprec", "extradps", "extraprec"):
                        patch.setattr(mp, name, forbidden)
                    results.append(outcomes())
                    assert mp.mp.prec == prec
            finally:
                mp.mp.prec = 53
        assert results[0] == results[1]
        assert [r["verdict"] for r in results[0] if isinstance(r, dict)] == ["CONFIRMED"] * 3


class TestVerify:
    def test_replay_loads_no_numpy(self, tmp_path):
        # every rung of the sign primitive is a Python loop: replaying a
        # witness record, whose certificate needs mpmath, and a gram record
        # in a fresh interpreter imports no numpy
        w, g = tmp_path / "w.json", tmp_path / "g.json"
        assert main(["witness", "--t", "3.75", "--a", "0.01", "--out", str(w)]) == 0
        assert main(["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0",
                     "--out", str(g)]) == 0
        script = ("import sys; from kpd.cli import main; code = main(['verify', *sys.argv[1:]]); "
                  "print(code, 'numpy' in sys.modules)")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(w), str(g)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        )
        lines = proc.stdout.splitlines()
        assert lines.count("CONFIRMED") == 2 and lines[-1] == "0 False"

    def test_several_records(self, capsys, tmp_path):
        # one block per record, each as a lone path prints it; exit 0 only
        # when every record is CONFIRMED; a bad record does not stop the rest
        w, g, bad = tmp_path / "w.json", tmp_path / "g.json", tmp_path / "bad.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(w)]) == 0
        assert main(["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0",
                     "--out", str(g)]) == 0
        bad.write_text("{")
        capsys.readouterr()
        blocks = {}
        for path in (w, g):
            assert main(["verify", str(path)]) == 0
            blocks[path] = capsys.readouterr().out
        assert blocks[w].splitlines()[-1] == "CONFIRMED"
        assert main(["verify", str(w), str(g)]) == 0
        assert capsys.readouterr().out == f"==> {w} <==\n{blocks[w]}==> {g} <==\n{blocks[g]}"
        missing = tmp_path / "missing.json"
        assert main(["verify", str(g), str(missing), str(bad), str(w)]) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            f"==> {g} <==\n{blocks[g]}==> {missing} <==\n==> {bad} <==\n==> {w} <==\n{blocks[w]}"
        )
        errors = captured.err.splitlines()
        assert len(errors) == 2 and all(line.startswith("error: ") for line in errors)
        assert str(missing) in errors[0] and str(bad) in errors[1]
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_records_that_are_not_json_are_named(self, capsys, tmp_path):
        # text that is not JSON and bytes that are not UTF-8 each print one
        # error naming the record; the good records around them still replay
        w, g = tmp_path / "w.json", tmp_path / "g.json"
        bad, binary = tmp_path / "bad.json", tmp_path / "binary.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(w)]) == 0
        assert main(["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0",
                     "--out", str(g)]) == 0
        bad.write_text('{"config": ')
        binary.write_bytes(b"\xff\xfe{}")
        capsys.readouterr()
        assert main(["verify", str(w), str(bad), str(g), str(binary)]) == 3
        captured = capsys.readouterr()
        assert [ln for ln in captured.out.splitlines() if " " not in ln] == ["CONFIRMED", "CONFIRMED"]
        errors = captured.err.splitlines()
        assert len(errors) == 2
        for line, path in zip(errors, (bad, binary)):
            assert line.startswith(f"error: record at {path} is not JSON: "), line

    def test_one_record_that_is_not_confirmed_fails_the_run(self, capsys, tmp_path):
        good, tampered = tmp_path / "good.json", tmp_path / "tampered.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(good)]) == 0
        record = json.loads(good.read_text())
        cert = record["payload"]["certificate"]
        cert["value"] = cert["value"].lstrip("-")  # flip the stored sign
        tampered.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["verify", str(good), str(tampered)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if " " not in ln] == ["CONFIRMED", "MISMATCH"]

    def test_witness_certificate_confirms(self, capsys, tmp_path):
        rec = tmp_path / "w.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(rec)]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 0
        assert "CONFIRMED" in out

    def test_witness_at_precision_cap_confirms(self, capsys, tmp_path):
        rec = tmp_path / "w800.json"
        assert main(["witness", "--t", "3.5", "--a", "1", "--out", str(rec)]) == 0
        capsys.readouterr()
        record = json.loads(rec.read_text())
        record["payload"]["certificate"]["dps_used"] = DPS_CAP
        rec.write_text(json.dumps(record))
        assert verify_certificate(str(rec))["verdict"] == "CONFIRMED"

    def test_boundary_certificate_confirms(self, capsys, tmp_path):
        rec = tmp_path / "b.json"
        assert main(["boundary", "--t", "2", "--a", "13", "--out", str(rec)]) == 0
        capsys.readouterr()
        outcome = verify_certificate(str(rec))
        assert outcome["verdict"] == "CONFIRMED"

    def test_tampered_certificate_mismatches(self, capsys, tmp_path):
        rec = tmp_path / "t.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(rec)]) == 0
        capsys.readouterr()
        record = json.loads(rec.read_text())
        cert = record["payload"]["certificate"]
        cert["value"] = cert["value"].lstrip("-")  # flip the stored sign
        rec.write_text(json.dumps(record))
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 3
        assert "MISMATCH" in out

    def test_forged_positive_gram_record_mismatches(self, capsys, tmp_path):
        # a gram certificate claims a negative form; this one replays to +0.367
        rec = tmp_path / "f.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
            "payload": {"certificate": {
                "kind": "gram", "points": ["0", "1"], "coeffs": ["1", "1"],
                "value": "0.5",
            }},
        }))
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 3
        assert "MISMATCH" in out

    def test_zero_form_record_unresolved(self, capsys, tmp_path):
        # K(1/2,1/2) - 2 K(1/2,1/2) + K(1/2,1/2) is exactly 0: no sign to confirm
        rec = tmp_path / "z.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
            "payload": {"certificate": {
                "kind": "gram", "points": ["0.5", "0.5"], "coeffs": ["1", "-1"],
                "value": "-1e-30",
            }},
        }))
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 3
        assert out.strip().splitlines()[-1] == "UNRESOLVED"
        assert verify_certificate(str(rec))["results"][0]["verdict"] == "UNRESOLVED"

    def test_nan_stored_value_mismatches(self, capsys, tmp_path):
        # the form replays to -3.2e-3; only the stored value fails the claim
        rec = tmp_path / "nan.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
            "payload": {"certificate": {
                "kind": "gram", "points": ["0.4472135954999579", "0"],
                "coeffs": ["-0.86666666", "0.49888766"],
                "value": "nan",
            }},
        }))
        assert verify_certificate(str(rec))["verdict"] == "MISMATCH"

    def test_numeric_value_reads_as_its_string(self, tmp_path):
        # a JSON number is the value its repr denotes, as the string form is
        records = []
        for value in (-0.5, "-0.5", 0.5):
            rec = tmp_path / f"{len(records)}.json"
            rec.write_text(json.dumps({
                "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
                "payload": {"certificate": {
                    "kind": "gram", "points": ["0.4472135954999579", "0"],
                    "coeffs": ["-0.86666666", "0.49888766"], "value": value,
                }},
            }))
            records.append(verify_certificate(str(rec)))
        assert records[0]["results"] == records[1]["results"]
        assert [r["verdict"] for r in records] == ["CONFIRMED", "CONFIRMED", "MISMATCH"]

    def test_far_points_replay_beyond_binary64(self, capsys, tmp_path):
        # binary64 reads this form as -2.2e-78; it is +4.5e-85
        rec = tmp_path / "far.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"t": 2.0, "a": 1.0}},
            "payload": {"certificate": {
                "kind": "gram", "points": ["2000000000000031", "2000000000007837"],
                "coeffs": ["-1", "1"], "value": "-2.2e-78",
            }},
        }))
        outcome = verify_certificate(str(rec))
        assert outcome["verdict"] == "MISMATCH"
        assert outcome["results"][0]["replayed_value"] > 0

    @pytest.mark.parametrize(
        "cert",
        [
            {"kind": "gram", "points": ["0", "1"], "value": "-0.5"},
            {"kind": "gram", "points": ["x", "1"], "coeffs": ["1", "-1"], "value": "-0.5"},
            {"kind": "gram", "points": ["1e400", "1"], "coeffs": ["1", "-1"], "value": "-0.5"},
            {"kind": "gram", "points": ["0", "1"], "coeffs": ["1", "-1"], "value": None},
            {"kind": "gram", "points": ["0", "1"], "coeffs": ["1", "-1"], "value": True},
        ],
        ids=["no-coeffs", "bad-point", "huge-point", "null-value", "true-value"],
    )
    def test_malformed_certificate_errors(self, capsys, tmp_path, cert):
        rec = tmp_path / "m.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
            "payload": {"certificate": cert},
        }))
        with pytest.raises(KpdError):
            verify_certificate(str(rec))
        code = main(["verify", str(rec)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("params", [[1], "x", 5], ids=["list", "str", "int"])
    def test_params_not_an_object_errors(self, capsys, tmp_path, params):
        rec = tmp_path / "p.json"
        argv = ["gram", "--t", "3", "--a", "5", "--points", "0.3,0,-0.3,0.6"]
        assert main(argv + ["--out", str(rec)]) == 0
        capsys.readouterr()
        record = json.loads(rec.read_text())
        record["config"]["params"] = params
        rec.write_text(json.dumps(record))
        with pytest.raises(KpdError, match="no valid config/payload"):
            verify_certificate(str(rec))
        code = main(["verify", str(rec)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")

    def test_cnd_tolerance_read_from_params_or_old_top_level(self, capsys, tmp_path):
        # the form of this certificate is 21328
        rec = tmp_path / "c.json"
        argv = ["cnd", "--t", "3", "--a", "1", "--points", "0,1,4", "--coeffs", "1,-2,1"]
        assert main(argv + ["--out", str(rec)]) == 0
        capsys.readouterr()
        record = json.loads(rec.read_text())
        assert record["config"]["params"]["tolerance"] == 1e-10
        assert verify_certificate(str(rec))["verdict"] == "CONFIRMED"
        # records written before the config became {command, params}
        record["config"]["tolerance"] = record["config"]["params"].pop("tolerance")
        rec.write_text(json.dumps(record))
        assert verify_certificate(str(rec))["verdict"] == "CONFIRMED"
        for config in (
            {**record["config"], "tolerance": 3e4},
            {**record["config"], "params": {**record["config"]["params"], "tolerance": 3e4}},
        ):
            rec.write_text(json.dumps({**record, "config": config}))
            assert verify_certificate(str(rec))["verdict"] == "MISMATCH"

    @pytest.mark.parametrize("tolerance", [-10, -1e308, math.inf])
    def test_cnd_tolerance_below_zero_or_infinite_is_malformed(self, capsys, tmp_path, tolerance):
        # the distance form replays to -2.59, above a negative tolerance: a
        # claim that cnd_check, which needs a finite tolerance >= 0, never makes
        rec = tmp_path / "neg.json"
        rec.write_text(json.dumps({
            "config": {"command": "cnd", "params": {"t": 0.5, "a": 1, "tolerance": tolerance}},
            "payload": {"certificate": {
                "kind": "cnd", "points": ["0.0", "1.0"], "coeffs": ["1.0", "-1.0"],
                "value": "-2.5",
            }},
        }))
        with pytest.raises(KpdError, match="not finite and >= 0"):
            verify_certificate(str(rec))
        assert main(["verify", str(rec)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_cnd_coefficients_must_sum_to_zero(self, capsys, tmp_path):
        # a real cnd record, edited to coefficients 1, 1 at t = 0.5: their
        # distance form is positive, but a CND claim needs a zero sum
        rec = tmp_path / "c.json"
        argv = ["cnd", "--t", "2", "--a", "13", "--points=0,2", "--coeffs=1,-1"]
        assert main(argv + ["--out", str(rec)]) == 0
        capsys.readouterr()
        assert verify_certificate(str(rec))["verdict"] == "CONFIRMED"
        record = json.loads(rec.read_text())
        record["config"]["params"].update(t=0.5, a=1.0)
        record["payload"]["certificate"].update(points=["0", "1"], coeffs=["1", "1"])
        rec.write_text(json.dumps(record))
        assert verify_certificate(str(rec))["verdict"] == "MISMATCH"

    def test_certificate_without_t_errors(self, tmp_path):
        rec = tmp_path / "no-t.json"
        rec.write_text(json.dumps({
            "config": {"command": "gram", "params": {"a": 13.0}},
            "payload": {"certificate": {
                "kind": "gram", "points": ["0", "1"], "coeffs": ["1", "-1"], "value": "-0.5",
            }},
        }))
        with pytest.raises(KpdError, match="lacks kernel parameters"):
            verify_certificate(str(rec))

    def test_unparsable_tolerance_errors(self, capsys, tmp_path):
        rec = tmp_path / "tol.json"
        rec.write_text(json.dumps({
            "config": {"command": "cnd", "params": {"t": 3.0, "a": 1.0}, "tolerance": "x"},
            "payload": {"certificate": {
                "kind": "cnd", "points": ["0", "1", "4"], "coeffs": ["1", "-2", "1"],
                "value": "0.5",
            }},
        }))
        code = main(["verify", str(rec)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error: ")

    def test_record_without_certificate_errors(self, capsys, tmp_path):
        rec = tmp_path / "n.json"
        assert main(["boundary", "--t", "2", "--out", str(rec)]) == 0
        capsys.readouterr()
        code, _ = run_cli(capsys, "verify", str(rec))
        assert code == 3

    def test_spectrum_certificate_confirms(self, capsys, tmp_path):
        rec = tmp_path / "s.json"
        code = main(
            ["spectrum", "--t", "2", "--a", "13", "--nodes", "48,96",
             "--half-width", "5", "--out", str(rec)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(rec.read_text())["payload"]
        assert payload["verdict"] == "NEGATIVE_FOUND"
        cert = payload["certificate"]
        assert cert["kind"] == "gram"
        assert float(cert["value"]) < 0
        assert len(cert["points"]) == len(cert["coeffs"]) <= 8  # a grid search
        for text in cert["points"] + cert["coeffs"]:
            assert Fraction(text) == Fraction(float(text))  # stored exactly
        outcome = verify_certificate(str(rec))
        assert outcome["verdict"] == "CONFIRMED"

    def test_tampered_spectrum_coefficient_mismatches(self, capsys, tmp_path):
        rec = tmp_path / "s.json"
        assert main(["spectrum", "--t", "2", "--a", "13", "--out", str(rec)]) == 0
        capsys.readouterr()
        record = json.loads(rec.read_text())
        coeffs = record["payload"]["certificate"]["coeffs"]
        coeffs[coeffs.index("1.0")] = "-1.0"  # the largest is scaled to 1
        assert all(c.startswith("-") for c in coeffs)  # so the form is positive
        rec.write_text(json.dumps(record))
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 3
        assert "MISMATCH" in out

    def test_cnd_certificate_confirms(self, capsys, tmp_path):
        rec = tmp_path / "c.json"
        code = main(
            ["cnd", "--t", "3", "--a", "1", "--points", "0,1,4",
             "--coeffs", "1,-2,1", "--out", str(rec)]
        )
        capsys.readouterr()
        assert code == 0
        outcome = verify_certificate(str(rec))
        assert outcome["verdict"] == "CONFIRMED"
        assert outcome["results"][0]["kind"] == "cnd"

    def test_sweep_certificate_uses_per_entry_weight(self, capsys, tmp_path):
        rec = tmp_path / "sw.json"
        code = main(
            ["sweep", "--a-grid", "13", "--nodes", "48,96",
             "--half-width", "5", "--out", str(rec)]
        )
        capsys.readouterr()
        assert code == 0
        reports = json.loads(rec.read_text())["payload"]["reports"]
        cert = reports[0]["certificate"]
        assert cert is not None and cert["a"] == 13.0
        outcome = verify_certificate(str(rec))
        assert outcome["verdict"] == "CONFIRMED"


class TestConfigValidation:
    def test_bad_tolerance_rejected(self, capsys):
        code, _ = run_cli(capsys, "gram", "--t", "2", "--a", "1", "--points", "0", "--tol", "-1")
        assert code == 2

    def test_runconfig_checks_tolerance_and_seed_in_params(self):
        for params in ({"tolerance": math.nan}, {"tolerance": 0.0}, {"seed": -1}):
            with pytest.raises(KpdError):
                RunConfig(command="gram", params=params)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, capsys, tol):
        # at the default tolerance this Gram matrix FAILs with a certificate
        argv = ["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0"]
        code = main(argv + ["--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: tolerance must be finite")
        assert captured.out == ""

    def test_negative_seed_rejected(self, capsys):
        code = main(["identities", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: seed must be >= 0")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--a-grid", "1,x"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,y"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,inf"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,2.5"),
            ("gram", "--t", "2", "--a", "13", "--points", "1,x"),
            ("cnd", "--t", "2", "--a", "13", "--points", "0,1", "--coeffs", "1,y"),
            ("sweep", "--a-grid", "1,inf"),
            ("gram", "--t", "2", "--a", "13", "--points", "0,nan"),
            ("cnd", "--t", "2", "--a", "13", "--points", "0,1", "--coeffs", "1,-inf"),
        ],
        ids=[
            "a-grid", "nodes", "nodes-inf", "nodes-fraction", "gram-points", "cnd-coeffs",
            "a-grid-inf", "gram-points-nan", "cnd-coeffs-inf",
        ],
    )
    def test_unparsable_list_rejected(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("spectrum", "--t", "2", "--a", "13", "--nodes", "0"), ">= 1"),
            (("spectrum", "--t", "2", "--a", "13", "--nodes", "-3"), ">= 1"),
            (("spectrum", "--t", "2", "--a", "13", "--nodes", "100,0,400"), ">= 1"),
            (("sweep", "--a-grid", "13", "--nodes", "0"), ">= 1"),
            (("sweep", "--a-grid", "13", "--nodes", "-3"), ">= 1"),
            (("spectrum", "--t", "2", "--a", "13", "--nodes", "32,16"), "nondecreasing"),
            (("sweep", "--a-grid", "1,13", "--nodes", "32,16"), "nondecreasing"),
        ],
        ids=[
            "spectrum-0", "spectrum-neg", "spectrum-inner-0", "sweep-0", "sweep-neg",
            "spectrum-decreasing", "sweep-decreasing",
        ],
    )
    def test_node_count_below_one_rejected(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"configuration error: node counts must be {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("half_width", ["inf", "nan"])
    def test_non_finite_half_width_is_a_domain_error(self, capsys, half_width):
        # rejected with the other non-finite inputs, before any computation
        code = main(["spectrum", "--t", "2", "--a", "13", "--half-width", half_width])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: numbers must be finite")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--t", "inf", "--a", "13"),
            ("spectrum", "--t", "2", "--a", "nan"),
            ("boundary", "--t", "inf"),
            ("boundary", "--t", "2", "--a=-inf"),
            ("sweep", "--t", "nan"),
            ("gram", "--t", "2", "--a", "inf", "--points", "0,1"),
        ],
        ids=["spectrum-t", "spectrum-a", "boundary-t", "boundary-a", "sweep-t", "gram-a"],
    )
    def test_non_finite_parameter_rejected(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: numbers must be finite")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("boundary", "--t", "2", "--bogus", "1"),
            # the witness order is floor t, the identity and fracpow grids
            # are fixed, and verify takes only a record path
            ("witness", "--t", "3.5", "--a", "1", "--order", "3"),
            ("identities", "--n-max", "2"),
            ("fracpow", "--s-grid", "0.5"),
            ("verify", "record.json", "--precision", "50"),
            # each command takes only the options it reads: the witness
            # works at a fixed precision, gram has no coefficients, and only
            # sweep writes CSV, as json or csv
            ("witness", "--t", "3.5", "--a", "1", "--precision", "50"),
            ("witness", "--t", "3.5", "--a", "1", "--precision", "801"),
            ("gram", "--t", "2", "--a", "13", "--points", "0,1", "--coeffs", "1,1"),
            ("boundary", "--t", "2", "--tol", "1e-9"),
            ("spectrum", "--t", "2", "--a", "13", "--format", "csv"),
            ("sweep", "--format", "xml"),
        ],
        ids=[
            "bogus", "witness-order", "identities-n-max", "fracpow-s-grid",
            "verify-precision", "witness-precision", "precision-above-cap",
            "gram-coeffs", "boundary-tol", "spectrum-format", "bad-format",
        ],
    )
    def test_unknown_flag_rejected(self, capsys, monkeypatch, argv):
        # argparse rejects these before any computation
        monkeypatch.setattr(kpd.cli, "run", None)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_diagnostic_error_exit_code(self, capsys):
        # t above the overflow cap triggers a diagnostic, not a traceback
        code, _ = run_cli(capsys, "boundary", "--t", "31")
        assert code == 3
