import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import kpd.cli
import kpd.witness
from kpd.cli import RunConfig, main, run, verify_certificate
from kpd.errors import KpdError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBoundaryCommand:
    def test_t2_report(self, capsys):
        code, out = run_cli(capsys, "boundary", "--t", "2")
        assert code == 0
        record = json.loads(out)
        payload = record["payload"]
        assert abs(payload["a_threshold"]["f64"] - 12.0) <= 1e-12 * 12.0
        assert payload["z_tangent"]["f64"] == 0.25
        assert record["config"]["command"] == "boundary"
        assert record["config"]["seed"] == 0

    def test_violation_search_embeds_certificate(self, capsys):
        code, out = run_cli(capsys, "boundary", "--t", "2", "--a", "13")
        assert code == 0
        violation = json.loads(out)["payload"]["violation"]
        assert violation["found"] is True
        cert = violation["certificate"]
        assert cert["kind"] == "g"
        assert float(cert["value"]) < 0
        assert len(cert["points"]) == len(cert["coeffs"]) == 2


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

        for module in (kpd.cli, kpd.witness):
            monkeypatch.setattr(module, "t_power_coefficient", counted)
        code, out = run_cli(capsys, "witness", "--t", "3.75", "--a", "0.01")
        assert code == 0
        assert json.loads(out)["payload"]["negativity"] == "certified"
        assert len(calls) == 1

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
        gram = ["gram", "--t", "2", "--a", "13", "--points", "0.4472135954999579,0"]

        def gram_then_verify(path):
            assert main(gram + ["--out", str(path)]) == 0
            capsys.readouterr()
            assert main(["verify", str(path)]) == 0
            record = json.loads(path.read_text())
            return record["config"], record["payload"], capsys.readouterr().out

        first = gram_then_verify(tmp_path / "first.json")
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--t", "x", "--a", "1", "--points", "0"])
        assert exc.value.code == 2
        again = gram_then_verify(tmp_path / "again.json")
        assert again[0] == {**first[0], "output_path": str(tmp_path / "again.json")}
        assert again[1:] == first[1:]


class TestSpectrumCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_t_completes(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--t", "1100", "--a", "2", "--nodes", "16")
        assert code == 0
        assert json.loads(out)["payload"]["tail_bound"]["f64"] == 0.0


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

    def test_csv_only_for_sweeps(self, capsys):
        code, _ = run_cli(capsys, "boundary", "--t", "2", "--format", "csv")
        assert code == 2


class TestDeterminism:
    def test_identical_config_identical_payload(self):
        configs = (
            RunConfig(
                command="identities",
                params={"n_max": 2, "m_max": 2, "samples": 2},
                seed=7,
            ),
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
        base = dict(command="identities", params={"n_max": 2, "m_max": 1, "samples": 1})
        r1 = run(RunConfig(seed=1, **base))
        r2 = run(RunConfig(seed=2, **base))
        assert set(r1.payload) == set(r2.payload)


class TestVerify:
    def test_witness_certificate_confirms(self, capsys, tmp_path):
        rec = tmp_path / "w.json"
        assert main(["witness", "--t", "1.5", "--a", "1", "--out", str(rec)]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "verify", str(rec))
        assert code == 0
        assert "CONFIRMED" in out

    def test_witness_at_precision_cap_confirms(self, capsys, tmp_path):
        rec = tmp_path / "w800.json"
        argv = ["witness", "--t", "3.5", "--a", "1", "--precision", "800", "--out", str(rec)]
        assert main(argv) == 0
        capsys.readouterr()
        cert = json.loads(rec.read_text())["payload"]["certificate"]
        assert cert["dps_used"] == 800
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
        ]
        + [
            {"kind": "gram", "points": ["0", "1"], "coeffs": ["1", "-1"], "value": "-0.5",
             "dps_used": dps}
            for dps in (1, 0, -1, 801)
        ],
        ids=["no-coeffs", "bad-point", "huge-point", "dps-1", "dps-0", "dps-neg", "dps-801"],
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
        code, _ = run_cli(capsys, "boundary", "--t", "2", "--tol", "-1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--a-grid", "1,x"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,y"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,inf"),
            ("spectrum", "--t", "2", "--a", "3", "--nodes", "10,2.5"),
        ],
        ids=["a-grid", "nodes", "nodes-inf", "nodes-fraction"],
    )
    def test_unparsable_list_rejected(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: ")

    def test_precision_above_cap_rejected(self, capsys):
        # a record written at more digits than verify replays could never confirm
        code = main(["witness", "--t", "3.5", "--a", "1", "--precision", "801"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("configuration error: ")

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["boundary", "--t", "2", "--bogus", "1"])
        assert exc.value.code == 2

    def test_runconfig_rejects_bad_format(self):
        with pytest.raises(KpdError):
            RunConfig(command="gram", params={}, format="xml")

    def test_diagnostic_error_exit_code(self, capsys):
        # t above the overflow cap triggers a diagnostic, not a traceback
        code, _ = run_cli(capsys, "boundary", "--t", "31")
        assert code == 3
