"""The benchmark in ``perfbench/`` drives kpd by name: its tracer wraps kpd
functions looked up with ``getattr`` and its jobs are kpd command lines.
These tests read those names and command lines, so that a change to kpd
that would break the benchmark fails here first."""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

from kpd.cli import _build_parser, _config_from_args, main, verify_certificate
from kpd.kernel import KernelParams
from kpd.witness import build_binomial_witness, cleared_form_series

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _perfbench_module(name):
    # perfbench/ is a directory of scripts, not a package; import without
    # leaving byte code behind in it
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


tracing = _perfbench_module("tracing")
jobs = _perfbench_module("jobs")
checks = _perfbench_module("checks")


@pytest.mark.parametrize(
    "module, attr",
    [entry[1:3] for entry in tracing.SPANS + tracing.COUNTERS],
)
def test_traced_names_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _argv_value(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_job_command_lines_parse(workload):
    # the checks read these config echoes, which hold only the command and
    # the options it reads: they split the point and coefficient strings and
    # compare the ladders and grids as numbers
    argvs = []
    for seed in (1, 2, 3):
        ops, _ = jobs.build(workload, seed)
        argvs += [op["argv"] for op in ops if "argv" in op]
    assert argvs
    parser = _build_parser()
    for argv in argvs:
        # the benchmark adds --out to every job
        config = asdict(_config_from_args(parser.parse_args(argv + ["--out", "x.json"])))
        assert set(config) == {"command", "params"}
        command, params = config["command"], config["params"]
        assert command == argv[0]
        assert ("seed" in params) == (command == "identities")
        assert ("tolerance" in params) == (command in ("gram", "cnd", "fracpow"))
        if command in ("gram", "cnd"):
            assert params["points"] == _argv_value(argv, "--points")
            assert params.get("coeffs") == _argv_value(argv, "--coeffs")
        if command in ("spectrum", "sweep"):
            assert all(type(n) is int for n in params["nodes"])
        if command == "sweep":
            assert all(type(a) is float for a in params["a_grid"])
        if command == "fracpow":
            assert params["validate"] is True


def test_benchmark_checks_reject_corrupted_records():
    # the benchmark's own corruption tests, which read kpd's payload layout;
    # run apart from this suite, writing no byte code or cache into perfbench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_checks.py"],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_series_pass_the_benchmark_check(seed):
    # the benchmark's oracle for its exact-series jobs, on the expansions
    # those jobs compute
    ops, _ = jobs.build("exact-series", seed)
    series_ops = [op["series"] for op in ops if "series" in op]
    assert series_ops
    for t, a, order in series_ops:
        series = cleared_form_series(KernelParams(t, a), build_binomial_witness(order))
        assert checks.check_series(series, t, a, order) == []


def _claims(payload):
    """(negative?, certificate) for each verdict a payload states: a FAIL,
    a found violation, a certified witness or NEGATIVE_FOUND is negative."""
    for key in ("pd", "cnd"):
        if key in payload:
            yield payload[key]["verdict"] == "FAIL", payload["certificate"]
    if payload.get("violation"):
        yield payload["violation"]["found"], payload["violation"].get("certificate")
    if "negativity" in payload:
        yield payload["negativity"] == "certified", payload["certificate"]
    for report in [payload, *payload.get("reports", [])]:
        if "verdict" in report:
            yield report["verdict"] == "NEGATIVE_FOUND", report["certificate"]


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_round_passes_the_benchmark_checks(workload, tmp_path, capsys):
    # every job of the seed-1 round, held to the checks the benchmark applies
    # to its records; a record with certificates must replay CONFIRMED, and
    # a verdict is negative exactly where it carries a certificate
    ops, _ = jobs.build(workload, 1)
    job_ops = [op for op in ops if "argv" in op]
    assert job_ops
    seen = set()
    for op in job_ops:
        path = tmp_path / f"{op['id']}.json"
        assert main(op["argv"] + ["--out", str(path)]) == 0, op["argv"]
        capsys.readouterr()
        record = json.loads(path.read_text())
        assert checks.check_record(record, op["expect"]) == [], op["argv"]
        if checks.count_points(record["payload"])[0]:
            assert verify_certificate(str(path))["verdict"] == "CONFIRMED", op["argv"]
        for negative, certificate in _claims(record["payload"]):
            assert negative == (certificate is not None), op["argv"]
            seen.add(negative)
    assert seen == {True, False}


def test_witness_record_holds_its_digits(tmp_path, capsys):
    # the scan certifies this form's sign at 50 digits with a bound of 0.77
    # |Q|; the record's value and q_value come from the form enclosed again
    # at 100 digits, so they pass the benchmark's 1e-8 relative checks
    path = tmp_path / "witness.json"
    assert main(["witness", "--t", "3.70308", "--a", "0.0168", "--out", str(path)]) == 0
    capsys.readouterr()
    record = json.loads(path.read_text())
    assert checks.check_record(record, {"floor": "odd"}) == []
    assert record["payload"]["certificate"]["dps_used"] == 100
    assert verify_certificate(str(path))["verdict"] == "CONFIRMED"
