"""Payload identity of the benchmark's command lines.

``payload_hashes.json`` holds, for every distinct kpd command line that
``perfbench/jobs.build`` makes for its three workloads at seeds 1-5, the
exit code, the sha256 of the record's compact payload (its keys sorted, no
whitespace), the ``kpd verify`` verdict of the record and the rung each of
its certificates replayed at, in digits with 17 for binary64 (both null
where it holds no certificate); and for every series expansion of those rounds the
sha256 of its terms' exact values.  The tests below recompute all of it in a fresh
interpreter with one BLAS thread and compare.

Exit codes and replay verdicts are compared everywhere.  Payloads and
series hold binary64 eigenvalues, powers and quadrature sums whose last
bits vary with the Python, numpy, BLAS build and machine, so their hashes,
and the replay rungs that those last bits can move, are compared only on
the environment the file records.

A change that alters payloads on purpose regenerates the file with

    PYTHONPATH=src python tests/test_payload_identity.py --write

and says which command lines changed and why.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
STORED = os.path.join(HERE, "payload_hashes.json")
PERFBENCH = os.path.join(HERE, os.pardir, "perfbench")
SEEDS = range(1, 6)
# one BLAS thread, as the benchmark runs: the Nystrom eigenvalues that
# spectrum and sweep payloads report round differently with more
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def environment() -> dict:
    """What the payload hashes depend on beyond the code."""
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__, "machine": f"{platform.machine()} {cpu}"}


def compute() -> dict:
    """Run every command line and series expansion of the benchmark's
    rounds once, in this process, and digest the outcomes."""
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True  # perfbench/ holds scripts, not a package
    jobs = importlib.import_module("jobs")
    from kpd.cli import main, verify_certificate
    from kpd.errors import KpdError
    from kpd.kernel import KernelParams
    from kpd.witness import build_binomial_witness, cleared_form_series

    argvs, series = {}, set()
    for workload in sorted(jobs.WORKLOADS):
        for seed in SEEDS:
            for op in jobs.build(workload, seed)[0]:
                if "argv" in op:
                    argvs[" ".join(op["argv"])] = op["argv"]
                elif "series" in op:
                    series.add(tuple(op["series"]))
    commands = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        for key, argv in sorted(argvs.items()):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--out", path])
            entry = {"exit": code, "payload_sha256": None, "replay": None, "replay_dps": None}
            if code == 0:
                with open(path, encoding="utf-8") as fh:
                    payload = json.load(fh)["payload"]
                entry["payload_sha256"] = _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))
                with contextlib.suppress(KpdError):  # a record with no certificate
                    outcome = verify_certificate(path)
                    entry["replay"] = outcome["verdict"]
                    entry["replay_dps"] = [r["replayed_dps"] for r in outcome["results"]]
            commands[key] = entry
    expansions = {}
    for t, a, order in sorted(series):
        terms = cleared_form_series(KernelParams(t, a), build_binomial_witness(order)).terms
        # each coefficient's exact value: a Fraction, or an mpf's bits
        exact = sorted((k, getattr(v, "_mpf_", v)) for k, v in terms.items())
        expansions[f"{t!r} {a!r} {order}"] = _sha256(repr(exact))
    return {"environment": environment(), "commands": commands, "series": expansions}


def dumps(table: dict) -> str:
    """The file's text: one line per command line or expansion, so that a
    diff names each one that changed."""

    def block(name, entries):
        lines = (f"    {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items())
        return f'  "{name}": {{\n' + ",\n".join(lines) + "\n  }"

    head = f'  "environment": {json.dumps(table["environment"], sort_keys=True)}'
    return "{\n" + ",\n".join([head, block("commands", table["commands"]), block("series", table["series"])]) + "\n}\n"


@pytest.fixture(scope="module")
def tables():
    with open(STORED, encoding="utf-8") as fh:
        stored = json.load(fh)
    src = os.path.join(HERE, os.pardir, "src")
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    return stored, json.loads(out.stdout)


def test_exit_codes_and_replay_verdicts(tables):
    stored, fresh = tables
    assert sorted(fresh["series"]) == sorted(stored["series"])
    outcome = {k: (v["exit"], v["replay"]) for k, v in fresh["commands"].items()}
    assert outcome == {k: (v["exit"], v["replay"]) for k, v in stored["commands"].items()}


def test_payload_hashes(tables):
    stored, fresh = tables
    if fresh["environment"] != stored["environment"]:
        pytest.skip(
            f"payload hashes were recorded on {stored['environment']}, not on "
            f"{fresh['environment']}: only exit codes and replay verdicts are compared here"
        )
    changed = [k for k, v in fresh["commands"].items() if v != stored["commands"][k]]
    changed += [k for k, v in fresh["series"].items() if v != stored["series"][k]]
    assert changed == []


if __name__ == "__main__":
    os.environ.update(ONE_THREAD)  # before compute() imports numpy
    table = compute()
    if sys.argv[1:] == ["--write"]:
        with open(STORED, "w", encoding="utf-8") as fh:
            fh.write(dumps(table))
    else:
        print(json.dumps(table))
