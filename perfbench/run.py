"""Benchmark of kpd's certificates: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a kpd checkout.  The workload runs in a fresh Python
process (``workload.py``) with ``PYTHONPATH=src`` and BLAS/OpenMP limited
to one thread.  Set-up is measured in that process and in two more
processes that only set up, and ``setup_s`` is the median of the three.
Time metrics are scaled to a reference speed (see ``calibration.py``); the
line before the result gives the scale and the unscaled figures.
With ``--trace 1`` the functions of kpd's layers are wrapped and the
result holds the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Records and trace
files go to ``perfbench-out/`` in the checkout; no byte code is written.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
from tracing import LAYER_METRICS  # noqa: E402  (stdlib-only module)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("spectral-sweep", "witness-certify", "exact-series")
SETUP_PROBES = 2
UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "verifies_per_s": "1/s",
    "peak_rss_mb": "MB",
    "record_kb": "KiB",
    "cert_points": "points",
}


def _environment(root):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, root, setup_only, timeout):
    """Run workload.py once; return its parsed last line."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join("perfbench-out", args.workload),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # the --t0 stamp is taken just before the process is spawned
    proc = subprocess.Popen(cmd, cwd=root, env=_environment(root), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"workload process exceeded {timeout} s")
    if proc.returncode != 0:
        sys.exit(f"workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kpd", "cli.py")):
        sys.exit("no kpd sources at ./src/kpd: run from the root of a kpd checkout")

    probes = [] if args.trace else [_child(args, root, True, timeout=60) for _ in range(SETUP_PROBES)]
    result = _child(args, root, False, timeout=args.seconds + 120)
    probes.append(result)
    setups = [p["setup_s"] for p in probes]

    for line in result["failures"]:
        print(f"failed operation: {line}", file=sys.stderr)
    for line in result["problems"][:40]:
        print(f"wrong output: {line}", file=sys.stderr)
    if args.trace:
        layers = result["layers"]
        layers["trace.jobs_per_s"] = result["metrics"]["jobs_per_s"]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    raw = dict(result["raw"], setup_s=statistics.median(p["setup_raw_s"] for p in probes))
    print(
        f"workload={args.workload} seed={args.seed} passes={result['passes']} "
        f"attempted={result['attempted']} failed={result['failed']} scale={result['scale']:.4f} "
        f"unscaled={json.dumps(raw)}"
    )
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
