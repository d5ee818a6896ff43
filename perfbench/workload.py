"""One workload process: set-up, the timed closed loop, then the checks.

``run.py`` starts this script in a fresh interpreter with BLAS and OpenMP
limited to one thread.  It imports ``kpd.cli``, warms up every job class,
then runs whole rounds of the workload's operations, one at a time, until
``--seconds`` have passed.  Garbage is collected between operations,
outside the timed region.  The last line of its output is one JSON object
with the raw figures; ``run.py`` turns them into the benchmark's metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import calibration
import checks
import jobs
import oracles

# The reference that matches each workload's dominant kind of work.
REFERENCES = {
    "spectral-sweep": calibration.numpy_reference,
    "witness-certify": calibration.python_reference,
    "exact-series": calibration.python_reference,
}
REFERENCE_INTERVAL_S = 0.3


class _NullSink(io.TextIOBase):
    def write(self, text):
        return len(text)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class Workload:
    def __init__(self, name, seed, out_dir):
        import kpd.cli
        import kpd.witness
        from kpd.kernel import KernelParams

        # Looked up at call time, so that the traced run's wrappers apply.
        self._main = lambda argv: kpd.cli.main(argv)
        self._series = lambda t, a, order: kpd.witness.cleared_form_series(
            KernelParams(t, a), kpd.witness.build_binomial_witness(order)
        )
        self.ops, self.warmup = jobs.build(name, seed)
        self.index = {op["id"]: i for i, op in enumerate(self.ops)}
        self.out_dir = out_dir
        self.first = {}  # op index -> first output (record or series)
        self.digests = {}
        self.sizes = {}  # op index -> record sizes, one per pass
        self.failures = {}  # op index -> reason of the first failure
        self.problems = []

    def _path(self, record):
        if record in self.index:
            return os.path.join(self.out_dir, f"op-{self.index[record]}.json")
        return os.path.join(self.out_dir, record.split(":")[0] + ".json")

    def timed(self, i):
        """Run operation i; return (start, seconds, exit code, output)."""
        op = self.ops[i]
        if "series" in op:
            start = time.perf_counter()
            output = self._series(*op["series"])
            return start, time.perf_counter() - start, 0, output
        if op["role"] == "job":
            argv, sink = op["argv"] + ["--out", self._path(op["id"])], _NullSink()
        else:
            argv, sink = ["verify", self._path(op["record"])], io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = self._main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            elapsed = time.perf_counter() - start
        return start, elapsed, code, sink.getvalue() if op["role"] == "replay" else None

    def settle(self, i, code, output):
        """Record the outcome of one operation (outside the timed region).
        Returns True when the operation failed."""
        op = self.ops[i]
        if op["role"] == "replay":
            source = self.index.get(op["record"])
            n_certs = checks.count_points(self.first[source]["payload"])[0] if source in self.first else 0
            failed, reason = checks.check_replay(code, output, op["expect"]["outcome"], n_certs)
        elif "series" in op:
            failed, reason = False, None
            digest = hashlib.sha256(repr(sorted((k, str(v)) for k, v in output.terms.items())).encode()).hexdigest()
            self._keep(i, output, digest)
        else:
            failed, reason = code != 0, f"exit {code}"
            if not failed:
                with open(self._path(op["id"]), "rb") as fh:
                    raw = fh.read()
                record = json.loads(raw)
                self.sizes.setdefault(i, []).append(len(raw))
                self._keep(i, record, _digest(record["payload"]))
        if failed:
            self.failures.setdefault(i, reason)
        return failed

    def _keep(self, i, output, digest):
        if i not in self.first:
            self.first[i], self.digests[i] = output, digest
        elif digest != self.digests[i]:
            self.problems.append(f"{self.ops[i]['id']}: output changed between passes")
            self.digests[i] = digest

    def make_tampered(self):
        """A point-perturbed copy of a g certificate (its 2x2 Gram becomes
        positive definite, so the replay must be MISMATCH) and the forged
        gram record with a positive value."""
        for op in self.ops:
            record = op.get("record", "")
            if record.startswith("perturbed:"):
                with open(self._path(record.split(":", 1)[1]), encoding="utf-8") as fh:
                    rec = json.load(fh)
                cert = rec["payload"]["violation"]["certificate"]
                cert["points"][0] = repr(float(cert["points"][0]) + 5.0)
                with open(self._path(record), "w", encoding="utf-8") as fh:
                    json.dump(rec, fh)
                self.perturbed = rec
            elif record == "forged":
                with open(self._path(record), "w", encoding="utf-8") as fh:
                    json.dump(jobs.FORGED_RECORD, fh)

    def check_outputs(self):
        for i, output in sorted(self.first.items()):
            op = self.ops[i]
            try:
                if "series" in op:
                    self.problems += checks.check_series(output, *op["series"])
                else:
                    self.problems += checks.check_record(output, op["expect"])
            except Exception as exc:  # a malformed output is a wrong output
                self.problems.append(f"{op['id']}: check raised {type(exc).__name__}: {exc}")
        rec = getattr(self, "perturbed", None)
        if rec is not None:
            cert = rec["payload"]["violation"]["certificate"]
            params = rec["config"]["params"]
            lo, _ = oracles.certified_form(params["t"], params["a"], cert["points"], cert["coeffs"])
            if not lo > 0:
                self.problems.append("perturbed record: its form is not positive, so MISMATCH is not the right verdict")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at process spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import kpd.cli

    src = os.path.realpath("src")
    if not os.path.realpath(kpd.cli.__file__).startswith(src + os.sep):
        sys.exit(f"kpd imported from {kpd.cli.__file__}, not from {src}")
    os.makedirs(args.out, exist_ok=True)
    work = Workload(args.workload, args.seed, args.out)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    for op_id in work.warmup:
        i = work.index[op_id]
        _, _, code, output = work.timed(i)
        if work.settle(i, code, output):
            sys.exit(f"warm-up operation {op_id} failed: {work.failures[i]}")
    work.make_tampered()
    for kept in (work.first, work.digests, work.sizes, work.failures):
        kept.clear()
    gc.collect()
    gc.freeze()
    setup_raw = time.monotonic() - args.t0
    reference = REFERENCES[args.workload]
    setup_s = setup_raw * calibration.NOMINAL_S / statistics.median(calibration.sample(reference)[1] for _ in range(7))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return

    ops = work.ops
    times = [[] for _ in ops]
    failed = passes = 0
    refs, last_ref = [], -1.0
    loop_start = time.monotonic()
    while passes == 0 or time.monotonic() - loop_start < args.seconds:
        for i in range(len(ops)):
            gc.collect()
            if tracer:
                tracer.key = (i, passes)
            start, elapsed, code, output = work.timed(i)
            if tracer:
                tracer.key = None
            times[i].append((start, elapsed))
            failed += work.settle(i, code, output)
            if time.monotonic() - last_ref >= REFERENCE_INTERVAL_S:
                refs.append(calibration.sample(reference))
                last_ref = time.monotonic()
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
    gc.unfreeze()

    work.check_outputs()
    best = [min(e for _, e in ts) for ts in times]
    local = calibration.Speed(refs)
    scaled = [statistics.median(local.scaled(start, e) for start, e in ts) for ts in times]
    job_ix = [i for i, op in enumerate(ops) if op["role"] == "job"]
    replay_ix = [i for i, op in enumerate(ops) if op["role"] == "replay"]
    sizes = [statistics.mean(work.sizes[i]) for i in sorted(work.sizes)]
    certs = [checks.count_points(work.first[i]["payload"]) for i in sorted(work.sizes)]

    def time_metrics(est):
        return {
            "jobs_per_s": len(job_ix) / sum(est[i] for i in job_ix),
            "job_ms_p50": 1000.0 * statistics.median(est[i] for i in job_ix),
            "verifies_per_s": len(replay_ix) / sum(est[i] for i in replay_ix),
        }

    raw = time_metrics(best)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "scale": local.scale,
        "raw": raw,
        "passes": passes,
        "attempted": passes * len(ops),
        "failed": failed,
        "failures": sorted({f"{ops[i]['id']}: {r}" for i, r in work.failures.items()}),
        "problems": work.problems,
        "metrics": {
            **time_metrics(scaled),
            "peak_rss_mb": peak_rss_mb,
            "record_kb": statistics.mean(sizes) / 1024.0,
            "cert_points": sum(p for _, p in certs) / max(1, sum(n for n, _ in certs)),
        },
    }
    with open(os.path.join(args.out, f"times-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"reference": refs, "ops": {op["id"]: ts for op, ts in zip(ops, times)}}, fh)
    if tracer:
        # Each operation's spans come from its median pass (the sample its
        # scaled time is taken from), scaled by the same local factor.
        picked = {}
        for i, ts in enumerate(times):
            factors = [local.scaled(start, e) / e for start, e in ts]
            order = sorted(range(len(ts)), key=lambda p: ts[p][1] * factors[p])
            median_pass = order[(len(order) - 1) // 2]
            picked[i] = (median_pass, factors[median_pass])
        result["layers"] = tracer.layer_metrics(picked)
        tracer.dump(
            os.path.join(args.out, f"trace-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "ops": [op["id"] for op in ops], "picked": picked},
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
