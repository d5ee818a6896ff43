"""Seeded operation lists for the three workloads.

A workload is one round of operations, repeated whole until the run time is
used up.  Each operation is a dict:

    id       unique name within the round
    role     "job" (a timed kpd command or series expansion) or "replay"
             (a timed ``kpd verify``)
    argv     kpd command line without --out (role job, cli operations)
    series   (t, a, order) for a direct ``cleared_form_series`` call
    record   id of the job whose record a replay reads, or a tampered file
    expect   what the checks hold the output to

The structure of a round (how many operations of each kind, which of them
carry certificates) is fixed; the seed only moves parameter values inside
ranges where the outcome the checks expect is known.  So every seed
attempts the same number of operations and replays the same number of
certificates.
"""

import math
import random

import oracles

LADDER = (100, 200, 400)
FORGED_RECORD = {
    "version": "0.1.0",
    "config": {"command": "gram", "params": {"t": 2.0, "a": 13.0}},
    "metadata": {},
    "payload": {
        "certificate": {
            "kind": "gram",
            "points": ["0", "1"],
            "coeffs": ["1", "1"],
            "value": "0.5",
        }
    },
}


def _f(x, digits=6):
    return repr(round(float(x), digits))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _job(ops, op_id, argv, **expect):
    ops.append({"id": op_id, "role": "job", "argv": argv, "expect": expect})


def _replay(ops, record, expect="confirmed"):
    ops.append(
        {
            "id": f"verify-{record}",
            "role": "replay",
            "record": record,
            "expect": {"outcome": expect},
        }
    )


def spectral_sweep(rng):
    """Default ladder (100, 200, 400 nodes, L = 20) in three regions.

    The open region is drawn from a in [2.5, 12], where the probe certifies
    a negative direction, and from a in [0.05, 0.9], where the final-rung
    spectrum has no negative eigenvalue above rounding.  Between the two,
    whether certification is attempted and succeeds changes with a, which
    would make the number of certificates depend on the seed.
    """
    ops = []
    open_a = [rng.uniform(2.5, 12.0) for _ in range(3)]
    control_a = [rng.uniform(12.5, 24.0) for _ in range(2)]
    pd_t = [rng.uniform(0.25, 1.0) for _ in range(2)]
    small_a = rng.uniform(0.05, 0.9)
    spectrum = ["spectrum"]
    _job(ops, "spectrum-open-1", spectrum + ["--t", "2", "--a", _f(open_a[0])])
    _job(ops, "spectrum-open-2", spectrum + ["--t", "2", "--a", _f(open_a[1])])
    _job(ops, "spectrum-control", spectrum + ["--t", "2", "--a", _f(control_a[0])])
    _job(
        ops,
        "spectrum-pd",
        spectrum + ["--t", _f(pd_t[0]), "--a", _f(_log_uniform(rng, 0.05, 30.0))],
    )
    sweep = ["sweep"]
    pd_grid = [_f(_log_uniform(rng, 0.05, 30.0)) for _ in range(2)]
    _job(ops, "sweep-pd", sweep + ["--t", _f(pd_t[1]), "--a-grid", ",".join(pd_grid)])
    t2_grid = [_f(small_a), _f(open_a[2]), _f(control_a[1])]
    _job(ops, "sweep-t2", sweep + ["--t", "2", "--a-grid", ",".join(t2_grid)])
    for record in ("spectrum-open-1", "spectrum-open-2", "spectrum-control", "sweep-t2"):
        _replay(ops, record)
    warmup = ["spectrum-open-1", "verify-spectrum-open-1", "spectrum-pd"]
    return ops, warmup


def witness_certify(rng):
    """Small certificates: f (witness), g (boundary), gram and cnd.

    The median job is one of the small gram/cnd/boundary commands, which
    make up more than half of the round.
    """
    ops = []
    # f certificates at odd floor, two weights per floor (a low and a high
    # band), plus one fixed case whose scan needs precision escalation.
    # The scan's cost jumps with (t, a) elsewhere; inside these bands it
    # stays within a few milliseconds, so the seed barely moves the totals.
    for floor in (1, 3, 5, 7):
        for stratum, (lo, hi) in enumerate(((0.01, 0.03), (3.0, 13.0))):
            t = floor + rng.uniform(0.25, 0.5)
            a = _log_uniform(rng, lo, hi)
            _job(ops, f"witness-odd-{floor}-{stratum}", ["witness", "--t", _f(t), "--a", _f(a)], floor="odd")
    _job(ops, "witness-escalate", ["witness", "--t", "3.75", "--a", "0.01"], floor="odd")
    for floor in (2, 4, 6):
        t = floor + rng.uniform(0.1, 0.9)
        a = _log_uniform(rng, 0.01, 13.0)
        _job(ops, f"witness-even-{floor}", ["witness", "--t", _f(t), "--a", _f(a)], floor="even")
    # Two-point boundary: above the threshold a violation must be found;
    # well below the violation window none exists.
    for i, t in enumerate((2.0, rng.uniform(1.3, 3.5))):
        a = float(oracles.a_threshold(float(_f(t)))) * rng.uniform(1.2, 3.0)
        _job(ops, f"boundary-above-{i}", ["boundary", "--t", _f(t), "--a", _f(a)], side="above")
    t = float(_f(rng.uniform(1.3, 3.5)))
    a = oracles.violation_window_floor(t) * rng.uniform(0.2, 0.6)
    _job(ops, "boundary-below", ["boundary", "--t", _f(t), "--a", _f(a)], side="below")
    _job(ops, "boundary-t2", ["boundary", "--t", "2"], side=None)
    # Gram matrices at two-point violations and at seeded sets with t <= 1.
    for i in range(2):
        t = float(_f(rng.uniform(1.3, 3.5)))
        a = float(_f(float(oracles.a_threshold(t)) * rng.uniform(1.2, 3.0)))
        x = math.sqrt(oracles.violation_z(t, a))
        _job(ops, f"gram-violation-{i}", ["gram", "--t", _f(t), "--a", _f(a), f"--points={x!r},0"], region="violation")
    for i, n in enumerate((3, 4, 5, 6, 7, 8, 5)):
        pts = [_f(rng.uniform(-5.0, 5.0)) for _ in range(n)]
        t, a = rng.uniform(0.25, 1.0), _log_uniform(rng, 0.1, 30.0)
        _job(ops, f"gram-pd-{i}", ["gram", "--t", _f(t), "--a", _f(a), "--points=" + ",".join(pts)], region="pd")
    # Zero-sum distance forms: CND for t <= 1; at t = 2 the pair (0, x)
    # with coefficients (1, -1) gives 2 a x^4 - 2 x^2 > 0 once a x^2 > 1.
    for i, n in enumerate((3, 4, 5, 6, 3, 4, 5)):
        pts = [_f(rng.uniform(-5.0, 5.0)) for _ in range(n)]
        coeffs = [rng.randint(-5, 5) for _ in range(n - 1)]
        coeffs.append(-sum(coeffs))
        t, a = rng.uniform(0.25, 1.0), _log_uniform(rng, 0.1, 30.0)
        argv = ["cnd", "--t", _f(t), "--a", _f(a), "--points=" + ",".join(pts), "--coeffs=" + ",".join(map(str, coeffs))]
        _job(ops, f"cnd-pd-{i}", argv, region="pd")
    x, a = rng.uniform(1.5, 3.0), rng.uniform(1.0, 13.0)
    argv = ["cnd", "--t", "2", "--a", _f(a), f"--points=0,{_f(x)}", "--coeffs=1,-1"]
    _job(ops, "cnd-violation", argv, region="violation")

    for op in list(ops):
        if op["expect"].get("floor") == "odd" or op["expect"].get("side") == "above" or op["expect"].get("region") == "violation":
            _replay(ops, op["id"])
    _replay(ops, "perturbed:boundary-above-0", expect="mismatch")
    _replay(ops, "forged", expect="rejected")
    warmup = ["witness-odd-1-1", "witness-even-2", "boundary-above-0", "boundary-t2", "gram-pd-0", "cnd-pd-0", "verify-witness-odd-1-1"]
    return ops, warmup


def exact_series(rng):
    """cleared_form_series for binomial witnesses of order 1-4 (3-6 points).

    Order 5 costs seconds per expansion and is left out.  Every (t, a) also
    gets its ``kpd witness`` record, and a replay when that record holds an
    f certificate (odd floor).  Weights are drawn from [1, 13], where the
    witness scan stops within a few steps, so the series dominates.
    """
    ops = []
    counts = {1: 4, 2: 3, 3: 2, 4: 1}
    for order, count in counts.items():
        for i in range(count):
            t = float(_f(order + rng.uniform(0.15, 0.85)))
            a = float(_f(_log_uniform(rng, 1.0, 13.0)))
            ops.append(
                {
                    "id": f"series-{order}-{i}",
                    "role": "job",
                    "series": (t, a, order),
                    "expect": {},
                }
            )
            _job(ops, f"witness-{order}-{i}", ["witness", "--t", _f(t), "--a", _f(a)], floor="odd" if order % 2 else "even")
    _job(ops, "identities", ["identities", "--seed", str(rng.randint(0, 2**31 - 1))])
    _job(ops, "fracpow", ["fracpow", "--validate", "--tol", "1e-6"])
    for op in list(ops):
        if op["expect"].get("floor") == "odd":
            _replay(ops, op["id"])
    warmup = ["series-1-0", "witness-1-0", "verify-witness-1-0", "witness-2-0", "identities", "fracpow"]
    return ops, warmup


WORKLOADS = {
    "spectral-sweep": spectral_sweep,
    "witness-certify": witness_certify,
    "exact-series": exact_series,
}


def _interleave(ops, rng):
    """Shuffle the round so that operations of one kind are spread over it
    (the machine's speed drifts over seconds; best-of-passes estimates need
    samples of each kind from different moments).  A replay stays after
    the job that writes its record."""
    order = [op for op in ops if op["role"] == "job"]
    rng.shuffle(order)
    for op in ops:
        if op["role"] == "replay":
            ids = [o["id"] for o in order]
            after = ids.index(op["record"]) + 1 if op["record"] in ids else 0
            order.insert(rng.randint(after, len(order)), op)
    return order


def build(workload, seed):
    """(ops, warm-up op ids) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops, warmup = WORKLOADS[workload](rng)
    return _interleave(ops, rng), warmup
