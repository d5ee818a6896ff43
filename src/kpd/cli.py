"""Command-line interface: the subcommands, their parser and the run record.

Subcommands map one-to-one onto the library modules:

    gram       Gram matrix + PD verdict at an explicit point set
    cnd        zero-sum distance-form test at an explicit configuration
    boundary   closed-form two-point boundary (optionally: violation search)
    witness    binomial witness of order floor t (floor t + 1 where that
               scan fails), moments, z^t coefficient, certificate
    identities exact combinatorial identity suite on seeded rational points
    fracpow    fractional-power integral representation validation
    spectrum   Nystrom spectral probe at one (t, a)
    sweep      evidence sweep over weights a at fixed t
    verify     replay stored certificates using kernel arithmetic only

Each subcommand declares only the options it reads: ``--out`` on every
run command, ``--tol`` on gram, cnd and fracpow, ``--seed`` on
identities and ``--format json|csv`` on sweep.  Every run emits a JSON
record {version, config, metadata, payload} whose config is exactly
{command, params}, the options the command read; the payload is a pure
function of it (seed included; the caller's mpmath precision is not
read), so identical configs produce byte-identical payloads on a fixed
BLAS thread count (the Nystrom eigenvalues that spectrum and sweep report
round differently with more threads; their certificates do not).
Timestamps and wall time live only in the metadata block.  Numeric
payload values carry both a decimal string at full working precision and
a binary64 convenience field, null where the value is not finite, so
records are strict JSON.
A negative verdict (FAIL, a found violation or witness, NEGATIVE_FOUND)
is the presence of a :class:`kpd.kernel.Certificate`, which
:mod:`kpd.certificate` writes into the payload and ``kpd verify`` replays;
any other verdict, such as a gram eigenvalue below -tol whose eigenvector
is not certified (a PASS with ``boundary: true``), has
``"certificate": null``.

Each command imports its library modules, and numpy, when it runs, so
that ``kpd verify`` loads neither.

Exit status: 0 for a completed analysis (a mathematical FAIL is still a
completed analysis), 2 for configuration errors, 3 for numerical
diagnostics or a replay that is not CONFIRMED.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import mpmath as mp

from . import __version__
from .certificate import dec, encode, verify_certificate
from .errors import KpdError, ToleranceError
from .kernel import KernelParams, PointConfig, check_zero_sum

SCHEMA_VERSION = 1
CSV_HEADER = ["t", "a", "level", "node_count", "L", "min_eigenvalue", "verdict"]


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the command and the options it reads,
    echoed verbatim into every record."""

    command: str
    params: dict

    def __post_init__(self):
        tolerance = self.params.get("tolerance")
        if tolerance is not None and not (0 < tolerance < math.inf):
            raise KpdError(f"tolerance must be finite and > 0, got {tolerance}")
        if self.params.get("seed", 0) < 0:
            raise KpdError(f"seed must be >= 0, got {self.params['seed']}")
        if self.command == "cnd":  # cnd_check's preconditions on the input
            n, c = len(_parse_floats(self.params["points"])), _parse_floats(self.params["coeffs"])
            if n < 2 or len(c) != n:
                raise KpdError(f"cnd needs n >= 2 points and n coefficients, got {n} and {len(c)}")
            check_zero_sum(c)


@dataclass
class RunRecord:
    """A completed run: config echo, metadata, and the payload."""

    config: RunConfig
    payload: dict
    wall_ms: float
    timestamp: str
    version: str = field(default=__version__)

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "config": asdict(self.config),
            "metadata": {
                "wall_ms": self.wall_ms,
                "timestamp": self.timestamp,
            },
            "payload": self.payload,
        }

    def payload_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2, allow_nan=False)


def _num(x, dps: int = 30) -> dict:
    """Encode a number as {dec, f64}: full-precision decimal plus binary64,
    which is null where the number is not finite in binary64 (strict JSON
    has no inf or nan; ``dec`` keeps them)."""
    f64 = float(x)
    return {"dec": dec(x, dps), "f64": f64 if math.isfinite(f64) else None}


def _verdict_dict(verdict) -> dict:
    return {
        "verdict": verdict.verdict,
        "statistic": _num(verdict.statistic, verdict.dps),
        "tolerance": _num(verdict.tolerance),
        "boundary": verdict.boundary,
    }


def _finite(text: str) -> float:
    """A finite number; argparse reports text that is no number at all."""
    value = float(text)
    if not math.isfinite(value):
        raise KpdError(f"numbers must be finite, got {text!r}")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite(v) for v in text.split(","))
    except ValueError as exc:
        raise KpdError(f"could not parse float list {text!r}: {exc}") from exc


def _float_list(text: str) -> str:
    """A --points or --coeffs list, checked and kept as the text given."""
    _parse_floats(text)
    return text


def _parse_nodes(text: str) -> tuple[int, ...]:
    values = _parse_floats(text)
    if not all(v.is_integer() for v in values):
        raise KpdError(f"node counts must be integers, got {values}")
    if min(values) < 1:
        raise KpdError(f"node counts must be >= 1, got {values}")
    if any(b < a for a, b in zip(values, values[1:])):
        raise KpdError(f"node counts must be nondecreasing, got {values}")
    return tuple(map(int, values))


# ---------------------------------------------------------------------------
# Command payload builders.  Each is a pure function of the RunConfig.


def _cmd_gram(cfg: RunConfig) -> dict:
    from .definiteness import pd_check
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    points = _parse_floats(p["points"])
    verdict = pd_check(params, points, tolerance=p["tolerance"])
    return {
        "t": _num(params.t),
        "a": _num(params.a),
        "points": [_num(x) for x in points],
        "entries": [[float(v) for v in row] for row in verdict.gram],
        "pd": _verdict_dict(verdict),
        "certificate": encode("gram", verdict.certificate),
    }


def _cmd_cnd(cfg: RunConfig) -> dict:
    from .definiteness import cnd_check
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    config = PointConfig(_parse_floats(p["points"]), _parse_floats(p["coeffs"]))
    verdict = cnd_check(params, config, tolerance=p["tolerance"])
    s = verdict.statistic  # negated exactly, as cnd_check does
    return {
        "t": _num(params.t),
        "a": _num(params.a),
        "cnd": _verdict_dict(verdict),
        "form_value": _num(-s if isinstance(s, float) else mp.fneg(s, exact=True), verdict.dps),
        "certificate": encode("cnd", verdict.certificate),
    }


def _cmd_boundary(cfg: RunConfig) -> dict:
    from .boundary import boundary_report, find_schwarz_violation
    p = cfg.params
    report = boundary_report(p["t"])
    payload = {
        "t": _num(report.t),
        "z_tangent": _num(report.z_tangent),
        "a_threshold": _num(report.a_threshold),
        "violation": None,
    }
    if p.get("a") is not None:
        result = find_schwarz_violation(p["t"], p["a"])
        violation = {
            "found": result.found,
            "scan": {
                "lo": _num(result.scan_lo),
                "hi": _num(result.scan_hi),
                "points": result.scan_points,
                "min_g": _num(result.scan_min_g),
                "argmin_z": _num(result.scan_argmin_z),
            },
        }
        if result.found:
            violation["z"] = _num(result.z)
            violation["g_value"] = _num(result.g_value)
            violation["min_eigenvalue"] = _num(result.min_eigenvalue)
            violation["certificate"] = encode("g", result.certificate, z=dec(result.z))
        payload["violation"] = violation
    return payload


def _cmd_witness(cfg: RunConfig) -> dict:
    from .witness import SERIES_DPS, build_binomial_witness, check_moments, find_negative_scale
    from .witness import predict_t_coefficient_sign, t_power_coefficient
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    order = math.floor(params.t)
    w = build_binomial_witness(order)
    kappa, cert = t_power_coefficient(params, w), None
    if kappa < 0:
        try:
            cert = find_negative_scale(params, w, kappa)
        except ToleranceError:
            # near t = T + 1 the order-T window of f < 0 closes (see kpd.witness)
            w = build_binomial_witness(order + 1)
            kappa = t_power_coefficient(params, w)
            cert = find_negative_scale(params, w, kappa)
    payload = {
        "t": _num(params.t),
        "a": _num(params.a),
        "witness": {
            "n": w.n,
            "moment_order": w.moment_order,
            "y": [dec(v) for v in w.y],
            "c": [dec(v) for v in w.c],
        },
        "moments": [dec(m) for m in check_moments(w, w.moment_order)],
        "t_power_coefficient": _num(kappa, dps=SERIES_DPS),
        "predicted_sign": predict_t_coefficient_sign(params.t),
        "certificate": None,
    }
    if cert is not None:
        payload["negativity"] = "certified"
        payload["certificate"] = encode(
            "f", cert, value=dec(cert.f_value, cert.dps), q_value=dec(cert.value, cert.dps),
            z=repr(cert.z), dps_used=cert.dps,
        )
    else:
        # Even integer part: the coefficient is nonnegative and this route
        # draws no conclusion about definiteness.
        payload["negativity"] = "inconclusive"
    return payload


def _cmd_identities(cfg: RunConfig) -> dict:
    import numpy as np
    from .witness import build_binomial_witness, check_moments, difference_power_sum
    from .witness import subset_product_identity
    # Fixed sizes: n <= 3 points, m <= 3, three seeded draws of each; witness
    # orders up to 6 for the difference sums and up to 12 for the moments.
    # inputs_sha256 digests the drawn points, so the payload records the seed.
    rng = np.random.default_rng(cfg.params["seed"])
    inputs = hashlib.sha256()
    subset_cases = 0
    subset_failures = []
    for n in range(1, 4):
        for m in range(0, min(3, n * n - 1) + 1):
            for _ in range(3):
                y = [
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                    for _ in range(n)
                ]
                inputs.update((",".join(map(str, y)) + ";").encode())
                for j in range(n):
                    for k in range(n):
                        lhs, rhs = subset_product_identity(m, j, k, y)
                        subset_cases += 1
                        if lhs != rhs:
                            subset_failures.append(
                                {"n": n, "m": m, "j": j, "k": k, "y": [str(v) for v in y]}
                            )
    diff_cases = 0
    diff_failures = []
    for order in range(0, 7):
        w = build_binomial_witness(order)
        for v in range(order + 1):
            diff_cases += 1
            if difference_power_sum(v, w) != 0:
                diff_failures.append({"order": order, "v": v})
    moment_cases = 0
    moment_failures = []
    for order in range(0, 13):
        w = build_binomial_witness(order)
        for ell, m_val in enumerate(check_moments(w, order)):
            moment_cases += 1
            if m_val != 0:
                moment_failures.append({"order": order, "ell": ell})
    return {
        "inputs_sha256": inputs.hexdigest(),
        "subset_identity": {"cases": subset_cases, "failures": subset_failures},
        "difference_power_sums": {"cases": diff_cases, "failures": diff_failures},
        "moments": {"cases": moment_cases, "failures": moment_failures},
        "all_passed": not (subset_failures or diff_failures or moment_failures),
    }


def _cmd_fracpow(cfg: RunConfig) -> dict:
    from .fracpow import validate_representation
    w_grid = (0.1, 1.0, 4.0, 10.0, 1.0 + 1.0j)
    pairs = [(w, s) for s in (0.5, 1.5, 2.5, 3.7) for w in w_grid]
    tol = cfg.params["tolerance"]
    report = validate_representation(pairs, tol=tol)
    entries = []
    for e in report.entries:
        entries.append(
            {
                "w": [e["w"].real, e["w"].imag],
                "s": e["s"],
                "rel_err": _num(e["rel_err"]),
                "derivative_rel_err": _num(e.get("derivative_rel_err", 0.0)),
                "l1_norm_upper": _num(e["l1_norm_upper"]),
                "l1_bound": _num(e["l1_bound"]),
            }
        )
    return {
        "tol": _num(tol),
        "entries": entries,
        "failures": [[repr(w), s, msg] for (w, s, msg) in report.failures],
        "passed": report.passed,
    }


def _report_dict(report) -> dict:
    """A spectral report's payload; a NEGATIVE_FOUND verdict embeds its
    few-point grid certificate as kind gram, replayable by ``kpd verify``."""
    out = {
        "levels": [
            {
                "level": i,
                "node_count": n,
                "L": L,
                "min_eigenvalue": _num(me),
            }
            for i, (n, L, me) in enumerate(report.levels)
        ],
        "smallest_eigenvalues": [_num(v) for v in report.smallest_eigenvalues],
        "verdict": report.verdict,
        "tail_bound": _num(report.tail_bound),
        "certificate": encode("gram", report.certificate, t=report.params.t, a=report.params.a),
    }
    if report.certificate is not None:
        out["certificate_value"] = _num(report.certificate.value)
        out["certificate_error_bound"] = _num(report.certificate.error_bound)
        out["certificate_conclusive"] = True
    return out


def _cmd_spectrum(cfg: RunConfig) -> dict:
    from .spectral import min_operator_eigenvalue
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    report = min_operator_eigenvalue(params, p["nodes"], p["half_width"])
    return {
        "t": _num(params.t),
        "a": _num(params.a),
        **_report_dict(report),
    }


def _cmd_sweep(cfg: RunConfig) -> dict:
    """One spectral report per weight, in grid order, and its evidence-table
    rows (the CSV_HEADER columns): one per rung, the verdict on the last.
    Any error ends the sweep, as it ends ``kpd spectrum``."""
    from .spectral import min_operator_eigenvalue
    p = cfg.params
    t, rows, reports = p["t"], [], []
    for a in p["a_grid"]:
        report = min_operator_eigenvalue(KernelParams(t=t, a=a), p["nodes"], p["half_width"])
        final = len(report.levels) - 1
        for i, (n, L, me) in enumerate(report.levels):
            verdict = report.verdict if i == final else ""
            rows.append(dict(zip(CSV_HEADER, (t, a, i, n, L, _num(me), verdict))))
        # the open region of t = 2 is 0 < a <= a_threshold(2) = 12
        reports.append({"a": a, "control": not (0.0 < a <= 12.0), **_report_dict(report)})
    return {"t": _num(t), "rows": rows, "reports": reports}


_COMMANDS = {
    "gram": _cmd_gram,
    "cnd": _cmd_cnd,
    "boundary": _cmd_boundary,
    "witness": _cmd_witness,
    "identities": _cmd_identities,
    "fracpow": _cmd_fracpow,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
}


def run(config: RunConfig) -> RunRecord:
    """Dispatch a validated config to its command and wrap the payload."""
    if config.command not in _COMMANDS:
        raise KpdError(f"unknown command {config.command!r}")
    start = time.perf_counter()
    payload = {"schema": SCHEMA_VERSION, **_COMMANDS[config.command](config)}
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(
        config=config,
        payload=payload,
        wall_ms=wall_ms,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


@functools.cache  # one parser per process: building it costs more than a small job
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpd",
        description="positive-definiteness analysis of the anisotropic kernel family",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    g = sub.add_parser("gram", help="Gram matrix + PD verdict")
    c = sub.add_parser("cnd", help="zero-sum distance-form test")
    b = sub.add_parser("boundary", help="two-point boundary")
    w = sub.add_parser("witness", help="vanishing-moment witness")
    i = sub.add_parser("identities", help="exact identity suite")
    f = sub.add_parser("fracpow", help="integral representation checks")
    s = sub.add_parser("spectrum", help="Nystrom spectral probe")
    sw = sub.add_parser("sweep", help="weight sweep at fixed t")
    v = sub.add_parser("verify", help="replay stored certificates")

    # each option on exactly the commands that read it
    for run_command in (g, c, b, w, i, f, s, sw):
        run_command.add_argument("--out", dest="output_path", help="output file")
    for kernel in (g, c, w, s):
        kernel.add_argument("--t", type=_finite, required=True)
        kernel.add_argument("--a", type=_finite, required=True)
    for checked in (g, c, f):
        checked.add_argument("--tol", type=float, default=1e-10, dest="tolerance")
    for probe in (s, sw):
        probe.add_argument("--nodes", type=_parse_nodes, default="100,200,400")
        probe.add_argument("--half-width", type=_finite, default=20.0, dest="half_width")
    g.add_argument("--points", type=_float_list, required=True, help="comma-separated")
    c.add_argument("--points", type=_float_list, required=True, help="comma-separated")
    c.add_argument("--coeffs", type=_float_list, required=True, help="comma-separated")
    b.add_argument("--t", type=_finite, required=True)
    b.add_argument("--a", type=_finite, help="also search a violation")
    i.add_argument("--seed", type=int, default=0, help="RNG seed (recorded)")
    f.add_argument("--validate", action="store_true", help="accepted; always validates")
    sw.add_argument("--t", type=_finite, default=2.0)
    sw.add_argument("--a-grid", type=_parse_floats, default="1,3,6,9,12", dest="a_grid")
    sw.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    v.add_argument("records", nargs="+", metavar="record", help="path to a run record JSON")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # where and how the record is written is not part of the run
    params = {
        k: v
        for k, v in vars(args).items()
        if v is not None and k not in ("command", "output_path", "format")
    }
    return RunConfig(args.command, params)


def _emit_csv(record: RunRecord) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, CSV_HEADER)
    writer.writeheader()
    writer.writerows(
        {**r, "min_eigenvalue": r["min_eigenvalue"]["dec"]} for r in record.payload["rows"]
    )
    return buf.getvalue()


def _verify(paths: list) -> int:
    """Replay each record, one block of output per record (headed by its
    path when there are several); 0 only when every record is CONFIRMED.
    A record that cannot be read prints its error and does not stop the rest."""
    code = 0
    for path in paths:
        if len(paths) > 1:
            print(f"==> {path} <==")
        try:
            outcome = verify_certificate(path)
        except (KpdError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
            continue
        for r in outcome["results"]:
            print(
                f"{r['path']}: kind={r['kind']} stored={r['stored_value']:.6e} "
                f"replayed={r['replayed_value']:.6e} -> {r['verdict']}"
            )
        print(outcome["verdict"])
        if outcome["verdict"] != "CONFIRMED":
            code = 3
    return code


def main(argv=None) -> int:
    try:
        # the list options' type functions raise KpdError, which argparse passes on
        args = _build_parser().parse_args(argv)
        if args.command != "verify":
            config = _config_from_args(args)
    except KpdError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        return _verify(args.records)

    try:
        record = run(config)
    except KpdError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3

    text = _emit_csv(record) if getattr(args, "format", "json") == "csv" else record.to_json()
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
