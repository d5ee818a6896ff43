"""Command-line interface: reproducible runs with machine-readable reports.

Subcommands map one-to-one onto the library modules:

    gram       Gram matrix + PD verdict at an explicit point set
    cnd        zero-sum distance-form test at an explicit configuration
    boundary   closed-form two-point boundary (optionally: violation search)
    witness    binomial witness, moment table, z^t coefficient, certificate
    identities exact combinatorial identity suite
    fracpow    fractional-power integral representation validation
    spectrum   Nystrom spectral probe at one (t, a)
    sweep      evidence sweep over weights a at fixed t
    verify     replay a stored certificate using kernel arithmetic only

Every run emits a JSON record {version, config, metadata, payload}; the
payload is a pure function of the config (seed included), so identical
configs produce byte-identical payloads on a fixed BLAS thread count (the
Nystrom eigenvalues that spectrum and sweep report round differently with
more threads; their certificates do not depend on it).
Timestamps and wall time live only in the metadata block.  Numeric
payload values carry both a decimal string at full working precision and
a binary64 convenience field.
Negative/FAIL verdicts embed replayable certificates: points,
coefficients, and the value, checkable by ``kpd verify``.  The replay
decides each sign from the error enclosure of
:func:`kpd.kernel.form_enclosure`, escalating precision as needed; a
certificate is CONFIRMED, MISMATCH, or UNRESOLVED when no precision up to
the cap separates its form from the side it claims.

Exit status: 0 for a completed analysis (a mathematical FAIL is still a
completed analysis), 2 for configuration errors, 3 for numerical
diagnostics or a replay that is not CONFIRMED.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import __version__
from .errors import KpdError, ToleranceError
from .kernel import (
    DPS_CAP,
    KernelParams,
    PointConfig,
    gram_matrix,
    quadratic_form,
    resolve_form_sign,
)
from .definiteness import cnd_check, pd_check
from .boundary import boundary_report, find_schwarz_violation
from .witness import (
    build_binomial_witness,
    check_moments,
    difference_power_sum,
    find_negative_scale,
    predict_t_coefficient_sign,
    subset_product_identity,
    t_power_coefficient,
)
from .fracpow import validate_representation
from .spectral import min_operator_eigenvalue, open_problem_sweep, sweep_rows

SCHEMA_VERSION = 1
CSV_HEADER = ["t", "a", "level", "node_count", "L", "min_eigenvalue", "verdict"]
CERTIFICATE_KINDS = ("gram", "g", "f", "cnd")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; echoed verbatim into every record."""

    command: str
    params: dict
    seed: int = 0
    precision: int = 50
    tolerance: float = 1e-10
    output_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.tolerance <= 0:
            raise KpdError(f"tolerance must be > 0, got {self.tolerance}")
        if not 15 <= self.precision <= DPS_CAP:
            raise KpdError(
                f"precision must be between 15 and {DPS_CAP} digits, got {self.precision}"
            )
        if self.format not in ("json", "csv"):
            raise KpdError(f"format must be json or csv, got {self.format!r}")

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "seed": self.seed,
            "precision": self.precision,
            "tolerance": self.tolerance,
            "output_path": self.output_path,
            "format": self.format,
        }


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
            "config": self.config.as_dict(),
            "metadata": {
                "wall_ms": self.wall_ms,
                "timestamp": self.timestamp,
            },
            "payload": self.payload,
        }

    def payload_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _dec(x, dps: int = 30) -> str:
    """A number as an exact or ``dps``-digit decimal string."""
    if isinstance(x, mp.mpf):
        return mp.nstr(x, dps, strip_zeros=False)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _num(x, dps: int | None = None) -> dict:
    """Encode a number as {dec, f64}: full-precision decimal plus binary64."""
    return {"dec": _dec(x, dps or mp.mp.dps), "f64": float(x)}


def _certificate(kind: str, config: PointConfig, value, dps: int = 30, **extra) -> dict:
    cert = {
        "kind": kind,
        "points": [_dec(p, dps) for p in config.points],
        "coeffs": [_dec(c, dps) for c in config.coeffs],
        "value": _dec(value, dps),
    }
    cert.update(extra)
    return cert


def _verdict_dict(verdict) -> dict:
    return {
        "verdict": verdict.verdict,
        "statistic": _num(verdict.statistic),
        "tolerance": _num(verdict.tolerance),
        "boundary": verdict.boundary,
    }


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise KpdError(f"could not parse float list {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Command payload builders.  Each is a pure function of the RunConfig.


def _cmd_gram(cfg: RunConfig) -> dict:
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    points = _parse_floats(p["points"])
    coeffs = _parse_floats(p["coeffs"]) if p.get("coeffs") else (1.0,) * len(points)
    config = PointConfig(points, coeffs)
    gram = gram_matrix(params, config)
    verdict = pd_check(gram, tolerance=cfg.tolerance)
    payload = {
        "schema": SCHEMA_VERSION,
        "t": _num(params.t),
        "a": _num(params.a),
        "points": [_num(x) for x in points],
        "entries": [[float(v) for v in row] for row in gram.entries],
        "entries_dec": [[repr(float(v)) for v in row] for row in gram.entries],
        "pd": _verdict_dict(verdict),
        "certificate": None,
    }
    if p.get("coeffs"):
        payload["quadratic_form"] = _num(quadratic_form(params, config))
    if verdict.failed and verdict.worst_config is not None:
        payload["certificate"] = _certificate(
            "gram", verdict.worst_config, verdict.statistic
        )
    return payload


def _cmd_cnd(cfg: RunConfig) -> dict:
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    config = PointConfig(_parse_floats(p["points"]), _parse_floats(p["coeffs"]))
    verdict = cnd_check(params, config, tolerance=cfg.tolerance)
    payload = {
        "schema": SCHEMA_VERSION,
        "t": _num(params.t),
        "a": _num(params.a),
        "cnd": _verdict_dict(verdict),
        "form_value": _num(-verdict.statistic),
        "certificate": None,
    }
    if verdict.failed:
        payload["certificate"] = _certificate("cnd", config, -verdict.statistic)
    return payload


def _cmd_boundary(cfg: RunConfig) -> dict:
    p = cfg.params
    report = boundary_report(p["t"])
    payload = {
        "schema": SCHEMA_VERSION,
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
            violation["certificate"] = _certificate(
                "g", result.config, result.g_value, z=_dec(result.z)
            )
        payload["violation"] = violation
    return payload


def _cmd_witness(cfg: RunConfig) -> dict:
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    order = p.get("order")
    if order is None:
        order = int(math.floor(params.t))
    w = build_binomial_witness(order)
    moments = check_moments(w, max(order, int(math.floor(params.t))))
    kappa = t_power_coefficient(params, w, dps=cfg.precision)
    sign = predict_t_coefficient_sign(params.t)
    payload = {
        "schema": SCHEMA_VERSION,
        "t": _num(params.t),
        "a": _num(params.a),
        "witness": {
            "n": w.n,
            "moment_order": w.moment_order,
            "y": [_dec(v) for v in w.y],
            "c": [_dec(v) for v in w.c],
        },
        "moments": [_dec(m) for m in moments],
        "t_power_coefficient": _num(kappa, dps=cfg.precision),
        "predicted_sign": sign,
        "certificate": None,
    }
    if kappa < 0:
        cert = find_negative_scale(params, w, kappa, dps_start=cfg.precision)
        payload["negativity"] = "certified"
        payload["certificate"] = _certificate(
            "f",
            cert.config,
            cert.f_value,
            dps=cert.dps,
            z=repr(cert.z),
            q_value=_dec(cert.q_value, cert.dps),
            dps_used=cert.dps,
        )
    else:
        # Even integer part: the coefficient is nonnegative and this route
        # draws no conclusion about definiteness.
        payload["negativity"] = "inconclusive"
    return payload


def _cmd_identities(cfg: RunConfig) -> dict:
    p = cfg.params
    n_max = p.get("n_max", 3)
    m_max = p.get("m_max", 3)
    samples = p.get("samples", 3)
    rng = np.random.default_rng(cfg.seed)
    subset_cases = 0
    subset_failures = []
    for n in range(1, n_max + 1):
        for m in range(0, min(m_max, n * n - 1) + 1):
            for _ in range(samples):
                y = [
                    Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                    for _ in range(n)
                ]
                for j in range(n):
                    for k in range(n):
                        lhs, rhs = subset_product_identity(n, m, j, k, y)
                        subset_cases += 1
                        if lhs != rhs:
                            subset_failures.append(
                                {"n": n, "m": m, "j": j, "k": k, "y": [str(v) for v in y]}
                            )
    diff_cases = 0
    diff_failures = []
    for order in range(0, p.get("t_max", 6) + 1):
        w = build_binomial_witness(order)
        for v in range(order + 1):
            diff_cases += 1
            if difference_power_sum(v, w) != 0:
                diff_failures.append({"order": order, "v": v})
    moment_cases = 0
    moment_failures = []
    for order in range(0, p.get("moment_max", 12) + 1):
        w = build_binomial_witness(order)
        for ell, m_val in enumerate(check_moments(w, order)):
            moment_cases += 1
            if m_val != 0:
                moment_failures.append({"order": order, "ell": ell})
    return {
        "schema": SCHEMA_VERSION,
        "subset_identity": {"cases": subset_cases, "failures": subset_failures},
        "difference_power_sums": {"cases": diff_cases, "failures": diff_failures},
        "moments": {"cases": moment_cases, "failures": moment_failures},
        "all_passed": not (subset_failures or diff_failures or moment_failures),
    }


def _cmd_fracpow(cfg: RunConfig) -> dict:
    p = cfg.params
    s_grid = p.get("s_grid") or (0.5, 1.5, 2.5, 3.7)
    w_grid = p.get("w_grid") or (0.1, 1.0, 4.0, 10.0, 1.0 + 1.0j)
    pairs = [(w, s) for s in s_grid for w in w_grid]
    report = validate_representation(pairs, tol=cfg.tolerance)
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
        "schema": SCHEMA_VERSION,
        "tol": _num(cfg.tolerance),
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
        "certificate": None,
    }
    if report.certificate is not None:
        cert, params = report.certificate, report.params
        out["certificate_value"] = _num(cert.value)
        out["certificate_error_bound"] = _num(cert.error_bound)
        out["certificate_conclusive"] = cert.conclusive
        out["certificate"] = _certificate(
            "gram", cert.config, cert.value, dps=17, t=params.t, a=params.a
        )
    return out


def _cmd_spectrum(cfg: RunConfig) -> dict:
    p = cfg.params
    params = KernelParams(t=p["t"], a=p["a"])
    nodes = p.get("nodes") or (100, 200, 400)
    half_width = p.get("half_width", 20.0)
    ladder = [(n, half_width) for n in nodes]
    report = min_operator_eigenvalue(params, ladder)
    return {
        "schema": SCHEMA_VERSION,
        "t": _num(params.t),
        "a": _num(params.a),
        **_report_dict(report),
    }


def _cmd_sweep(cfg: RunConfig) -> dict:
    p = cfg.params
    t = p.get("t", 2.0)
    a_grid = p.get("a_grid") or (1.0, 3.0, 6.0, 9.0, 12.0)
    nodes = p.get("nodes") or (100, 200, 400)
    half_width = p.get("half_width", 20.0)
    ladder = [(n, half_width) for n in nodes]
    results = open_problem_sweep(a_grid, ladder, t=t)
    payload = {
        "schema": SCHEMA_VERSION,
        "t": _num(t),
        "rows": [
            {**r, "min_eigenvalue": _num(r["min_eigenvalue"])} for r in sweep_rows(results)
        ],
        "reports": [],
    }
    for entry in results:
        rec = {"a": entry["a"], "control": entry["control"], "certificate": None}
        if "error" in entry:
            rec["error"] = entry["error"]
        else:
            rec.update(_report_dict(entry["report"]))
        payload["reports"].append(rec)
    return payload


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
    with mp.workdps(config.precision):
        payload = _COMMANDS[config.command](config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(
        config=config,
        payload=payload,
        wall_ms=wall_ms,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )


# ---------------------------------------------------------------------------
# Certificate replay.


def _find_certificates(node, path="payload"):
    found = []
    if isinstance(node, dict):
        if node.get("kind") in CERTIFICATE_KINDS and "points" in node:
            found.append((path, node))
        else:
            for key, child in node.items():
                found.extend(_find_certificates(child, f"{path}.{key}"))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            found.extend(_find_certificates(child, f"{path}[{i}]"))
    return found


def verify_certificate(record_path: str) -> dict:
    """Re-evaluate every certificate stored in a run record.

    Each kind claims a sign: the kernel forms of gram, f and g are
    negative, and the cnd distance form exceeds the record's tolerance.
    The form of the stored points and coefficients, read as exact
    decimals, is replayed with :func:`~kpd.kernel.resolve_form_sign`
    (binary64 first, then mpmath from the certificate's ``dps_used``, or
    50 digits).  A certificate is CONFIRMED when both its stored value and
    the replay make the claim, MISMATCH when either contradicts it, and
    UNRESOLVED when the stored value makes the claim but no precision up
    to the cap separates the replayed form from the threshold.  The
    record's verdict is MISMATCH if any certificate mismatches, else
    UNRESOLVED if any is unresolved, else CONFIRMED.  A malformed
    certificate, one with a ``dps_used`` outside [15, DPS_CAP] among
    them, raises KpdError.
    """
    with open(record_path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    try:
        cmd_params = record["config"]["params"]
        payload = record["payload"]
        cnd_tolerance = float(record["config"].get("tolerance", 0.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise KpdError(f"record at {record_path} has no valid config/payload: {exc!r}") from exc
    certificates = _find_certificates(payload)
    if not certificates:
        raise KpdError(f"no certificate payload found in {record_path}")

    results = []
    for path, cert in certificates:
        # certificate-level parameters win (sweep records carry one per a)
        t = cert.get("t", cmd_params.get("t"))
        a = cert.get("a", cmd_params.get("a"))
        if t is None or a is None:
            raise KpdError(f"certificate at {path} lacks kernel parameters")
        try:
            params = KernelParams(t=float(t), a=float(a))
            config = PointConfig(
                tuple(Fraction(p) for p in cert["points"]),
                tuple(Fraction(c) for c in cert["coeffs"]),
            )
            stored = mp.mpf(cert["value"])  # only its sign and magnitude matter
            dps_start = int(cert.get("dps_used", 50))
            if not 15 <= dps_start <= DPS_CAP:
                raise ValueError(f"dps_used {dps_start} is outside [15, {DPS_CAP}]")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise KpdError(f"certificate at {path} is malformed: {exc!r}") from exc
        distance = cert["kind"] == "cnd"
        threshold = cnd_tolerance if distance else 0.0
        side = 1 if distance else -1  # the claim: side * (value - threshold) > 0
        try:
            replayed, _ = resolve_form_sign(
                params, config, dps_start, distance=distance, threshold=threshold
            )
        except ToleranceError:
            replayed = None
        if not all(side * (v - threshold) > 0 for v in (stored, replayed) if v is not None):
            verdict = "MISMATCH"
        else:
            verdict = "UNRESOLVED" if replayed is None else "CONFIRMED"
        results.append(
            {
                "path": path,
                "kind": cert["kind"],
                "stored_value": float(stored),
                "replayed_value": math.nan if replayed is None else float(replayed),
                "verdict": verdict,
            }
        )
    verdicts = {r["verdict"] for r in results}
    overall = next((v for v in ("MISMATCH", "UNRESOLVED") if v in verdicts), "CONFIRMED")
    return {"record": record_path, "results": results, "verdict": overall}


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (recorded)")
    common.add_argument(
        "--precision", type=int, default=50, help="working precision, decimal digits"
    )
    common.add_argument("--tol", type=float, default=1e-10, help="tolerance")
    common.add_argument("--out", type=str, default=None, help="output file path")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="kpd",
        description="positive-definiteness analysis of the anisotropic kernel family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gram", parents=[common], help="Gram matrix + PD verdict")
    g.add_argument("--t", type=float, required=True)
    g.add_argument("--a", type=float, required=True)
    g.add_argument("--points", type=str, required=True, help="comma-separated")
    g.add_argument("--coeffs", type=str, default=None, help="comma-separated")

    c = sub.add_parser("cnd", parents=[common], help="zero-sum distance-form test")
    c.add_argument("--t", type=float, required=True)
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--points", type=str, required=True)
    c.add_argument("--coeffs", type=str, required=True)

    b = sub.add_parser("boundary", parents=[common], help="two-point boundary")
    b.add_argument("--t", type=float, required=True)
    b.add_argument("--a", type=float, default=None, help="also search a violation")

    w = sub.add_parser("witness", parents=[common], help="vanishing-moment witness")
    w.add_argument("--t", type=float, required=True)
    w.add_argument("--a", type=float, required=True)
    w.add_argument("--order", type=int, default=None, help="moment order (default floor t)")

    i = sub.add_parser("identities", parents=[common], help="exact identity suite")
    i.add_argument("--n-max", type=int, default=3, dest="n_max")
    i.add_argument("--m-max", type=int, default=3, dest="m_max")
    i.add_argument("--samples", type=int, default=3)

    f = sub.add_parser("fracpow", parents=[common], help="integral representation checks")
    f.add_argument("--validate", action="store_true", help="run the validation grid")
    f.add_argument("--s-grid", type=str, default=None, dest="s_grid")
    f.add_argument("--w-grid", type=str, default=None, dest="w_grid")

    s = sub.add_parser("spectrum", parents=[common], help="Nystrom spectral probe")
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--nodes", type=str, default="100,200,400")
    s.add_argument("--half-width", type=float, default=20.0, dest="half_width")

    sw = sub.add_parser("sweep", parents=[common], help="weight sweep at fixed t")
    sw.add_argument("--t", type=float, default=2.0)
    sw.add_argument("--a-grid", type=str, default="1,3,6,9,12", dest="a_grid")
    sw.add_argument("--nodes", type=str, default="100,200,400")
    sw.add_argument("--half-width", type=float, default=20.0, dest="half_width")

    v = sub.add_parser("verify", parents=[common], help="replay a stored certificate")
    v.add_argument("record", type=str, help="path to a run record JSON")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params: dict = {}
    for key in (
        "t",
        "a",
        "points",
        "coeffs",
        "order",
        "n_max",
        "m_max",
        "samples",
        "validate",
        "half_width",
    ):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    for key in ("nodes", "a_grid", "s_grid", "w_grid"):
        if hasattr(args, key) and getattr(args, key) is not None:
            values = _parse_floats(getattr(args, key))
            if key == "nodes" and not all(v.is_integer() for v in values):
                raise KpdError(f"node counts must be integers, got {values}")
            params[key] = tuple(map(int, values)) if key == "nodes" else values
    return RunConfig(
        command=args.command,
        params=params,
        seed=args.seed,
        precision=args.precision,
        tolerance=args.tol,
        output_path=args.out,
        format=args.format,
    )


def _emit_csv(record: RunRecord) -> str:
    rows = record.payload.get("rows")
    if rows is None:
        raise KpdError("CSV output is only defined for sweep evidence tables")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [
                r["t"],
                r["a"],
                r["level"],
                r["node_count"],
                r["L"],
                r["min_eigenvalue"]["f64"],
                r["verdict"],
            ]
        )
    return buf.getvalue()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            outcome = verify_certificate(args.record)
        except (KpdError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        for r in outcome["results"]:
            print(
                f"{r['path']}: kind={r['kind']} stored={r['stored_value']:.6e} "
                f"replayed={r['replayed_value']:.6e} -> {r['verdict']}"
            )
        print(outcome["verdict"])
        return 0 if outcome["verdict"] == "CONFIRMED" else 3

    try:
        config = _config_from_args(args)
    except KpdError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run(config)
    except KpdError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3

    if config.format == "csv":
        try:
            text = _emit_csv(record)
        except KpdError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
    else:
        text = record.to_json()
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
