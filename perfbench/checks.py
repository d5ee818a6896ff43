"""Checks of kpd's outputs against the oracles and the paper's results.

Each ``check_*`` function returns a list of problems (empty when the output
is right).  They read records as ``kpd --out`` writes them and never call
into ``kpd``, except ``check_fracpow``, which asks ``kpd.fracpow`` for the
values the record summarises and compares them with mpmath's ``w**s``.

Properties the paper proves, checked wherever the inputs fall under them:

* t <= 1: no NEGATIVE_FOUND, Gram matrices PSD, distance forms CND;
* a > a_threshold(t) (12 at t = 2): the spectral probe finds a negative
  direction and the boundary search a g certificate;
* non-integer t with odd floor: an f certificate for every a; even floor:
  ``inconclusive``;
* the cleared form's integer-power coefficients through floor(t) vanish
  exactly.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

import oracles
from jobs import LADDER

CND_TOLERANCE = 1e-10
NEGATIVE_KINDS = ("gram", "f", "g")


def _rel(x, y):
    x, y = mp.mpf(x), mp.mpf(y)
    return abs(x - y) / max(abs(x), abs(y), mp.mpf(10) ** -300)


def _frac(text):
    return Fraction(str(text))


def count_points(payload):
    """(certificates, points) over every certificate in a payload."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if node.get("kind") in NEGATIVE_KINDS + ("cnd",) and "points" in node:
                found.append(len(node["points"]))
            else:
                for child in node.values():
                    walk(child)
        elif isinstance(node, list):
            for child in node:
                walk(child)

    walk(payload)
    return len(found), sum(found)


def check_certificate(cert, t, a, where):
    """The certificate's form, recomputed from its points and coefficients,
    has the sign its kind claims."""
    problems = []
    if len(cert["points"]) != len(cert["coeffs"]):
        return [f"{where}: points and coeffs differ in length"]
    if cert["kind"] == "cnd":
        lo, _ = oracles.form_enclosure(t, a, cert["points"], cert["coeffs"], distance=True)
        if not lo > CND_TOLERANCE:
            problems.append(f"{where}: cnd form enclosure starts at {mp.nstr(lo, 6)}, not above the tolerance")
        if not float(cert["value"]) > CND_TOLERANCE:
            problems.append(f"{where}: stored cnd value {cert['value']} not above the tolerance")
        return problems
    lo, hi = oracles.certified_form(t, a, cert["points"], cert["coeffs"])
    if not hi < 0:
        problems.append(f"{where}: {cert['kind']} form enclosure [{lo:.3e}, {hi:.3e}] is not negative")
    if not float(mp.mpf(cert["value"])) < 0:
        problems.append(f"{where}: stored value {cert['value']} is not negative")
    return problems


# ---------------------------------------------------------------------------
# Spectral records.


def check_report(report, t, a, region, where):
    """One spectral report (a spectrum payload or one sweep entry)."""
    problems = []
    levels = report.get("levels")
    if "error" in report or not levels:
        return [f"{where}: no report ({report.get('error')})"]
    if [lv["node_count"] for lv in levels] != list(LADDER):
        problems.append(f"{where}: ladder {[lv['node_count'] for lv in levels]}")
    final = None
    for lv in levels:
        eigs = oracles.nystrom_eigenvalues(t, a, lv["node_count"], lv["L"])
        got = lv["min_eigenvalue"]["f64"]
        if abs(got - eigs[0]) > 1e-12 + 1e-9 * abs(eigs[0]):
            problems.append(f"{where}: level {lv['level']} min eigenvalue {got!r} vs {eigs[0]!r}")
        final = eigs
    for got, want in zip((v["f64"] for v in report["smallest_eigenvalues"]), final):
        if abs(got - want) > 1e-12 + 1e-9 * abs(want):
            problems.append(f"{where}: smallest eigenvalue {got!r} vs {want!r}")
    verdict = report["verdict"]
    if region == "pd" and verdict == "NEGATIVE_FOUND":
        problems.append(f"{where}: NEGATIVE_FOUND at t={t} <= 1")
    if region == "above" and verdict != "NEGATIVE_FOUND":
        problems.append(f"{where}: {verdict} at t={t}, a={a} above the threshold")
    cert = report.get("certificate")
    if verdict == "NEGATIVE_FOUND":
        if cert is None or cert["kind"] != "gram":
            problems.append(f"{where}: NEGATIVE_FOUND without a gram certificate")
        else:
            problems += check_certificate(cert, t, a, where)
            value, _ = oracles.form_float(t, a, cert["points"], cert["coeffs"])
            if _rel(value, cert["value"]) > 1e-8:
                problems.append(f"{where}: certificate value {cert['value']} vs {value!r}")
        if not (report.get("certificate_conclusive") and report["certificate_value"]["f64"] < 0):
            problems.append(f"{where}: NEGATIVE_FOUND without a conclusive negative refinement")
    elif cert is not None:
        problems.append(f"{where}: certificate attached to {verdict}")
    return problems


def check_spectrum(payload, params, expect):
    t, a = params["t"], params["a"]
    return check_report(payload, t, a, _region(t, a), f"spectrum t={t} a={a}")


def _region(t, a):
    if t <= 1.0:
        return "pd"
    if t == 2.0 and a > 12.0:
        return "above"
    return "open"


def check_sweep(payload, params, expect):
    t = params["t"]
    problems = []
    grid = list(params["a_grid"])
    reports = payload["reports"]
    if [r["a"] for r in reports] != grid:
        problems.append(f"sweep t={t}: reports {[r['a'] for r in reports]} vs grid {grid}")
    for rep in reports:
        a = rep["a"]
        if rep["control"] != (not 0.0 < a <= 12.0):
            problems.append(f"sweep t={t} a={a}: control flag {rep['control']}")
        problems += check_report(rep, t, a, _region(t, a), f"sweep t={t} a={a}")
    if any(row["verdict"] == "ERROR" for row in payload["rows"]):
        problems.append(f"sweep t={t}: ERROR rows")
    return problems


# ---------------------------------------------------------------------------
# Small certificates.


def check_witness(payload, params, expect):
    t, a = params["t"], params["a"]
    where = f"witness t={t} a={a}"
    floor = math.floor(t)
    y, c = oracles.binomial_witness(floor)
    problems = []
    wit = payload["witness"]
    if [_frac(v) for v in wit["y"]] != y or [_frac(v) for v in wit["c"]] != c:
        problems.append(f"{where}: witness is not the binomial witness of order {floor}")
    if any(_frac(m) != 0 for m in payload["moments"]):
        problems.append(f"{where}: nonzero moment {payload['moments']}")
    kappa = oracles.t_coefficient(t, a, y, c)
    with mp.workdps(60):
        if _rel(mp.mpf(payload["t_power_coefficient"]["dec"]), kappa) > mp.mpf(10) ** -40:
            problems.append(f"{where}: z^t coefficient {payload['t_power_coefficient']['dec']} vs {mp.nstr(kappa, 20)}")
    cert = payload["certificate"]
    if floor % 2 == 1:
        if payload["predicted_sign"] != "nonpositive" or not kappa < 0:
            problems.append(f"{where}: odd floor but sign {payload['predicted_sign']}, kappa {mp.nstr(kappa, 6)}")
        if payload["negativity"] != "certified" or cert is None or cert["kind"] != "f":
            return problems + [f"{where}: odd floor without an f certificate"]
        problems += check_certificate(cert, t, a, where)
        z = float(cert["z"])
        with mp.workdps(cert["dps_used"] + 20):
            sqrt_z = mp.sqrt(mp.mpf(z))
            tol = mp.mpf(10) ** (8 - cert["dps_used"])
            if [_frac(cc) for cc in cert["coeffs"]] != c:
                problems.append(f"{where}: certificate coefficients differ from the witness")
            for yj, p in zip(y, cert["points"]):
                if abs(mp.mpf(p) - yj * sqrt_z) > tol:
                    problems.append(f"{where}: certificate point {p} is not {yj}*sqrt(z)")
        dps = cert["dps_used"] + 20
        f_value, _ = oracles.cleared_form(t, a, y, c, z, dps=dps)
        if not f_value < 0 or _rel(f_value, cert["value"]) > 1e-8:
            problems.append(f"{where}: f(z) = {mp.nstr(f_value, 8)} vs stored {cert['value']}")
        lo, hi = oracles.form_enclosure(t, a, cert["points"], cert["coeffs"])
        if _rel((lo + hi) / 2, cert["q_value"]) > 1e-8:
            problems.append(f"{where}: q_value {cert['q_value']} vs [{mp.nstr(lo, 8)}, {mp.nstr(hi, 8)}]")
    else:
        if payload["predicted_sign"] != "nonnegative" or not kappa >= 0:
            problems.append(f"{where}: even floor but sign {payload['predicted_sign']}")
        if payload["negativity"] != "inconclusive" or cert is not None:
            problems.append(f"{where}: even floor must be inconclusive")
    return problems


def check_boundary(payload, params, expect):
    t = params["t"]
    a = params.get("a")
    where = f"boundary t={t} a={a}"
    problems = []
    if _rel(payload["a_threshold"]["f64"], oracles.a_threshold(t)) > 1e-12:
        problems.append(f"{where}: a_threshold {payload['a_threshold']['f64']!r}")
    if _rel(payload["z_tangent"]["f64"], oracles.z_tangent(t)) > 1e-12:
        problems.append(f"{where}: z_tangent {payload['z_tangent']['f64']!r}")
    if t == 2.0 and (payload["a_threshold"]["dec"] != "12.0" or payload["z_tangent"]["dec"] != "0.25"):
        problems.append(f"{where}: a_threshold(2) = {payload['a_threshold']['dec']}, z_tangent = {payload['z_tangent']['dec']}")
    side = expect.get("side")
    violation = payload["violation"]
    if side == "above":
        if a <= oracles.a_threshold(t):
            problems.append(f"{where}: input is not above the threshold")
        if not violation or not violation["found"]:
            return problems + [f"{where}: no violation above the threshold"]
        z = float(violation["z"]["dec"])
        g = oracles.margin(z, t, a)
        if not g < 0 or _rel(g, violation["g_value"]["f64"]) > 1e-9:
            problems.append(f"{where}: margin at z={z!r} is {mp.nstr(g, 8)}, stored {violation['g_value']['f64']!r}")
        cert = violation["certificate"]
        if cert["kind"] != "g" or float(cert["points"][1]) != 0.0 or abs(float(cert["points"][0]) - math.sqrt(z)) > 1e-15:
            problems.append(f"{where}: g certificate is not at (sqrt(z), 0)")
        problems += check_certificate(cert, t, a, where)
    elif side == "below":
        if not a < oracles.violation_window_floor(t):
            problems.append(f"{where}: input is not below the violation window")
        if violation is None or violation["found"]:
            problems.append(f"{where}: violation reported below the window")
    return problems


def check_gram(payload, params, expect):
    t, a = params["t"], params["a"]
    where = f"gram t={t} a={a}"
    problems = []
    pts = [float(p) for p in params["points"].split(",")]
    k = oracles.kernel_matrix(t, a, pts, pts)
    got = np.array(payload["entries"])
    if got.shape != k.shape or np.max(np.abs(got - k) / k) > 1e-13:
        problems.append(f"{where}: Gram entries differ from the kernel")
    from scipy.linalg import eigvalsh

    lam = float(eigvalsh(k)[0])
    tol = 1e-10 * float(np.max(np.diag(k)))
    pd = payload["pd"]
    if expect.get("region") == "pd":
        if pd["verdict"] != "PASS" or lam < -tol:
            problems.append(f"{where}: t <= 1 Gram is {pd['verdict']} (min eigenvalue {lam!r})")
        if payload["certificate"] is not None:
            problems.append(f"{where}: certificate on a PASS")
    else:
        cert = payload["certificate"]
        if pd["verdict"] != "FAIL" or cert is None:
            return problems + [f"{where}: two-point violation not reported"]
        if _rel(pd["statistic"]["f64"], lam) > 1e-9:
            problems.append(f"{where}: min eigenvalue {pd['statistic']['f64']!r} vs {lam!r}")
        problems += check_certificate(cert, t, a, where)
    return problems


def check_cnd(payload, params, expect):
    t, a = params["t"], params["a"]
    where = f"cnd t={t} a={a}"
    pts = params["points"].split(",")
    coeffs = params["coeffs"].split(",")
    verdict = payload["cnd"]["verdict"]
    if expect.get("region") == "pd":
        lo, _ = oracles.form_enclosure(t, a, pts, coeffs, distance=True)
        problems = []
        if verdict != "PASS" or lo > CND_TOLERANCE:
            problems.append(f"{where}: t <= 1 distance form is {verdict} (enclosure from {mp.nstr(lo, 6)})")
        if payload["certificate"] is not None:
            problems.append(f"{where}: certificate on a PASS")
        return problems
    x = float(pts[1])
    closed = 2 * a * x**4 - 2 * x * x
    cert = payload["certificate"]
    if verdict != "FAIL" or cert is None:
        return [f"{where}: violation not reported"]
    problems = check_certificate(cert, t, a, where)
    if _rel(payload["form_value"]["f64"], closed) > 1e-12:
        problems.append(f"{where}: form value {payload['form_value']['f64']!r} vs 2ax^4 - 2x^2 = {closed!r}")
    return problems


def check_identities(payload, params, expect):
    samples, n_max, m_max = 3, 3, 3
    subset = sum(samples * n * n for n in range(1, n_max + 1) for _ in range(min(m_max, n * n - 1) + 1))
    want = {"subset_identity": subset, "difference_power_sums": 28, "moments": 91}
    problems = []
    for key, cases in want.items():
        if payload[key]["cases"] != cases or payload[key]["failures"]:
            problems.append(f"identities: {key} {payload[key]['cases']} cases, failures {payload[key]['failures']}")
    if not payload["all_passed"]:
        problems.append("identities: not all passed")
    return problems


def check_fracpow(payload, params, expect):
    from kpd.fracpow import integral_power, split_power

    tol = payload["tol"]["f64"]
    problems = []
    if not payload["passed"] or payload["failures"] or len(payload["entries"]) != 20:
        problems.append(f"fracpow: passed={payload['passed']}, failures {payload['failures']}")
    for e in payload["entries"]:
        w, s = complex(*e["w"]), e["s"]
        bound = oracles.l1_bound(w, s)
        if abs(e["l1_bound"]["f64"] - bound) > 1e-12 * bound or e["l1_norm_upper"]["f64"] > bound:
            problems.append(f"fracpow w={w} s={s}: L1 bound {e['l1_bound']['f64']!r} vs {bound!r}")
        want = oracles.power(w, s)
        got = integral_power(w, split_power(s), tol=tol / 10)
        if abs(got - want) > tol * abs(want) or e["rel_err"]["f64"] > tol:
            problems.append(f"fracpow w={w} s={s}: {got!r} vs w**s = {want!r}")
    return problems


def check_series(series, t, a, order):
    """A PowerSeries from cleared_form_series (read through ``terms``)."""
    where = f"series t={t} a={a} order={order}"
    problems = []
    y, c = oracles.binomial_witness(order)
    for i in range(math.floor(t) + 1):
        co = series.terms.get((i, 0), Fraction(0))
        if not isinstance(co, Fraction) or co != 0:
            problems.append(f"{where}: z^{i} coefficient is {co!r}, not exactly 0")
    kappa = oracles.t_coefficient(t, a, y, c)
    with mp.workdps(60):
        got = mp.mpf(series.terms.get((0, 1), 0))
        if _rel(got, kappa) > mp.mpf(10) ** -40:
            problems.append(f"{where}: z^t coefficient {mp.nstr(got, 20)} vs {mp.nstr(kappa, 20)}")
    z = 0.3
    value = oracles.series_value([((k[0], k[1]), co) for k, co in series.terms.items()], t, z)
    direct, scale = oracles.cleared_form(t, a, y, c, z)
    if abs(value - direct) > mp.mpf(10) ** -30 * scale:
        problems.append(f"{where}: series at z={z} is {mp.nstr(value, 12)}, product form {mp.nstr(direct, 12)}")
    return problems


RECORD_CHECKS = {
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "witness": check_witness,
    "boundary": check_boundary,
    "gram": check_gram,
    "cnd": check_cnd,
    "identities": check_identities,
    "fracpow": check_fracpow,
}


def check_record(record, expect):
    """Dispatch on the record's command."""
    config = record["config"]
    return RECORD_CHECKS[config["command"]](record["payload"], config["params"], expect)


def check_replay(code, text, expect, n_certificates):
    """A ``kpd verify`` outcome: (failed, reason).  A replay fails when kpd's
    verdict on the record is not the right one: CONFIRMED for a genuine
    record, MISMATCH for a point-perturbed copy, a rejection for the forged
    record (which kpd accepts until ``verify_certificate`` checks the sign
    each kind requires)."""
    lines = text.strip().splitlines()
    last = lines[-1] if lines else ""
    if expect == "rejected":
        return code == 0, f"forged record accepted (exit {code}, {last!r})"
    if expect == "mismatch":
        return (code != 3 or last != "MISMATCH"), f"tampered record gave exit {code}, {last!r}"
    results = [ln for ln in lines[:-1] if "-> " in ln]
    confirmed = all(ln.endswith("-> CONFIRMED") for ln in results)
    ok = code == 0 and last == "CONFIRMED" and len(results) == n_certificates and confirmed
    return not ok, f"replay gave exit {code}, {last!r}, {len(results)} of {n_certificates} certificates"
