"""Certificate records: the one writer and the one replay.

A negative verdict is a :class:`kpd.kernel.Certificate`, a finite point
set whose form is certified on the side it claims.  A record stores it as
{kind, points, coeffs, value, ...provenance}, every number a string:

* a float is its ``repr``, which reads back exactly;
* a Fraction coefficient is ``n/d``;
* a Fraction point must be dyadic, n / 2^e, and is its exact decimal of
  at least ``cert.dps`` digits (the witness scan's y_j / 2^m);
* ``value`` is the form at ``cert.dps`` digits.

Provenance is the producer's: ``t`` and ``a`` on spectral records, ``z``
on boundary records; witness records add ``z``, ``q_value`` (the kernel
form) and ``dps_used``, and store the cleared form f(z) as ``value``.
The replay reads no provenance but ``t`` and ``a``.

Each kind claims a side of a threshold (``CLAIMS``): the kernel form of a
gram, g or f certificate is below 0, the distance form of a cnd
certificate, whose coefficients must sum to zero, above the record's
tolerance.  :func:`verify_certificate` reads the stored numbers back with
:func:`_read`, replays their form on the kernel's precision ladder, as
its producer resolved it, and checks that claim.
"""

import json
import math
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from .errors import KpdError, PreconditionError, ToleranceError
from .kernel import Certificate, KernelParams, PointConfig, check_zero_sum, resolve_form_sign

# kind -> (distance form?, side of the threshold it claims)
CLAIMS = {"gram": (False, -1), "g": (False, -1), "f": (False, -1), "cnd": (True, 1)}


def dec(x, dps: int = 30) -> str:
    """A number as an exact or ``dps``-digit decimal string."""
    if isinstance(x, mp.mpf):
        return mp.nstr(x, dps, strip_zeros=False)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _point(x, dps: int) -> str:
    """A float as its ``repr``; a dyadic Fraction n / 2^e as an exact decimal
    of at least ``dps`` digits (n 5^e / 10^e needs as many as n 5^e has)."""
    if not isinstance(x, Fraction):
        return dec(x)
    if x.denominator & (x.denominator - 1):
        raise ValueError(f"certificate point {x} is not dyadic")
    e = x.denominator.bit_length() - 1
    digits = len(str(abs(x.numerator) * 5**e))
    return dec(mp.make_mpf(libmp.from_man_exp(x.numerator, -e)), max(dps, digits))


def encode(kind: str, cert: Certificate | None, **provenance) -> dict | None:
    """A certificate's record, with the ``provenance`` keys added."""
    if cert is None:
        return None
    return {
        "kind": kind,
        "points": [_point(p, cert.dps) for p in cert.config.points],
        "coeffs": [dec(c) for c in cert.config.coeffs],
        "value": dec(cert.value, cert.dps),
        **provenance,
    }


def _read(text) -> float | Fraction:
    """A stored number: a float's shortest ``repr`` reads back as that
    float, anything else as the exact rational it spells."""
    exact = Fraction(text)
    return float(exact) if repr(float(exact)) == text else exact


def _find_certificates(node, path="payload"):
    found = []
    if isinstance(node, dict):
        if node.get("kind") in CLAIMS and "points" in node:
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

    The form of the stored points and coefficients is replayed with
    :func:`~kpd.kernel.resolve_form_sign`, which climbs the precision
    ladder that made the certificate and so resolves it at the rung that
    certified it; a record's ``dps_used`` is not read.  A certificate is
    CONFIRMED when both its stored value and the replay make its kind's
    claim, MISMATCH when either contradicts it or a cnd certificate's
    coefficients fail :func:`~kpd.kernel.check_zero_sum`, and UNRESOLVED
    when the stored value makes the claim but no precision up to the cap
    separates the replay from the threshold; ``replayed_dps`` is the rung
    it resolved at.  The record's verdict is the
    first of MISMATCH, UNRESOLVED and CONFIRMED that any certificate has.
    A record that is not JSON, a malformed certificate, or a cnd
    certificate whose tolerance is not finite and >= 0 (as
    :func:`~kpd.definiteness.cnd_check` requires), raises KpdError.
    """
    with open(record_path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise KpdError(f"record at {record_path} is not JSON: {exc}") from exc
    try:
        cmd_params = record["config"]["params"]
        payload = record["payload"]
        # records before the config became {command, params} kept it at the top
        cnd_tolerance = float(cmd_params.get("tolerance", record["config"].get("tolerance", 0)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
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
                tuple(map(_read, cert["points"])), tuple(map(_read, cert["coeffs"]))
            )
            stored = mp.make_mpf(libmp.from_str(str(cert["value"]), 53, libmp.round_nearest))
            distance, side = CLAIMS[cert["kind"]]
            threshold = cnd_tolerance if distance else 0.0
            if not 0 <= threshold < math.inf:
                raise ValueError(f"tolerance {threshold} is not finite and >= 0")
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise KpdError(f"certificate at {path} is malformed: {exc!r}") from exc
        replayed = rung = None
        try:
            if distance:
                check_zero_sum(config.coeffs)
            replayed, rung, _ = resolve_form_sign(
                params, config, distance=distance, threshold=threshold
            )
        except ToleranceError:
            pass
        except PreconditionError:
            replayed = math.nan  # a claim on no side: MISMATCH
        # compared exactly: an mpf difference would round at the caller's precision
        signs = [(v > threshold) - (v < threshold) for v in (stored, replayed) if v is not None]
        if any(sign != side for sign in signs):
            verdict = "MISMATCH"
        else:
            verdict = "UNRESOLVED" if replayed is None else "CONFIRMED"
        results.append(
            {
                "path": path,
                "kind": cert["kind"],
                "stored_value": float(stored),
                "replayed_value": math.nan if replayed is None else float(replayed),
                "replayed_dps": rung,
                "verdict": verdict,
            }
        )
    verdicts = {r["verdict"] for r in results}
    overall = next((v for v in ("MISMATCH", "UNRESOLVED") if v in verdicts), "CONFIRMED")
    return {"record": record_path, "results": results, "verdict": overall}
