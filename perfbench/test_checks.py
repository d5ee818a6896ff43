"""The benchmark's checks must report corrupted outputs as wrong.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each test makes a genuine output with kpd, confirms the checks accept it,
then corrupts one value and confirms the checks report it.
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checks  # noqa: E402
from kpd.cli import main  # noqa: E402
from kpd.kernel import KernelParams  # noqa: E402
from kpd.witness import build_binomial_witness, cleared_form_series  # noqa: E402


def _record(tmp_path, argv):
    out = tmp_path / "record.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def spectrum(tmp_path_factory):
    return _record(tmp_path_factory.mktemp("spectrum"), ["spectrum", "--t", "2", "--a", "13"])


def test_witness_certificate_sign_flip(tmp_path):
    record = _record(tmp_path, ["witness", "--t", "1.5", "--a", "1"])
    assert checks.check_record(record, {}) == []
    flipped = copy.deepcopy(record)
    cert = flipped["payload"]["certificate"]
    cert["value"] = cert["value"].lstrip("-")
    assert checks.check_record(flipped, {})


def test_witness_certificate_points_scaled(tmp_path):
    record = _record(tmp_path, ["witness", "--t", "3.5", "--a", "2"])
    cert = record["payload"]["certificate"]
    cert["points"] = [repr(3.0 * float(p)) for p in cert["points"]]
    assert any("point" in p or "q_value" in p for p in checks.check_record(record, {}))


def test_boundary_certificate_moved(tmp_path):
    record = _record(tmp_path, ["boundary", "--t", "2", "--a", "13"])
    assert checks.check_record(record, {"side": "above"}) == []
    cert = record["payload"]["violation"]["certificate"]
    cert["points"][0] = repr(float(cert["points"][0]) + 5.0)
    assert any("not negative" in p for p in checks.check_record(record, {"side": "above"}))


def test_gram_pd_verdict_flipped(tmp_path):
    record = _record(tmp_path, ["gram", "--t", "0.5", "--a", "2", "--points=0.3,-1.2,2.5"])
    assert checks.check_record(record, {"region": "pd"}) == []
    record["payload"]["pd"]["verdict"] = "FAIL"
    assert checks.check_record(record, {"region": "pd"})


def test_cnd_value_perturbed(tmp_path):
    argv = ["cnd", "--t", "2", "--a", "3", "--points=0,2", "--coeffs=1,-1"]
    record = _record(tmp_path, argv)
    assert checks.check_record(record, {"region": "violation"}) == []
    record["payload"]["form_value"]["f64"] *= 1.0 + 1e-9
    assert checks.check_record(record, {"region": "violation"})


def test_spectrum_eigenvalue_perturbed(spectrum):
    assert checks.check_record(spectrum, {}) == []
    bad = copy.deepcopy(spectrum)
    bad["payload"]["levels"][-1]["min_eigenvalue"]["f64"] += 1e-9
    assert any("min eigenvalue" in p for p in checks.check_record(bad, {}))


def test_spectrum_certificate_sign_flipped(spectrum):
    bad = copy.deepcopy(spectrum)
    cert = bad["payload"]["certificate"]
    cert["coeffs"] = [c.lstrip("-") for c in cert["coeffs"]]
    assert any("not negative" in p for p in checks.check_record(bad, {}))


def test_series_low_coefficient_nonzero():
    series = cleared_form_series(KernelParams(1.5, 2.0), build_binomial_witness(1))
    assert checks.check_series(series, 1.5, 2.0, 1) == []
    series.terms[(1, 0)] = Fraction(1, 10**30)
    assert any("not exactly 0" in p for p in checks.check_series(series, 1.5, 2.0, 1))


def test_series_t_coefficient_perturbed():
    series = cleared_form_series(KernelParams(2.25, 1.0), build_binomial_witness(2))
    key = next(k for k in series.terms if (k[0], k[1]) == (0, 1))
    series.terms[key] = series.terms[key] * (1 + 1e-35)
    assert any("z^t coefficient" in p for p in checks.check_series(series, 2.25, 1.0, 2))


def test_replay_outcomes():
    confirmed = "payload.certificate: kind=f ... -> CONFIRMED\nCONFIRMED\n"
    assert checks.check_replay(0, confirmed, "confirmed", 1)[0] is False
    assert checks.check_replay(3, "x -> MISMATCH\nMISMATCH\n", "confirmed", 1)[0] is True
    assert checks.check_replay(3, "x -> MISMATCH\nMISMATCH\n", "mismatch", 1)[0] is False
    assert checks.check_replay(0, confirmed, "mismatch", 1)[0] is True
    assert checks.check_replay(0, confirmed, "rejected", 1)[0] is True
    assert checks.check_replay(3, "x -> MISMATCH\nMISMATCH\n", "rejected", 1)[0] is False
