import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import kpd.certificate
import kpd.cli
import kpd.kernel
import kpd.witness
from kpd.certificate import _read, encode, verify_certificate
from kpd.cli import main
from kpd.kernel import DPS_LADDER, Certificate, KernelParams, PointConfig, form_enclosure, resolve_form_sign


def _reads_back(text, x):
    """A stored field reads back as the number the producer certified."""
    return _read(text) == x


def _record(capsys, tmp_path, argv):
    path = tmp_path / "record.json"
    assert main(list(argv) + ["--out", str(path)]) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text())["payload"]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kind, argv, where",
        [
            ("gram", ("gram", "--t", "3", "--a", "5", "--points", "0.3,0,-0.3,0.6"), ()),
            (
                "cnd",
                ("cnd", "--t", "3", "--a", "1", "--points", "0,1,4", "--coeffs", "1,-2,1"),
                (),
            ),
            ("g", ("boundary", "--t", "1.5", "--a", "40"), ("violation",)),
            ("f", ("witness", "--t", "3.75", "--a", "0.01"), ()),
            (
                "gram",
                ("spectrum", "--t", "2", "--a", "13", "--nodes", "48,96", "--half-width", "5"),
                (),
            ),
        ],
        ids=["gram", "cnd", "g", "f", "spectral"],
    )
    def test_stored_config_is_the_producers(
        self, capsys, tmp_path, monkeypatch, kind, argv, where
    ):
        encoded = []

        def spy(kind, cert, **provenance):
            encoded.append(cert)
            return encode(kind, cert, **provenance)

        monkeypatch.setattr(kpd.cli, "encode", spy)
        path, stored = _record(capsys, tmp_path, argv)
        for key in where + ("certificate",):
            stored = stored[key]
        (cert,) = [c for c in encoded if c is not None]
        assert stored["kind"] == kind
        fields = zip(stored["points"] + stored["coeffs"], cert.config.points + cert.config.coeffs)
        assert len(stored["points"]) == cert.config.n
        assert all(_reads_back(text, x) for text, x in fields)
        value = stored["q_value"] if kind == "f" else stored["value"]
        if isinstance(cert.value, float):
            assert float(value) == cert.value
        else:
            with mp.workdps(cert.dps):
                assert mp.almosteq(mp.mpf(value), cert.value, rel_eps=mp.mpf(10) ** (1 - cert.dps))
        assert verify_certificate(str(path))["verdict"] == "CONFIRMED"


class TestEncoder:
    def test_non_dyadic_point_is_rejected(self):
        config = PointConfig((Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(-1)))
        with pytest.raises(ValueError, match="not dyadic"):
            encode("f", Certificate(config, mp.mpf(-1), mp.mpf(0), 30))

    def test_dyadic_point_is_exact_with_at_least_dps_digits(self):
        points = (Fraction(3, 4), Fraction(-5, 2**94))
        config = PointConfig(points, (Fraction(1, 3), Fraction(-1, 3)))
        stored = encode("f", Certificate(config, mp.mpf(-1), mp.mpf(0), 50))
        assert [Fraction(p) for p in stored["points"]] == list(points)
        assert all(len(p.lstrip("-").replace(".", "")) >= 50 for p in stored["points"])
        assert stored["coeffs"] == ["1/3", "-1/3"]

    def test_wide_dyadic_point_is_exact_at_any_caller_precision(self):
        # a numerator of 61 bits, encoded under a 5-digit working precision
        point = Fraction(2**60 + 1, 2**70)
        config = PointConfig((point, Fraction(0)), (Fraction(1), Fraction(-1)))
        cert = Certificate(config, mp.mpf(-1), mp.mpf(0), 30)
        with mp.workdps(5):
            stored = encode("f", cert)
        assert Fraction(stored["points"][0]) == point
        assert stored == encode("f", cert)

    def test_float_fields_are_their_repr(self):
        config = PointConfig((0.1, 0.0), (1.0, -0.7))
        stored = encode("gram", Certificate(config, -1e-17, 1e-30, 17), t=2.0)
        assert stored == {
            "kind": "gram",
            "points": ["0.1", "0.0"],
            "coeffs": ["1.0", "-0.7"],
            "value": "-1e-17",
            "t": 2.0,
        }


class TestReplay:
    def test_replays_the_certified_configuration(self, capsys, tmp_path, monkeypatch):
        # "0.3" is the float 0.3's shortest repr; the rational 3/10 is
        # another configuration
        encoded, replayed = [], []

        def spy_encode(kind, cert, **provenance):
            encoded.append(cert)
            return encode(kind, cert, **provenance)

        def spy_replay(params, config, *args, **kwargs):
            replayed.append(config)
            return resolve_form_sign(params, config, *args, **kwargs)

        monkeypatch.setattr(kpd.cli, "encode", spy_encode)
        monkeypatch.setattr(kpd.certificate, "resolve_form_sign", spy_replay)
        path, _ = _record(capsys, tmp_path, ("gram", "--t", "3", "--a", "5", "--points", "0.3,0,-0.3,0.6"))
        assert verify_certificate(str(path))["verdict"] == "CONFIRMED"
        assert replayed == [encoded[0].config]
        assert 0.3 in replayed[0].points

    @pytest.mark.parametrize("dps_used", [None, 15, 800, "x"], ids=["deleted", "15", "800", "x"])
    def test_dps_used_is_not_read(self, capsys, tmp_path, dps_used):
        # the scan certified this form at 100 digits, its record's dps_used
        path, _ = _record(capsys, tmp_path, ("witness", "--t", "3.75", "--a", "0.01"))
        before = verify_certificate(str(path))
        record = json.loads(path.read_text())
        assert record["payload"]["certificate"].pop("dps_used") == 100
        if dps_used is not None:
            record["payload"]["certificate"]["dps_used"] = dps_used
        path.write_text(json.dumps(record))
        after = verify_certificate(str(path))
        assert after["verdict"] == before["verdict"] == "CONFIRMED"
        assert after["results"] == before["results"]

    @given(st.sampled_from((1, 3)), st.floats(0.1, 0.75), st.floats(-2.0, math.log10(13.0)))
    # certified at 50 digits, recorded at 100 for a bound below 1e-15 |Q|
    @example(3, 0.532644, math.log10(0.010993))
    @settings(max_examples=60, deadline=None)
    def test_replay_resolves_at_the_certifying_rung(self, floor, frac, log_a):
        # the scan and the replay climb one ladder: the replay stops where
        # the scan certified, which is never above the record's dps_used
        t, a = repr(round(floor + frac, 6)), repr(round(10**log_a, 6))
        certified, replayed = [], []

        def scan_spy(params, config):
            certified.append(cert := kpd.kernel.certify_negative(params, config))
            return cert

        def replay_spy(params, config, **kwargs):
            replayed.append(result := resolve_form_sign(params, config, **kwargs))
            return result

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mpatch:
            mpatch.setattr(kpd.witness, "certify_negative", scan_spy)
            mpatch.setattr(kpd.certificate, "resolve_form_sign", replay_spy)
            path = os.path.join(tmp, "w.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["witness", "--t", t, "--a", a, "--out", path]) == 0
            with open(path, encoding="utf-8") as fh:
                dps_used = json.load(fh)["payload"]["certificate"]["dps_used"]
            outcome = verify_certificate(path)
            assert outcome["verdict"] == "CONFIRMED"
        rung = next(c for c in reversed(certified) if c is not None).dps
        assert [r[1] for r in replayed] == [r["replayed_dps"] for r in outcome["results"]] == [rung]
        assert rung <= dps_used

    def test_independent_of_mpmath_working_precision(self, capsys, tmp_path):
        # the sign primitive and the replay read no working precision and
        # set none: forms that resolve at 100 digits (a witness scale), at
        # 50 (a distance form) and in binary64, and the records of the first
        # two, give the same bits at 5 and at 500 digits
        w = kpd.witness.build_binomial_witness(3)
        cases = [
            (KernelParams(3.75, 0.01), PointConfig([y / 2**50 for y in w.y], w.c), False, 0.0),
            (KernelParams(2.0, 1.0), PointConfig((0.0, 1e200), (1.0, -1.0)), True, 1e-10),
            (KernelParams(2.0, 13.0), PointConfig((0.4472135954999579, 0.0), (-0.6, 0.8)), False, 0.0),
        ]
        records = []
        for name, argv in (
            ("w", ("witness", "--t", "3.75", "--a", "0.01")),
            ("c", ("cnd", "--t", "2", "--a", "1", "--points", "0,1e200", "--coeffs", "1,-1")),
        ):
            (tmp_path / name).mkdir()
            records.append(_record(capsys, tmp_path / name, argv)[0])

        def bits(x):
            if isinstance(x, (list, tuple)):
                return [bits(v) for v in x]
            if isinstance(x, dict):
                return {k: bits(v) for k, v in x.items()}
            return x._mpf_ if isinstance(x, mp.mpf) else x.hex() if isinstance(x, float) else x

        seen = []
        for dps in (5, 500):
            with mp.workdps(dps):
                prec, out = mp.mp.prec, []
                for params, config, distance, threshold in cases:
                    out += [form_enclosure(params, config, d, distance) for d in DPS_LADDER]
                    out.append(resolve_form_sign(params, config, distance=distance, threshold=threshold))
                out += [verify_certificate(str(path)) for path in records]
                assert mp.mp.prec == prec
            seen.append(bits(out))
        assert seen[0] == seen[1]

    def test_cli_replays_through_this_module(self):
        # the benchmark's tracer wraps kpd.cli.verify_certificate by name
        assert kpd.cli.verify_certificate is kpd.certificate.verify_certificate

    def test_replay_modules_load_no_command_module(self):
        # a fresh interpreter: this one has imported every kpd module
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = "import sys, kpd.kernel, kpd.certificate; print(*sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True,
        )
        others = ("spectral", "fracpow", "boundary", "witness", "definiteness", "quadrature")
        loaded = {f"kpd.{m}" for m in others} & set(proc.stdout.split())
        assert not loaded


class TestWitnessRecord:
    @pytest.mark.parametrize(
        "t, a",
        [
            # a scan over z = 2^-k first certified this case at k = 17, with
            # the irrational points y_j 2^-8.5 rounded to 50 digits
            ("1.36887", "0.022884"),
            # certified at z = 4^-94: y_j / 2^94 takes up to 66 digits, more
            # than the 50 the form needed
            ("1.1", "1e60"),
        ],
    )
    def test_certified_points_are_the_stored_dyadics(self, capsys, tmp_path, t, a):
        path, payload = _record(capsys, tmp_path, ("witness", "--t", t, "--a", a))
        cert = payload["certificate"]
        m = round(-math.log2(float(cert["z"]))) // 2
        assert float(cert["z"]) == 4.0**-m
        assert [Fraction(p) for p in cert["points"]] == [Fraction(j, 2**m) for j in range(3)]
        assert all(len(p) > cert["dps_used"] for p in cert["points"][1:])
        assert verify_certificate(str(path))["verdict"] == "CONFIRMED"
