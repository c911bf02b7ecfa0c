import contextlib
import copy
import csv
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lame_edge import cli
from lame_edge.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXPECT_RULES,
    ConfigError,
    cross_field_errors,
    expect_errors,
    expect_failures,
    load_config,
    main,
)
from lame_edge.forward import symbol_memo
from lame_edge.reconstruct import serial_ladder_runner
from lame_edge.stroh import VARIANTS

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "version": 1,
        "profile": {"lambda": [1.0, 0.3], "mu": [1.0, 0.2], "m": 2, "p": 0.9},
        "order": 1,
        "ladder": [8, 16, 32, 64],
        "rho_tilde": 4,
        "probes": {"kinds": ["e3", "sigma1"], "directions": [[1.0, 0.0]]},
        "cutoff": {"kind": "gaussian"},
        "quadrature": {"nodes": 48},
        "calibrate": False,
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_import_leaves_scipy_unloaded():
    # the package needs only numpy; scipy is not a dependency
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lame_edge.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_bump_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    path = write_config(tmp_path, cutoff={"kind": "bump"})
    code = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "from lame_edge.cli import main; "
            "print([main([cmd, '--config', sys.argv[2], '--out', sys.argv[3] + cmd]) "
            "for cmd in ('forward', 'reconstruct')])")
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src"), str(path),
                          str(tmp_path / "out-")], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0]"


def test_config_loading_leaves_jsonschema_unloaded():
    # the schema is checked in-house; jsonschema and its dependencies are for tests only
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from lame_edge.cli import load_config, main; [load_config(p) for p in sys.argv[2:]]; "
            "assert all(main(['validate', '--config', p]) == 0 for p in sys.argv[2:]); "
            "print([m for m in sys.modules "
            "if m.split('.')[0] in ('jsonschema', 'referencing', 'attrs', 'rpds')])")
    configs = [str(REPO / "configs" / f"{name}.json") for name in ("gradient", "homogeneous")]
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src"), *configs],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_run_path_leaves_cascade_geometry_and_oracles_unloaded(tmp_path):
    # forward and reconstruct load neither the corrector cascade, nor the chart
    # algebra, nor the references that the tests check them against
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from lame_edge.cli import main; "
            "print([main([cmd, '--config', sys.argv[2], '--out', sys.argv[3] + cmd]) "
            "for cmd in ('reconstruct', 'forward')]); "
            "print([m for m in sys.modules "
            "if m in ('lame_edge.cascade', 'lame_edge.geometry', 'lame_edge.oracles')])")
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src"),
                          str(REPO / "configs" / "gradient.json"), str(tmp_path / "out-")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-2:] == ["[2, 0]", "[]"]


def test_geometry_leaves_inverse_pipeline_unloaded():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lame_edge.geometry; "
            "print([m for m in sys.modules if m in ('lame_edge.reconstruct', 'lame_edge.forward')])")
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestValidate:
    def test_bundled_configs_valid(self):
        for name in ("homogeneous", "gradient"):
            assert main(["validate", "--config", str(REPO / "configs" / f"{name}.json")]) == EXIT_OK

    def test_smallness_violation_named(self, tmp_path):
        path = write_config(tmp_path, rho_tilde=2)
        with pytest.raises(ConfigError, match="smallness"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_non_dyadic_ladder_named(self, tmp_path):
        path = write_config(tmp_path, ladder=[10, 30, 60, 120])
        errors = cross_field_errors(json.loads(path.read_text()))
        assert any("dyadic" in e for e in errors)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("expect, given, missing", [
        ({"dlam": 0.3}, "dlam", "dmu"),
        ({"dmu": 0.2, "rtol_calibrated": 0.05}, "dmu", "dlam"),
        ({"mu": 1.0}, "mu", "lambda"),
        ({"lambda": 1.0, "order0_rtol": 0.05}, "lambda", "mu"),
    ])
    def test_unpaired_expect_key_named(self, tmp_path, capsys, expect, given, missing):
        # each pair is checked as one: alone, a key would fail with a KeyError
        # (dlam) or never be checked (dmu, mu)
        path = write_config(tmp_path, order=0, expect=expect)
        message = f"expect.{given} is given without expect.{missing}"
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("overrides, skipped", [
        ({"order": 0, "expect": {"dlam": 9, "dmu": 9, "rtol_calibrated": 0.01}},
         ["dlam", "dmu", "rtol_calibrated"]),
        ({"expect": {"dlam": 0.3, "dmu": 0.2}}, ["dlam", "dmu"]),
        ({"expect": {"dlam": 0.3, "dmu": 0.2, "rtol_calibrated": 0.05,
                     "rtol_best_closed_form": 0.1}}, ["rtol_calibrated"]),
        ({"calibrate": True, "expect": {"dlam": 0.0, "dmu": 0.0, "rtol_calibrated": 0.05}},
         ["rtol_calibrated"]),
        ({"expect": {"dlam": 0.0, "dmu": 0.0, "rtol_best_closed_form": 0.1}},
         ["rtol_best_closed_form"]),
        ({"expect": {"dlam": 0.3, "dmu": 0.2, "rtol_best_closed_form": 0.1,
                     "null_noise_factor": 3.0}}, ["null_noise_factor"]),
        ({"expect": {"null_noise_factor": 3.0}}, ["null_noise_factor"]),
        ({"order": 0, "expect": {"order0_rtol": 0.05}}, ["order0_rtol"]),
    ])
    def test_unchecked_expect_key_named(self, tmp_path, capsys, overrides, skipped):
        # a key the run would skip is a config error, not a silent pass
        path = write_config(tmp_path, **overrides)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == err.replace("config invalid", "config error")
        assert sorted(re.findall(r"expect\.(\w+) is never checked", err)) == sorted(skipped)
        assert not (tmp_path / "r").exists()

    def test_order_beyond_profile_derivatives(self, tmp_path):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["profile"]["m"] = 0
        path.write_text(json.dumps(cfg))
        errors = cross_field_errors(cfg)
        assert any("exceeds profile derivative order" in e for e in errors)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_inadmissible_profile_named(self, tmp_path):
        path = write_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["profile"]["mu"] = [1.0, -1.0]
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    def test_inadmissible_truncation_named(self, tmp_path, capsys):
        # mu = 1 - 0.6 y + 0.3 y^2 stays above 0.7 on [0, 2], but the order-2
        # run subtracts its truncation 1 - 0.6 y, which is -0.2 at y = 2
        profile = {"lambda": [1.0, 0.3], "mu": [1.0, -0.6, 0.3], "m": 2, "p": 0.9}
        path = write_config(tmp_path, order=2, rho_tilde=None, profile=profile)
        message = ("order-2 Taylor truncation of the profile inadmissible on [0, 2]: "
                   "min mu = -0.2")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert main(["forward", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "f").exists()
        # the profile itself is admissible, and so is its order-1 truncation
        path = write_config(tmp_path, profile=profile)
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_narrow_dip_between_samples_rejected(self, tmp_path):
        # mu < 0 only near y3 = 1, between samples 255 and 256 of 512 on [0, 2]
        path = write_config(tmp_path, order=0)
        cfg = json.loads(path.read_text())
        cfg["profile"]["mu"] = [1e4 - 1e-3, -2e4, 1e4]
        path.write_text(json.dumps(cfg))
        assert any("inadmissible" in e for e in cross_field_errors(cfg))
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "dip")])
        assert rc == EXIT_CONFIG

    def test_negligible_leading_coefficient(self, tmp_path, capsys):
        # a subnormal cubic term overflows the companion matrix of mu'; the
        # critical points come from mu' without it, so the dip is still found
        path = write_config(tmp_path, order=0)
        cfg = json.loads(path.read_text())
        cfg["profile"]["mu"] = [1e4 - 1e-3, -2e4, 1e4, 1e-310]
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "inadmissible" in capsys.readouterr().err
        cfg["profile"]["mu"] = [1.0, 0.0, 0.25, 1e-310]
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == EXIT_OK

    def test_zero_direction_named(self, tmp_path, capsys):
        path = write_config(tmp_path, probes={"kinds": ["e3"], "directions": [[0.0, 0.0], [1.0, 0.0]]})
        assert any("direction [0.0, 0.0] is zero" in e
                   for e in cross_field_errors(json.loads(path.read_text())))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert main(["stroh", "--config", str(path)]) == EXIT_CONFIG
        assert main(["forward", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_CONFIG
        assert "is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("probes, repeated", [
        ({"directions": [[1.0, 0.0], [1.0, 0.0]]}, "e3@(1,0), tangent@(1,0), sigma1@(1,0)"),
        ({"directions": [[1.0, 0.0], [2.0, 0.0]]}, "e3@(1,0), tangent@(1,0), sigma1@(1,0)"),
        ({"kinds": ["e3", "sigma1", "e3"]}, "e3@(1,0), e3@(0,1)"),
    ], ids=["direction", "scaled-direction", "kind"])
    def test_repeated_probe_ids_named(self, tmp_path, capsys, probes, repeated):
        # a repeated probe would run its ladders twice, and the refined order-0
        # limits, keyed by probe id, would keep one of each pair
        path = write_config(tmp_path, probes=probes)
        assert cross_field_errors(json.loads(path.read_text())) == [
            f"probe ids repeat: {repeated}; each kind at each direction, "
            f"scaled to unit length, must be a distinct probe"]
        out = tmp_path / "r"
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.count(f"probe ids repeat: {repeated};") == 2
        assert not out.exists()

    @pytest.mark.parametrize("tail_tol", [1.0, 2.0])
    def test_tail_tol_below_one(self, tmp_path, tail_tol):
        path = write_config(tmp_path, quadrature={"nodes": 48, "tail_tol": tail_tol})
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")]) == EXIT_CONFIG

    def test_schema_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "profile": {}}))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert ("config invalid: schema violation at []: 'order' is a required property"
                in capsys.readouterr().err)
        path = write_config(tmp_path, probes={"kinds": ["e3"], "directions": [[1.0]]})
        with pytest.raises(ConfigError, match=re.escape(
                "schema violation at ['probes', 'directions', 0]: ")):
            load_config(path)

    @pytest.mark.parametrize("overrides, where", [
        ({"order": 1.0}, "['order']"),
        ({"quadrature": {"nodes": 96.0}}, "['quadrature', 'nodes']"),
        ({"profile": {"lambda": [2.0], "mu": [1.0], "m": 2, "p": 0.9}, "order": 0,
          "expect": {"lambda": 2, "mu": 1, "order0_rtol": -0.01}},
         "['expect', 'order0_rtol']"),
    ])
    def test_integral_float_is_not_an_integer(self, tmp_path, capsys, overrides, where):
        # an integral float would pass a Draft 2020-12 validator, then crash the run;
        # a negative tolerance would pass the schema, then fail every run
        path = write_config(tmp_path, **overrides)
        words = ("-0.01 is less than the minimum of 0" if "order0_rtol" in where
                 else "is not of type 'integer'")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        for prefix in ("config invalid", "config error"):
            assert re.search(f"^{prefix}: schema violation at {re.escape(where)}: .*{words}$",
                             err, re.M)

    def test_non_finite_number_rejected(self, tmp_path):
        # json.loads accepts NaN and Infinity, which would pass every schema bound
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"p": 0.9', '"p": NaN'))
        with pytest.raises(ConfigError, match="NaN is not a number"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("config, old, new, shown", [
        ("gradient", '"sigma": 0.3333333333333333', '"sigma": 1e999', "1e999"),
        ("homogeneous", '"lambda": [2.0]', '"lambda": [1e400]', "1e400"),
        ("gradient", '"lambda": [1.0,', '"lambda": [' + "1" * 401 + ",",
         "111111111111... (401 characters)"),
        ("gradient", '"lambda": [1.0,', '"lambda": [' + "1" * 5001 + ",",
         "111111111111... (5001 characters)"),
    ], ids=["sigma-1e999", "lambda-1e400", "401-digit-integer", "5001-digit-integer"])
    def test_number_outside_double_range_rejected(self, tmp_path, capsys, config, old, new, shown):
        # json.loads reads 1e999 as inf, which passes every schema bound, and a
        # long integer as an int that float() overflows on or int() refuses
        path = tmp_path / "config.json"
        path.write_text((REPO / "configs" / f"{config}.json").read_text().replace(old, new))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert f"config number {shown} is outside the double range" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ('"rho_tilde": 4', '"rho_tilde": 4, "rho_tilde": 5', "rho_tilde"),
        ('"mu": [1.0, 0.2]', '"mu": [1.0, 0.2], "mu": [1.0]', "mu"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_rejected(self, tmp_path, capsys, old, new, key):
        # json.loads keeps a repeated key's last value, which RFC 8259 leaves undefined
        path = tmp_path / "config.json"
        path.write_text((REPO / "configs" / "gradient.json").read_text().replace(old, new))
        with pytest.raises(ConfigError, match=f"key '{key}' repeats in one object"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert f"key '{key}' repeats" in capsys.readouterr().err

    def test_bump_sigma_rejected(self, tmp_path, capsys):
        # the bump has a fixed width; a sigma would be silently ignored
        path = write_config(tmp_path, cutoff={"kind": "bump", "sigma": 0.05})
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "cutoff.sigma" in capsys.readouterr().err
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG

    def test_null_rho_tilde_without_admissible_default(self, tmp_path, capsys):
        # p = 0.01 needs rho_tilde >= 101 at order 0, beyond the default search
        path = write_config(tmp_path, rho_tilde=None)
        cfg = json.loads(path.read_text())
        cfg["profile"]["p"] = 0.01
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        assert "no admissible rho_tilde for m=0, p=0.01" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


class TestStroh:
    def test_output_round_trips(self, tmp_path, capsys):
        path = write_config(tmp_path, profile={"lambda": [1.0], "mu": [1.0], "m": 2, "p": 0.9})
        out = tmp_path / "out"
        assert main(["stroh", "--config", str(path), "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "eigenvalues" in text
        payload = json.loads((out / "stroh.json").read_text())
        assert payload["Z"]["iota_squared"]["re"][0][0] == pytest.approx(1.5)
        assert payload["Z"]["iota_linear"]["re"][0][0] == pytest.approx(1.5)
        # eigenvalues are +-i with multiplicity three
        ims = sorted(payload["eigenvalues_im"])
        assert ims[:3] == pytest.approx([-1.0] * 3, abs=1e-6)
        assert ims[3:] == pytest.approx([1.0] * 3, abs=1e-6)
        assert max(payload["residuals"].values()) < 1e-10
        # deterministic serialization round-trip
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload

    def test_nearly_incompressible_medium(self, tmp_path):
        # lam/mu = 1e4 once made the Jordan-chain rank test fail (exit 1)
        path = write_config(tmp_path, profile={"lambda": [1e4], "mu": [1.0], "m": 2, "p": 0.9})
        assert main(["stroh", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_OK


class TestGeometryCheck:
    def test_passes_and_writes_table(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "geo"
        assert main(["geometry-check", "--config", str(path), "--out", str(out)]) == EXIT_OK
        table = (out / "geometry_checks.csv").read_text().splitlines()
        assert table[0].startswith("chart,")
        assert len(table) == 4
        assert all(line.endswith("true") for line in table[1:])


class TestForwardCommand:
    def test_csv_columns(self, tmp_path):
        path = write_config(tmp_path, order=0, ladder=[8, 16, 32, 64],
                            probes={"kinds": ["sigma1"], "directions": [[1.0, 0.0]]})
        out = tmp_path / "fwd"
        assert main(["forward", "--config", str(path), "--out", str(out)]) == EXIT_OK
        rows = (out / "pairings.csv").read_text().splitlines()
        assert rows[0] == "N,probe_id,m,re,im"
        assert len(rows) == 5
        assert rows[1].startswith('8,"sigma1@(1,0)",0,')
        manifest = json.loads((out / "manifest.json").read_text())
        assert "pairings.csv" in manifest["outputs"]

    def test_order2_quadratic_is_one_integration(self, tmp_path):
        # the profile and its linear order-2 truncation are one memo group, so
        # the order-0 and order-2 ladders read one integration of both
        path = write_config(tmp_path, order=2, rho_tilde=None, profile={
            "lambda": [1.0, 0.3, 0.1], "mu": [1.0, 0.2, 0.05], "m": 2, "p": 0.9})
        symbol_memo.clear()
        out = tmp_path / "fwd2"
        assert main(["forward", "--config", str(path), "--out", str(out)]) == EXIT_OK
        symbols = json.loads((out / "manifest.json").read_text())["counters"]["symbols"]
        assert (symbols["riccati_solves"], sum(symbols["accepted_nodes"])) == (1, 2 * 48)
        assert (symbols["accepted_nodes"], symbols["exact_constants"]) == ([48, 48], 1)


class TestCsvOutputs:
    def test_rows_parse_under_their_header(self, tmp_path):
        # probe ids such as e3@(1,0) hold a comma, so the field must be quoted
        path = write_config(tmp_path, order=0)
        assert main(["forward", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_OK
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
        for csv_path in (tmp_path / "f" / "pairings.csv", tmp_path / "r" / "ladders.csv"):
            with csv_path.open(newline="") as f:
                reader = csv.DictReader(f)
                rows = list(reader)
            assert reader.fieldnames == ["N", "probe_id", "m", "re", "im"]
            assert len(rows) == 2 * 4
            for row in rows:
                assert len(row) == 5 and None not in row
                assert row["probe_id"] in ("e3@(1,0)", "sigma1@(1,0)")
                assert int(row["m"]) == 0 and math.isfinite(float(row["re"]))
        # one layout for one computation: the two files hold the same ladders
        pairings, ladders = (tmp_path / "f" / "pairings.csv", tmp_path / "r" / "ladders.csv")
        assert pairings.read_bytes() == ladders.read_bytes()
        # a report ladder holds its values, its limit and how that limit was reached
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert "condition_numbers" not in report
        assert {frozenset(lr) for lr in report["ladders"]} == {frozenset(
            ("probe", "m", "N", "re", "im", "limit_re", "limit_im", "fit_flag", "noise"))}


class TestAnsatzCheck:
    def test_emits_decay_csv(self, tmp_path):
        path = write_config(tmp_path, order=0, ladder=[8, 16, 32, 64],
                            profile={"lambda": [1.0], "mu": [1.0], "m": 2, "p": 0.9})
        out = tmp_path / "ans"
        rc = main(["ansatz-check", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        rows = (out / "residual_decay.csv").read_text().splitlines()
        assert rows[0] == "N,residual_norm,fitted_slope"
        assert len(rows) == 5

    def test_null_rho_tilde_follows_holder_exponent(self, tmp_path, capsys):
        # p = 0.3 fails smallness at the p = 0.9 default rho_tilde 4; 5 is admissible
        path = write_config(tmp_path, order=0, ladder=[8, 16, 32, 64], rho_tilde=None,
                            profile={"lambda": [1.0], "mu": [1.0], "m": 2, "p": 0.3})
        assert main(["ansatz-check", "--config", str(path), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert "(bound exponent 1.8)" in capsys.readouterr().out

    @pytest.mark.parametrize("sigma", [0.03, 0.01, 0.003, 0.001])
    def test_unresolved_residuals_exit_numerical(self, tmp_path, capsys, sigma):
        # on the gradient config the step-halving disagreement reads 7.7 at
        # sigma = 0.03 and 8.7e51 at 0.003, and every norm is 0 at 0.001; each
        # once exited 0, the last with a slope of -3 fitted to log(0)
        cfg = json.loads((REPO / "configs" / "gradient.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, cutoff={"kind": "gaussian", "sigma": sigma})))
        rc = main(["ansatz-check", "--config", str(path), "--out", str(tmp_path / "a")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical diagnostic: residual norms ") and len(err.splitlines()) == 1
        assert err.endswith("has no correct leading digit\n")

    @pytest.mark.parametrize("config, disagreement", [("homogeneous", "0.8"),
                                                      ("gradient", "0.802")])
    def test_untrustworthy_fit_exits_numerical(self, tmp_path, capsys, config, disagreement):
        # with the bump cutoff both bundled configs read a step-halving
        # disagreement of 0.80, where the finite-difference error dominates the
        # fit; it once exited 0
        cfg = json.loads((REPO / "configs" / f"{config}.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, cutoff={"kind": "bump"})))
        rc = main(["ansatz-check", "--config", str(path), "--out", str(tmp_path / "a")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == (f"numerical diagnostic: step-halving disagreement {disagreement} of the "
                       f"residual norm at N = 256 is not below the bound 0.1, past which the "
                       f"finite-difference error dominates the decay fit\n")

    def test_cascade_failure_exits_numerical(self, tmp_path, capsys):
        # at lam/mu = 1e8 the order-1 cascade solve fails its residual test
        path = write_config(tmp_path, profile={"lambda": [1e8], "mu": [1.0], "m": 2, "p": 0.9})
        rc = main(["ansatz-check", "--config", str(path), "--out", str(tmp_path / "a")])
        assert rc == EXIT_NUMERICAL
        assert "numerical diagnostic: stacked cascade solve" in capsys.readouterr().err


class TestCutoffWidth:
    """A Gaussian width whose squares leave the double range is refused by a
    stated rule, with exit 3 or a one-line diagnostic (exit 4), never run into
    nan values, a traceback or a RuntimeWarning."""

    @pytest.mark.parametrize("command", ["validate", "forward", "reconstruct", "ansatz-check"])
    @pytest.mark.parametrize("config", ["homogeneous", "gradient"])
    def test_degenerate_width_refused(self, tmp_path, capsys, config, command):
        # sigma = 1e-300 once wrote nan in every forward row with exit 0,
        # ended reconstruct at "inadmissible moduli lambda = nan" and raised an
        # OverflowError in ansatz-check
        path = tmp_path / "config.json"
        path.write_text((REPO / "configs" / f"{config}.json").read_text().replace(
            '"sigma": 0.3333333333333333', '"sigma": 1e-300'))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        prefix = "config invalid" if command == "validate" else "config error"
        assert (f"{prefix}: cutoff.sigma 1e-300 is outside [1.492e-154, 3.352e+153]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, message", [
        ("forward", "cutoff width sigma = 1e-153 takes the N = 8, rho_tilde = 4 pairing grid"),
        ("reconstruct", "cutoff width sigma = 1e-153 takes the N = 8, rho_tilde = 4 pairing grid"),
        ("ansatz-check", "cutoff width sigma = 1e-153: the factor (-1/(sqrt(2) sigma))^"),
        ("ansatz-check", "cutoff width sigma = 1e-100: the factor (-1/(sqrt(2) sigma))^4"),
    ])
    def test_narrow_width_exits_numerical(self, tmp_path, capsys, command, message):
        # a width that validates, but whose grids' squared radii (or whose
        # derivatives) overflow: one line, exit 4, and no overflow warning first
        sigma = float(message.split()[4].rstrip(":"))
        path = write_config(tmp_path, cutoff={"kind": "gaussian", "sigma": sigma})
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == (
            EXIT_NUMERICAL)
        err = capsys.readouterr().err
        assert f"numerical diagnostic: {message}" in err and len(err.splitlines()) == 1


def strict_json(text: str):
    """RFC 8259 JSON: the NaN and Infinity literals that json.loads accepts are rejected."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestReconstructCommand:
    def test_bundled_outputs_are_strict_json(self, tmp_path):
        # every subcommand that writes runs on both bundled configs: each exits
        # 0 but reconstruct on the gradient one (criterion 06b), and each writes
        # strict JSON; the homogeneous run's six order-1 null ladders converge exactly
        converged = {}
        for name in ("homogeneous", "gradient"):
            symbol_memo.clear()  # forward counts as in a fresh process
            codes = {cmd: main([cmd, "--config", str(REPO / "configs" / f"{name}.json"),
                                "--out", str(tmp_path / name / cmd)])
                     for cmd in ("forward", "stroh", "ansatz-check", "geometry-check",
                                 "reconstruct")}
            assert codes == {**dict.fromkeys(codes, EXIT_OK),
                             "reconstruct": EXIT_ACCEPTANCE if name == "gradient" else EXIT_OK}
            written = {str(p.relative_to(tmp_path / name)): strict_json(p.read_text())
                       for p in (tmp_path / name).glob("*/*.json")}
            assert len(written) == 7 and "stroh/stroh.json" in written
            report = written["reconstruct/report.json"]
            converged[name] = [lr for lr in report["ladders"] if lr["fit_flag"] == "converged"]
            assert all(lr["m"] == 1 for lr in converged[name])
            # an order-m block holds no order, the calibration no base, and the
            # manifest no order-0 method (the report's)
            assert report["order0"]["method"] == "linear least squares"
            assert all(set(block) == {"dlam", "dmu", "residual", "condition", "noise_bound"}
                       for block in report["order_m"].values())
            assert set(report["calibration"]) == {"matrix", "linearity_error", "distances"}
            order0 = written["reconstruct/manifest.json"]["counters"]["order0"]
            assert set(order0) == {"passes", "final_change"}
        # the gradient forward run: the order-0 and order-1 batteries on one set
        # of grids, and one integration (the profile) with its exact order-1
        # truncation, looked up once per battery
        forward = strict_json((tmp_path / "gradient" / "forward" / "manifest.json").read_text())
        symbols = forward["counters"]["symbols"]
        assert (symbols["riccati_solves"], symbols["exact_constants"], symbols["memo_hits"]) == (
            1, 1, 1)
        assert forward["counters"]["pairing_grids"] == {
            "built": 5, "reused": 5, "weights_built": 5, "weights_reused": 5,
            "forms_built": 10, "forms_reused": 0}
        assert (len(converged["homogeneous"]), len(converged["gradient"])) == (6, 0)

    @pytest.mark.parametrize("overrides", [{"order": 0}, {"order": 1, "calibrate": False}],
                             ids=["order0", "calibrate-false"])
    def test_verdict_without_calibration_is_uncalibrated(self, tmp_path, overrides):
        path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert "calibration" not in report
        assert report["variant_verdict"] == "uncalibrated"

    def test_small_run_and_determinism(self, tmp_path):
        path = write_config(
            tmp_path,
            order=1,
            expect={"lambda": 1.0, "mu": 1.0, "order0_rtol": 0.05},
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        symbol_memo.clear()  # earlier tests solve the same profile
        rc1 = main(["reconstruct", "--config", str(path), "--out", str(out1)])
        rc2 = main(["reconstruct", "--config", str(path), "--out", str(out2)])
        assert rc1 == EXIT_OK and rc2 == EXIT_OK
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "ladders.csv").read_bytes() == (out2 / "ladders.csv").read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert report["order0"]["lambda"] == pytest.approx(1.0, rel=0.05)
        assert set(report["order_m"]) == {"plus_one", "plus_a3_squared", "predicted"}
        assert report["variant_verdict"] == "uncalibrated"
        order0 = json.loads((out1 / "manifest.json").read_text())["counters"]["order0"]
        assert order0["passes"] >= 1 and order0["final_change"] <= 1e-12
        # each run loads its own cutoff, so it builds (and reuses) the same grids
        grids = [json.loads((o / "manifest.json").read_text())["counters"]["pairing_grids"]
                 for o in (out1, out2)]
        assert grids[0] == grids[1]
        assert 1 <= grids[0]["built"] < grids[0]["reused"]
        # every symbol has 48 Chebyshev points: one set of weights per grid; the
        # rows are interpolated once per moment form, one form per grid and ladder
        # order, and each battery requests each of its forms once
        assert grids[0]["weights_built"] == grids[0]["built"]
        assert grids[0]["forms_built"] == 2 * grids[0]["built"]
        assert grids[0]["forms_reused"] == 0
        # the symbol memo keys a request by its profiles' contents and
        # derivative orders and the tolerance, not by the profile objects: the
        # first run solves the profile's group once, the profile at 48
        # Chebyshev points and its constant order-1 truncation exactly (its
        # order-2 one is the profile); the second run's profile, loaded anew,
        # reads that group from the memo; each battery looks its group up once
        manifests = [json.loads((o / "manifest.json").read_text()) for o in (out1, out2)]
        counters = [m["counters"] for m in manifests]
        assert counters[0]["extrapolation_flags"] == counters[1]["extrapolation_flags"]
        symbols = counters[0]["symbols"]
        assert (symbols["riccati_solves"], symbols["exact_constants"]) == (1, 1)
        assert symbols["steps_accepted"] > 0 and symbols["memo_hits"] == 1
        assert (sum(symbols["accepted_nodes"]), symbols["accepted_nodes"]) == (48, [48])
        again = counters[1]["symbols"]
        assert (again["riccati_solves"], again["exact_constants"], again["memo_hits"]) == (0, 0, 2)
        assert again["accepted_nodes"] == []
        stages = manifests[0]["stage_seconds"]
        assert 0.0 < stages["symbols"] <= stages["reconstruct"]
        assert all(stages[k] >= 0.0 for k in ("order0_ladders", "order0_solve", "order_m_ladders",
                                              "order_m_solve", "calibration"))
        assert sum(counters[0]["extrapolation_flags"].values()) == 4
        # the bundled gradient config as in a fresh process (it shares the
        # profile above): the main profile is solved alone and the three
        # calibration profiles as one group, one integration each; both
        # truncations are exact constants
        symbol_memo.clear()
        out3 = tmp_path / "bundled"
        main(["reconstruct", "--config", str(REPO / "configs" / "gradient.json"),
              "--out", str(out3)])
        counters = json.loads((out3 / "manifest.json").read_text())["counters"]
        # each symbol resolved at 48 points, 20x fewer integrated radii than
        # the 960 per ladder grid set of a table at the quadrature radii; the
        # step counts pinned, so that an edit of the integrator's kernels cannot
        # change its step control unseen: DOP853 evaluates the flow twice to
        # start a solve, 11 times per attempted step and once more (first same
        # as last) per accepted one, 2 x 2 + 12 x 44 = 532; one lookup per
        # battery, the order-1 battery reading the order-0 battery's group
        assert counters["symbols"] == {
            "riccati_solves": 2, "exact_constants": 2, "memo_hits": 1,
            "accepted_nodes": [48] * 4, "steps_accepted": 44, "steps_rejected": 0,
            "steps_capped": 0, "rhs_evaluations": 532}
        # 5 grids and weight sets built and reused by every later ladder, and
        # 25 moment forms, so that grid, weight and form reuse cannot regress unseen
        assert counters["pairing_grids"] == {
            "built": 5, "reused": 25, "weights_built": 5, "weights_reused": 20,
            "forms_built": 25, "forms_reused": 0}
        assert sum(counters["extrapolation_flags"].values()) == 6 + 6 + 3 * 6

    def test_null_rho_tilde_follows_holder_exponent(self, tmp_path):
        # p = 0.3 admits rho_tilde 5 at order 0 and 8 at order 1 (4 fails
        # smallness): the written ladders are the runner's at those rho_tilde
        cfg = json.loads((REPO / "configs" / "gradient.json").read_text())
        cfg["profile"]["p"], cfg["rho_tilde"], cfg["calibrate"] = 0.3, None, False
        del cfg["expect"]
        path = tmp_path / "p03.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "p03"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_OK
        with (out / "ladders.csv").open(newline="") as f:
            rows = [(row["N"], row["probe_id"], row["m"], row["re"], row["im"])
                    for row in csv.DictReader(f)]
        profile, battery = cli.profile_from_config(cfg), cli.battery_from_config(cfg)
        expected = [(str(n), lr.template.name, str(m), cli._fmt(v.real), cli._fmt(v.imag))
                    for m, rt in ((0, 5), (1, 8))
                    for lr in serial_ladder_runner((profile,), battery, cfg["ladder"], m,
                                                   cli.cutoff_from_config(cfg), rt,
                                                   cli.quad_from_config(cfg))[0]
                    for n, v in zip(lr.N_values, lr.values)]
        assert rows == expected

    @pytest.mark.parametrize("c", [1e-9, 3e-5])
    def test_weak_gradient_resolved(self, tmp_path, c):
        # lambda = 1 + c y: the symbol's remainder is small, and the run must
        # resolve it at 48 points rather than refuse it (exit 4)
        symbol_memo.clear()
        path = write_config(tmp_path, profile={"lambda": [1.0, c], "mu": [1.0], "m": 2, "p": 0.9})
        out = tmp_path / "weak"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_OK
        symbols = json.loads((out / "manifest.json").read_text())["counters"]["symbols"]
        assert symbols["accepted_nodes"] == [48]

    def test_unidentifiable_battery_exits_config(self, tmp_path, capsys):
        # e3 and tangent probes see the same combination of lambda and mu;
        # validate once passed such a battery, which forward and ansatz-check,
        # needing no rank, still run
        for kinds in (["e3", "tangent"], ["e3"]):
            path = write_config(tmp_path, order=0, probes={"kinds": kinds,
                                                           "directions": [[1.0, 0.0]]})
            assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
            rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "rank")])
            assert rc == EXIT_CONFIG
            invalid, error = capsys.readouterr().err.splitlines()
            assert invalid == error.replace("config error", "config invalid", 1) + (
                "; reconstruct refuses this battery")
            assert error.startswith("config error: order-0 battery cannot separate")
            for command in ("forward", "ansatz-check"):
                out = tmp_path / command
                assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK

    def test_inadmissible_order0_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a refine that ends at inadmissible moduli (3 lam + 2 mu = -0.1) stops
        # the run: at order 0 nothing else would keep it from the report, and at
        # order 1 it comes before any order-m solve or calibration builds a
        # profile on them
        from lame_edge import reconstruct

        def refine(ladders, C, cutoff, rho_tilde, quad):
            return reconstruct.Order0Result(-0.7, 1.0, 0.0, False, "linear least squares"), {}

        monkeypatch.setattr(reconstruct, "refine_order0", refine)
        for order in (0, 1):
            path = write_config(tmp_path, order=order)
            out = tmp_path / f"r{order}"
            assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
            assert capsys.readouterr().err == (
                "numerical diagnostic: order-0 recovery ended at inadmissible moduli "
                "lambda = -0.7, mu = 1: the ladders admit no elastic half-space\n")
            assert not out.exists()

    def test_rank_deficient_calibration_exits_numerical(self, tmp_path, capsys):
        # at sigma = 1e-100 the measured calibration matrix is rank-deficient:
        # once exit 3, a config error, for a config that validates and forwards
        cfg = json.loads((REPO / "configs" / "homogeneous.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, cutoff={"kind": "gaussian", "sigma": 1e-100})))
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical diagnostic: measured design matrix rank-deficient in "
                              "mode calibrated for probes [e3@(1,0), ") and len(err.splitlines()) == 1

    def test_linearity_violation_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # the gradient config's calibration measures a linearity error of 1.26e-3
        from lame_edge import reconstruct

        monkeypatch.setattr(reconstruct, "_LINEARITY_TOL", 1e-3)
        rc = main(["reconstruct", "--config", str(REPO / "configs" / "gradient.json"),
                   "--out", str(tmp_path / "r")])
        assert rc == EXIT_NUMERICAL
        assert ("numerical diagnostic: linearity violation 0.126% exceeds 0.1%"
                in capsys.readouterr().err)

    def test_linearity_diagnostic_is_one_line(self, tmp_path, capsys):
        # at order 2 and sigma = 1e-6 the homogeneous calibration is 16% off
        # linear; numpy once wrapped the six measured values over three lines
        cfg = json.loads((REPO / "configs" / "homogeneous.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(cfg, order=2, rho_tilde=None, ladder=[16, 32, 64, 128],
                                        cutoff={"kind": "gaussian", "sigma": 1e-6}, expect={})))
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical diagnostic: linearity violation 16.098% exceeds 3.0%")
        assert len(err.splitlines()) == 1

    def test_expect_breach_exits_2(self, tmp_path):
        path = write_config(
            tmp_path,
            order=0,
            expect={"lambda": 5.0, "mu": 5.0, "order0_rtol": 0.01},
        )
        out = tmp_path / "breach"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_ACCEPTANCE
        report = json.loads((out / "report.json").read_text())
        assert report["expect_failures"]


EXPECT_KEYS = ("lambda", "mu", "order0_rtol", "dlam", "dmu", "rtol_calibrated",
               "rtol_best_closed_form", "null_noise_factor")
RULES = {rule.name: rule for rule in EXPECT_RULES}


def stub_report(order: int, calibrate: bool, dlam=1.0, dmu=1.0):
    """The modes reconstruct_profile reports, every one at the same (dlam, dmu),
    and (lambda, mu) = (3, 3)."""
    modes = (*VARIANTS, "predicted", *(("calibrated",) if calibrate else ())) if order else ()
    r = SimpleNamespace(dlam=dlam, dmu=dmu, noise_bound=(1e-3, 1e-3))
    return SimpleNamespace(order0=SimpleNamespace(lam=3.0, mu=3.0),
                           order_m=dict.fromkeys(modes, r))


def checked_by_hand(order: int, calibrate: bool, expect: dict) -> set:
    """The expect keys a run checks, restated from the README's rule table."""
    checked = set()
    if {"lambda", "mu"} <= expect.keys():
        checked |= {"lambda", "mu", "order0_rtol"}
    if order >= 1 and {"dlam", "dmu"} <= expect.keys():
        if expect["dlam"] == expect["dmu"] == 0.0:
            checked |= {"dlam", "dmu", "null_noise_factor"}
        if expect["dlam"] != 0.0 and calibrate:
            checked |= {"dlam", "dmu", "rtol_calibrated"}
        if expect["dlam"] != 0.0 and "rtol_best_closed_form" in expect:
            checked |= {"dlam", "dmu", "rtol_best_closed_form"}
    return checked


class TestExpectRules:
    @settings(max_examples=300, deadline=None)
    @given(keys=st.sets(st.sampled_from(EXPECT_KEYS)), zero=st.booleans(),
           order=st.integers(0, 2), calibrate=st.sampled_from([True, False, None]))
    def test_every_given_key_is_checked_or_refused(self, keys, zero, order, calibrate):
        values = {"lambda": 2.0, "mu": 1.0, "order0_rtol": 0.02, "rtol_calibrated": 0.05,
                  "rtol_best_closed_form": 0.1, "null_noise_factor": 3.0,
                  "dlam": 0.0 if zero else 0.3, "dmu": 0.0 if zero else 0.2}
        expect = {key: values[key] for key in EXPECT_KEYS if key in keys}
        cfg = {"order": order, "expect": expect,
               **({} if calibrate is None else {"calibrate": calibrate})}
        calibrates = calibrate is not False
        errors = expect_errors(cfg)
        unpaired = {key for pair in (("lambda", "mu"), ("dlam", "dmu"))
                    for key, other in (pair, pair[::-1]) if key in expect and other not in expect}
        unread = expect.keys() - checked_by_hand(order, calibrates, expect)
        text = "; ".join(errors)
        assert sorted(re.findall(r"expect\.(\w+) is given without", text)) == sorted(unpaired)
        assert sorted(re.findall(r"expect\.(\w+) is never checked", text)) == sorted(unread)
        assert len(errors) == len(unpaired) + len(unread)
        if not errors:
            running = [rule for rule in EXPECT_RULES if rule.skips(cfg) is None]
            assert expect.keys() <= {key for rule in running for key in rule.reads}
            # the stub misses every target, so each running rule reports a failure
            failures = expect_failures(stub_report(order, calibrates), cfg)
            assert len(failures) >= len(running)

    @pytest.mark.parametrize("name, rtol, printed", [
        ("calibrated", 0.0003, "0.03%"),
        ("calibrated", 0.05, "5%"),
        ("best_closed_form", 0.1, "10%"),
        ("best_closed_form", 0.125, "12.5%"),
    ])
    def test_tolerance_printed_as_given(self, name, rtol, printed):
        # a recovery off the target by twice the tolerance
        report = stub_report(1, True, dlam=0.3 * (1 + 2 * rtol), dmu=0.2)
        (message,) = RULES[name].check(report, [0.3, 0.2], rtol)
        assert message.endswith(f"error {2 * rtol:.2%} > {printed}")

    def test_readme_table_states_the_rules(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        table = text.split("| rule | keys | runs when | checks |\n|---|---|---|---|\n")[1]
        rows = [line.strip("|").split("|") for line in table.split("\n\n")[0].splitlines()]
        assert len(rows) == len(EXPECT_RULES)
        for (name, keys, when, _), rule in zip(rows, EXPECT_RULES):
            assert re.findall(r"`(\w+)`", name) == [rule.name]
            assert re.findall(r"`(\w+)`", keys) == list(rule.reads)
            default = "(required)" if rule.default is None else f"(default {rule.default:g})"
            assert keys.strip().endswith(default)
            assert re.findall(r"`([^`]+)`", when) == list(rule.when) or (
                when.strip() == "always" and not rule.when)


BUNDLED = {name: json.loads((REPO / "configs" / f"{name}.json").read_text())
           for name in ("homogeneous", "gradient")}
RUNS = ("stroh", "forward", "ansatz-check", "geometry-check", "reconstruct")


@st.composite
def perturbed_configs(draw):
    """A bundled config with its run settings redrawn, on a four-rung ladder;
    each sampled setting's first choice is the bundled one."""
    cfg = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    start = draw(st.sampled_from([16, 8, 4]))
    cfg["ladder"] = [start * 2**k for k in range(4)]
    cfg["quadrature"] = {"nodes": draw(st.sampled_from([96, 48, 24, 8])),
                         "tail_tol": draw(st.sampled_from([1e-8, 1e-3, 1e-12])),
                         "riccati_tol": draw(st.sampled_from([1e-10, 1e-6, 1e-13]))}
    cfg["rho_tilde"] = draw(st.sampled_from([4, None, 8]))
    # a Gaussian width from below the accepted range to 1e4 or near the
    # bundled 1/3, or the bump
    exponent = draw(st.one_of(st.floats(-154.0, 4.0), st.floats(-1.5, 0.5), st.none()))
    cfg["cutoff"] = ({"kind": "bump"} if exponent is None
                     else {"kind": "gaussian", "sigma": 10.0**exponent})
    # e3 and tangent alone cannot separate lambda from mu
    kinds = draw(st.sampled_from([["e3", "tangent", "sigma1"], ["sigma1", "e3"],
                                  ["tangent", "sigma1"], ["e3", "tangent"], ["sigma1"]]))
    directions = draw(st.permutations([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-1.0, 2.0]]))
    cfg["probes"] = {"kinds": kinds, "directions": directions[:draw(st.sampled_from([2, 1]))]}
    slopes = st.lists(st.floats(-0.3, 0.3), max_size=2)
    cfg["profile"]["lambda"] = [draw(st.floats(0.5, 4.0)), *draw(slopes)]
    cfg["profile"]["mu"] = [draw(st.floats(0.5, 2.0)), *draw(slopes)]
    cfg["order"] = draw(st.sampled_from([1, 0, 2]))
    cfg["calibrate"] = draw(st.sampled_from([True, False]))
    if cfg["order"] != 1 or draw(st.booleans()):  # the expect blocks are the order-1 runs'
        del cfg["expect"]
    return cfg


def run_main(argv: list) -> tuple[int, str, str]:
    """main(argv) in-process: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    @settings(max_examples=6, deadline=None, database=None)
    @seed(20260811)
    @given(cfg=perturbed_configs())
    # widths and a battery that once broke the contract, each with its named test
    @example(cfg=dict(BUNDLED["gradient"], probes={"kinds": ["e3"], "directions": [[1.0, 0.0]]}))
    @example(cfg=dict(BUNDLED["gradient"], cutoff={"kind": "gaussian", "sigma": 1e-3}))
    @example(cfg=dict(BUNDLED["homogeneous"], cutoff={"kind": "gaussian", "sigma": 1e-100}))
    def test_perturbed_bundled_configs(self, cfg):
        # every run exits 0, 2, 3 or 4; exits 3 only where validate does; warns
        # nothing; refuses in one line; and writes and prints finite numbers
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            valid = run_main(["validate", "--config", str(path)])[0]
            for cmd in RUNS:
                out = Path(tmp) / cmd
                code, stdout, stderr = run_main([cmd, "--config", str(path), "--out", str(out)])
                assert code in (EXIT_OK, EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_NUMERICAL)
                if code in (EXIT_CONFIG, EXIT_NUMERICAL):
                    assert len(stderr.splitlines()) == 1, stderr
                    assert code == EXIT_NUMERICAL or valid == EXIT_CONFIG, stderr
                    continue
                for text in (stdout, *(f.read_text() for f in out.iterdir())):
                    assert not re.search(r"\b(nan|inf|infinity)\b", text, re.I), (cmd, text)
