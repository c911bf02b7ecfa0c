import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lame_edge.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    cross_field_errors,
    load_config,
    main,
)
from lame_edge.forward import symbol_memo

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
    ])
    def test_integral_float_is_not_an_integer(self, tmp_path, capsys, overrides, where):
        # an integral float would pass a Draft 2020-12 validator, then crash the run
        path = write_config(tmp_path, **overrides)
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert f"config error: schema violation at {where}: " in capsys.readouterr().err

    def test_non_finite_number_rejected(self, tmp_path):
        # json.loads accepts NaN and Infinity, which would pass every schema bound
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace('"p": 0.9', '"p": NaN'))
        with pytest.raises(ConfigError, match="NaN is not a number"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG

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
        assert rows[0] == "N,probe_id,m,re,im,tail,nodes"
        assert len(rows) == 5
        assert rows[1].startswith('8,"sigma1@(1,0)",0,')
        assert rows[1].endswith(f",{4 * 48**2}")
        manifest = json.loads((out / "manifest.json").read_text())
        assert "pairings.csv" in manifest["outputs"]


class TestCsvOutputs:
    def test_rows_parse_under_their_header(self, tmp_path):
        # probe ids such as e3@(1,0) hold a comma, so the field must be quoted
        path = write_config(tmp_path, order=0)
        assert main(["forward", "--config", str(path), "--out", str(tmp_path / "f")]) == EXIT_OK
        assert main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
        for csv_path in (tmp_path / "f" / "pairings.csv", tmp_path / "r" / "ladders.csv"):
            with csv_path.open(newline="") as f:
                rows = list(csv.DictReader(f))
            assert len(rows) == 2 * 4
            for row in rows:
                assert len(row) == 7 and None not in row
                assert row["probe_id"] in ("e3@(1,0)", "sigma1@(1,0)")
                assert int(row["m"]) == 0 and math.isfinite(float(row["re"]))


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


def strict_json(text: str):
    """RFC 8259 JSON: the NaN and Infinity literals that json.loads accepts are rejected."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestReconstructCommand:
    def test_bundled_outputs_are_strict_json(self, tmp_path):
        # the homogeneous run's six order-1 null ladders converge exactly: their
        # infinite rate is null in report.json and stays inf in ladders.csv
        converged = {}
        for name in ("homogeneous", "gradient"):
            out = tmp_path / name
            main(["reconstruct", "--config", str(REPO / "configs" / f"{name}.json"),
                  "--out", str(out)])
            report = strict_json((out / "report.json").read_text())
            strict_json((out / "manifest.json").read_text())
            converged[name] = [lr for lr in report["ladders"] if lr["rate"] is None]
            assert all(lr["fit_flag"] == "converged" for lr in converged[name])
            with (out / "ladders.csv").open(newline="") as f:
                rates = [row["rate"] for row in csv.DictReader(f)]
            assert rates.count("inf") == sum(len(lr["N"]) for lr in converged[name])
        assert (len(converged["homogeneous"]), len(converged["gradient"])) == (6, 0)

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
        assert report["variant_verdict"] == "calibration-only"
        order0 = json.loads((out1 / "manifest.json").read_text())["counters"]["order0"]
        assert order0["method"] == report["order0"]["method"]
        assert order0["passes"] >= 1 and order0["final_change"] <= 1e-12
        # each run loads its own cutoff, so it builds (and reuses) the same grids
        grids = [json.loads((o / "manifest.json").read_text())["counters"]["pairing_grids"]
                 for o in (out1, out2)]
        assert grids[0] == grids[1]
        assert 1 <= grids[0]["built"] < grids[0]["reused"]
        # every symbol has 48 Chebyshev points: one set of weights per grid
        assert grids[0]["weights_built"] == grids[0]["built"] < grids[0]["weights_reused"]
        # the symbol memo keys by profile content alone: the first run solves
        # the profile once at 48 Chebyshev points (its order-1 truncation is
        # constant, so exact), the second reads both symbols from the memo
        manifests = [json.loads((o / "manifest.json").read_text()) for o in (out1, out2)]
        counters = [m["counters"] for m in manifests]
        assert counters[0]["extrapolation_flags"] == counters[1]["extrapolation_flags"]
        symbols = counters[0]["symbols"]
        assert (symbols["riccati_solves"], symbols["exact_constants"]) == (1, 1)
        assert symbols["steps_accepted"] > 0 and symbols["memo_hits"] == 4
        assert (symbols["nodes"], symbols["accepted_nodes"], symbols["refinements"]) == (48, [48], [0])
        again = counters[1]["symbols"]
        assert (again["riccati_solves"], again["exact_constants"], again["memo_hits"]) == (0, 0, 6)
        assert again["accepted_nodes"] == again["refinements"] == []
        stages = manifests[0]["stage_seconds"]
        assert 0.0 < stages["symbols"] <= stages["reconstruct"]
        assert sum(counters[0]["extrapolation_flags"].values()) == 4
        # the bundled gradient config as in a fresh process (it shares the
        # profile above): the main profile and three calibration profiles are
        # solved; both truncations are exact constants
        symbol_memo.clear()
        out3 = tmp_path / "bundled"
        main(["reconstruct", "--config", str(REPO / "configs" / "gradient.json"),
              "--out", str(out3)])
        counters = json.loads((out3 / "manifest.json").read_text())["counters"]
        symbols = counters["symbols"]
        assert (symbols["riccati_solves"], symbols["exact_constants"]) == (4, 2)
        # each symbol resolved at 48 points, 20x fewer integrated radii than
        # the 960 per ladder grid set of a table at the quadrature radii
        assert symbols["accepted_nodes"] == [48] * 4 and symbols["refinements"] == [0] * 4
        assert symbols["nodes"] == 192
        # DOP853 evaluates the flow twice to start a solve, 11 times per
        # attempted step and once more (first same as last) per accepted one
        assert symbols["rhs_evaluations"] == (2 * symbols["riccati_solves"]
                                              + 12 * symbols["steps_accepted"]
                                              + 11 * symbols["steps_rejected"])
        assert sum(counters["extrapolation_flags"].values()) == 6 + 6 + 3 * 6

    def test_null_rho_tilde_follows_holder_exponent(self, tmp_path):
        # p = 0.3 admits rho_tilde 5 at order 0 and 8 at order 1 (4 fails smallness);
        # the structured extrapolation rate is 2 / rho_tilde
        cfg = json.loads((REPO / "configs" / "gradient.json").read_text())
        cfg["profile"]["p"], cfg["rho_tilde"], cfg["calibrate"] = 0.3, None, False
        del cfg["expect"]
        path = tmp_path / "p03.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "p03"
        assert main(["reconstruct", "--config", str(path), "--out", str(out)]) == EXIT_OK
        with (out / "ladders.csv").open(newline="") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        assert reader.fieldnames[2:] == ["m", "re", "im", "tail", "rate"]
        assert {(row["m"], row["rate"]) for row in rows} == {
            ("0", "4.000000000000e-01"), ("1", "2.500000000000e-01")}

    def test_unidentifiable_battery_exits_config(self, tmp_path, capsys):
        # e3 and tangent probes see the same combination of lambda and mu
        path = write_config(tmp_path, order=0,
                            probes={"kinds": ["e3", "tangent"], "directions": [[1.0, 0.0]]})
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "rank")])
        assert rc == EXIT_CONFIG
        assert "config error: order-0 battery cannot separate" in capsys.readouterr().err

    def test_inadmissible_order0_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a refine that ends at inadmissible moduli stops the run before any
        # order-m solve or calibration builds a profile on them
        from lame_edge import reconstruct

        def refine(ladders, cutoff, rho_tilde, quad):
            return reconstruct.Order0Result(-0.7, 1.0, 0.0, False, "linear least squares"), {}

        monkeypatch.setattr(reconstruct, "refine_order0", refine)
        path = write_config(tmp_path)
        rc = main(["reconstruct", "--config", str(path), "--out", str(tmp_path / "r")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical diagnostic: order-0 recovery ended at inadmissible moduli" in err

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
