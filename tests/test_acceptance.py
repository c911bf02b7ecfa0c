"""Acceptance gate: every criterion at its stated tolerance.

Each test records one pass/fail line (see conftest terminal summary). The
closed-form-variant clause of the order-1 recovery criterion fails by a wide,
reproducible margin because the closed-form coefficient table drops the depth-linear
term of the solution family; the assertion is kept as stated and the measured
numbers are carried in the failure message.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from lame_edge.ansatz import GaussianCutoff, ProbeSpec, residual_decay
from lame_edge.elastic import LameProfile
from lame_edge.forward import DEFAULT_QUAD, dtn_symbol, limit_quadrature
from lame_edge.geometry import (
    FlatPatch,
    ParaboloidPatch,
    SpherePatch,
    build_chart,
    first_order_nonflat,
    push_forward,
)
from lame_edge.reconstruct import (
    ProbeTemplate,
    default_battery,
    recover_order_m,
    reconstruct_profile,
    refine_order0,
    run_ladder,
    serial_ladder_runner,
    closed_form_response,
)
from lame_edge.stroh import (
    characteristic_det,
    characteristic_det_factored,
    eigen_jordan,
    impedance,
    quadratic_form,
    reference_chain,
    stroh_matrix,
)

REPO = Path(__file__).resolve().parent.parent
LADDER = [16, 32, 64, 128, 256]
E1 = (1.0, 0.0, 0.0)


def random_admissible(rng):
    mu = rng.uniform(0.2, 3.0)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.05, 3.0)
    return lam, mu


@pytest.fixture(scope="module")
def gauss():
    return GaussianCutoff()


@pytest.fixture(scope="module")
def hom21_order0(gauss):
    """Criterion-4 data: homogeneous (2, 1), probes {e3, sigma1} at (1,0)."""
    profile = LameProfile.constant(2.0, 1.0, name="acc-hom21")
    battery = [ProbeTemplate.named("e3", (1.0, 0.0)),
               ProbeTemplate.named("sigma1", (1.0, 0.0))]
    t0 = time.perf_counter()
    ladders = serial_ladder_runner(profile, battery, LADDER, 0, gauss, 4, DEFAULT_QUAD)
    order0, refined = refine_order0(ladders, gauss, 4)
    elapsed = time.perf_counter() - t0
    return {"ladders": ladders, "order0": order0, "refined": refined,
            "elapsed": elapsed, "profile": profile, "battery": battery}


@pytest.fixture(scope="module")
def hom21_null(gauss):
    """Criterion-5 data: order-1 difference ladders on the homogeneous profile."""
    profile = LameProfile.constant(2.0, 1.0, name="acc-hom21-null")
    battery = default_battery()
    ladders = [run_ladder(profile, t, LADDER, 1, cutoff=gauss, rho_tilde=4)
               for t in battery]
    return {"ladders": ladders, "battery": battery}


@pytest.fixture(scope="module")
def gradient_run(gauss):
    """Criterion-6 data: full reconstruction of the linear-gradient profile."""
    profile = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="acc-grad")
    t0 = time.perf_counter()
    report = reconstruct_profile(
        profile, 1, LADDER, battery=default_battery(), cutoff=gauss,
        rho_tilde=4, calibrate=True,
    )
    elapsed = time.perf_counter() - t0
    return {"report": report, "elapsed": elapsed}


def test_criterion_01_determinant_factorization():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        lam, mu = random_admissible(rng)
        th = rng.uniform(0, 2 * np.pi)
        om = (np.cos(th), np.sin(th), 0.0)
        sigma = rng.standard_normal() + 1j * rng.standard_normal()
        lhs = characteristic_det(lam, mu, om, sigma)
        rhs = characteristic_det_factored(lam, mu, sigma)
        bound = 1e-10 * (1.0 + abs(sigma) ** 6)
        worst = max(worst, abs(lhs - rhs) / bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 1.0
    record_criterion("01 determinant factorization", ok,
                     f"max defect {worst:.2e} of bound, {elapsed:.2f}s")
    assert worst <= 1.0
    assert elapsed < 1.0


def test_criterion_02_explicit_chain():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        lam, mu = random_admissible(rng)
        th = rng.uniform(0, 2 * np.pi)
        om = (np.cos(th), np.sin(th), 0.0)
        K = stroh_matrix(lam, mu, om)
        scale = np.linalg.norm(K.matrix)
        q1, q2, q3 = reference_chain(lam, mu, om)
        r = max(
            np.linalg.norm(K.matrix @ q1 - 1j * q1),
            np.linalg.norm(K.matrix @ q2 - 1j * q2),
            np.linalg.norm(K.matrix @ q3 - 1j * q3 - q2),
        )
        spec = eigen_jordan(K)
        r = max(r, max(spec.residuals.values()))
        worst = max(worst, r / (1e-10 * scale))
    ok = worst <= 1.0
    record_criterion("02 explicit Jordan chain", ok, f"max residual {worst:.2e} of 1e-10*|K|")
    assert ok


def test_criterion_03_impedance_oracle_variant():
    rng = np.random.default_rng(103)
    winners = []
    worst_sq = 0.0
    for trial in range(20):
        lam, mu = random_admissible(rng)
        kn = rng.uniform(0.4, 30.0)
        th = rng.uniform(0, 2 * np.pi)
        k = kn * np.array([np.cos(th), np.sin(th)])
        prof = LameProfile.constant(lam, mu, name=f"acc3-{trial}")
        M = dtn_symbol(prof, k).matrix
        errs = {}
        for variant in ("iota_squared", "iota_linear"):
            Z = impedance(lam, mu, (np.cos(th), np.sin(th), 0.0), variant).matrix
            errs[variant] = float(np.abs(M - kn * Z).max() / np.abs(M).max())
        winners.append(min(errs, key=errs.get))
        worst_sq = max(worst_sq, errs["iota_squared"])
        assert errs["iota_squared"] <= 1e-8, f"squared variant off: {errs}"
        assert errs["iota_linear"] > 1e-8, "both variants matched; ambiguity unresolved"
    stable = set(winners) == {"iota_squared"}
    record_criterion("03 impedance/oracle variant", stable,
                     f"iota_squared wins 20/20, max rel err {worst_sq:.2e}")
    assert stable


def test_criterion_04_order0_desk_scale(hom21_order0):
    d = hom21_order0
    targets = {
        t.name: quadratic_form(impedance(2.0, 1.0, t.omega), t.a) for t in d["battery"]
    }
    worst_rel = max(
        abs(d["refined"][name] - tgt) / tgt for name, tgt in targets.items()
    )
    lam_err = abs(d["order0"].lam - 2.0) / 2.0
    mu_err = abs(d["order0"].mu - 1.0)
    ok = worst_rel <= 0.02 and lam_err <= 0.03 and mu_err <= 0.03 and d["elapsed"] <= 300.0
    record_criterion(
        "04 order-0 desk scale", ok,
        f"limits within {worst_rel:.2%}, recovered ({d['order0'].lam:.4f}, "
        f"{d['order0'].mu:.4f}), {d['elapsed']:.0f}s",
    )
    assert worst_rel <= 0.02
    assert lam_err <= 0.03 and mu_err <= 0.03
    assert d["elapsed"] <= 300.0


def test_criterion_05_order1_null(hom21_null):
    ladders = hom21_null["ladders"]
    worst = max(float(np.abs(lr.values).max()) for lr in ladders)
    pairs = [(lr.template, lr) for lr in ladders]
    rec = recover_order_m(pairs, 1, "plus_a3_squared", base=(2.0, 1.0))
    noise = np.maximum(np.asarray(rec.noise_bound), 1e-12)
    est = np.array([rec.dlam, rec.dmu])
    ok = worst <= 1e-6 and np.all(np.abs(est) <= 3.0 * noise)
    record_criterion(
        "05 order-1 null test", ok,
        f"max ladder value {worst:.2e}, estimates {est.tolist()} vs 3x noise",
    )
    assert worst <= 1e-6
    assert np.all(np.abs(est) <= 3.0 * noise)


def test_criterion_06a_gradient_calibrated(gradient_run):
    report = gradient_run["report"]
    want = np.array([0.3, 0.2])
    r = report.order_m["calibrated"]
    err = float(np.abs(np.array([r.dlam, r.dmu]) - want).max() / want.max())
    dist = report.calibration.distances
    ok = err <= 0.05 and gradient_run["elapsed"] <= 1200.0
    record_criterion(
        "06a order-1 calibrated recovery", ok,
        f"({r.dlam:.4f}, {r.dmu:.4f}) err {err:.2%}, verdict {report.variant_verdict}, "
        f"distances {{'plus_one': {dist['plus_one']:.3f}, 'plus_a3_squared': "
        f"{dist['plus_a3_squared']:.3f}, 'predicted': {dist['predicted']:.3f}}}, "
        f"{gradient_run['elapsed']:.0f}s",
    )
    assert report.calibration.linearity_error <= 0.03
    assert err <= 0.05
    assert gradient_run["elapsed"] <= 1200.0
    # the distance table and a verdict are emitted
    assert set(dist) == {"plus_one", "plus_a3_squared", "predicted"}
    assert report.variant_verdict in ("plus_one", "plus_a3_squared", "calibration-only")


def test_criterion_06b_gradient_best_closed_form(gradient_run):
    """Printed-variant clause, asserted as stated.

    This fails: the closed-form order-1 coefficient table drops the depth-linear
    (Jordan) term of the solution family, so its coefficients are wrong for
    every probe with a normal component, and no closed-form design matrix
    reproduces the oracle ladders. The calibrated and family-energy matrices
    do (see 06a and the distance table).
    """
    report = gradient_run["report"]
    want = np.array([0.3, 0.2])
    errs = {}
    for mode in ("plus_one", "plus_a3_squared"):
        r = report.order_m[mode]
        errs[mode] = float(np.abs(np.array([r.dlam, r.dmu]) - want).max() / want.max())
    best = min(errs.values())
    ok = best <= 0.10
    record_criterion(
        "06b order-1 best closed-form variant", ok,
        f"best closed-form error {best:.1%} (plus_one {errs['plus_one']:.1%}, "
        f"plus_a3_squared {errs['plus_a3_squared']:.1%}); the table drops "
        f"the solution-family depth term",
    )
    assert best <= 0.10, (
        f"best closed-form-variant recovery error {best:.1%} > 10%: "
        f"plus_one -> ({report.order_m['plus_one'].dlam:.4f}, "
        f"{report.order_m['plus_one'].dmu:.4f}), plus_a3_squared -> "
        f"({report.order_m['plus_a3_squared'].dlam:.4f}, "
        f"{report.order_m['plus_a3_squared'].dmu:.4f}); ground truth (0.3, 0.2). "
        f"The calibrated matrix recovers it (see criterion 06a) and the "
        f"family-energy prediction matches the calibration, so the defect is "
        f"in the coefficient table, not the solver."
    )


def test_criterion_07_residual_decay(gauss):
    results = {}
    for m, prof in ((0, LameProfile.constant(1.0, 1.0)),
                    (1, LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2]))):
        probes = [ProbeSpec(np.array([0, 0, 1.0]), E1, n, 4, m, gauss) for n in LADDER]
        fit = residual_decay(probes, prof)
        target = 2.0 - m - 0.25
        results[m] = (fit.slope, target)
        assert fit.fd_disagreement < 0.05
    ok = all(abs(s - t) <= 0.2 for s, t in results.values())
    record_criterion(
        "07 ansatz residual decay", ok,
        ", ".join(f"m={m}: slope {s:.3f} vs {t:g}" for m, (s, t) in results.items()),
    )
    for m, (s, t) in results.items():
        assert abs(s - t) <= 0.2, f"m={m}: slope {s} vs target {t}"


def test_criterion_08_limit_quadrature():
    vals = {}
    for k in (1, 2):
        vals[k] = limit_quadrature(lambda y, k=k: y**k, [0.0] * k, k, 256)
    target = 0.25
    ok = all(abs(v - target) <= 0.02 * target for v in vals.values())
    record_criterion(
        "08 limit-lemma quadrature", ok,
        ", ".join(f"k={k}: {v:.5f}" for k, v in vals.items()) + " vs 0.25",
    )
    for k, v in vals.items():
        assert v == pytest.approx(target, rel=0.02)


def test_criterion_09_geometry_algebra():
    rng = np.random.default_rng(109)
    worst_metric, worst_block = 0.0, 0.0
    for surface in (SpherePatch(2.0), ParaboloidPatch(1.0, 0.7, radius=0.6)):
        chart = build_chart(surface, depth=0.45)
        for _ in range(40):
            y = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                          rng.uniform(0.0, 0.4)])
            G = chart.metric(y)
            worst_metric = max(worst_metric, abs(G[2, 2] - 1.0), abs(G[0, 2]), abs(G[1, 2]))
            pt = push_forward(1.5, 0.8, chart, y)
            zeta = rng.standard_normal(2)
            ref = pt.reference_blocks(zeta)
            worst_block = max(
                worst_block,
                float(np.abs(pt.t_block() - ref["T"]).max()),
                float(np.abs(pt.r_block(zeta) - ref["R"]).max()),
                float(np.abs(pt.q_block(zeta) - ref["Q"]).max()),
            )
    flat = build_chart(FlatPatch(), depth=0.5)
    a = (0.3, -0.2, 1.0)
    flat_defect = 0.0
    for variant in ("plus_one", "plus_a3_squared"):
        v = first_order_nonflat(flat, 1.0, 1.0, 0.3, 0.2, a, E1, variant=variant)
        flat_defect = max(flat_defect, abs(v - closed_form_response(a, E1, 1, 0.3, 0.2, variant)))
    ok = worst_block <= 1e-10 and worst_metric <= 1e-8 and flat_defect == 0.0
    record_criterion(
        "09 curved-boundary algebra", ok,
        f"blocks {worst_block:.1e}, metric {worst_metric:.1e}, flat reduction "
        f"defect {flat_defect:.1e}",
    )
    assert worst_block <= 1e-10
    assert worst_metric <= 1e-8
    assert flat_defect == 0.0


def test_criterion_10_pairing_realness(hom21_order0, gradient_run):
    worst_im = 0.0
    min_re = np.inf
    ladders = list(hom21_order0["ladders"]) + list(gradient_run["report"].order0_ladders)
    for lr in ladders:
        for v in lr.values:
            min_re = min(min_re, v.real)
            worst_im = max(worst_im, abs(v.imag) / max(abs(v.real), 1e-300))
    ok = min_re > 0.0 and worst_im <= 1e-8
    record_criterion(
        "10 pairing realness/positivity", ok,
        f"min Re {min_re:.4f}, max |Im|/Re {worst_im:.2e} over {len(ladders)} ladders",
    )
    assert min_re > 0.0
    assert worst_im <= 1e-8


def test_criterion_11_determinism(tmp_path):
    from lame_edge.cli import main

    identical = True
    details = []
    for name in ("homogeneous", "gradient"):
        cfg = str(REPO / "configs" / f"{name}.json")
        outs = []
        codes = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}"
            codes.append(main(["reconstruct", "--config", cfg, "--out", str(out)]))
            outs.append(out)
        same = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("report.json", "ladders.csv")
        ) and codes[0] == codes[1]
        identical = identical and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'} (exit {codes[0]})")
        report = json.loads((outs[0] / "report.json").read_text())
        assert "variant_verdict" in report
    record_criterion("11 determinism", identical, "; ".join(details))
    assert identical
