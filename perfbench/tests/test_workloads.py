"""Operation counting, output checks and the forward-sweep generator.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads as wl  # noqa: E402

GRADIENT = {
    "profile": {"lambda": [1.0, 0.3], "mu": [1.0, 0.2], "m": 2, "p": 0.9},
    "order": 1, "calibrate": True,
    "expect": {"dlam": 0.3, "dmu": 0.2, "rtol_calibrated": 0.05,
               "rtol_best_closed_form": 0.10},
}
HOMOGENEOUS = {
    "profile": {"lambda": [2.0], "mu": [1.0], "m": 2, "p": 0.9},
    "order": 1, "calibrate": True,
    "expect": {"lambda": 2.0, "mu": 1.0, "order0_rtol": 0.02, "dlam": 0.0, "dmu": 0.0,
               "null_noise_factor": 3.0},
}


def ladder(m, limit, reference, probe="e3@(1,0)", profile=0, im=0.0, scale=None,
           next_order=0.0):
    vals = [limit * (1 + 0.01 / n) for n in (1, 2, 3, 4, 5)]
    rec = {"profile": profile, "probe": probe, "m": m, "N": [16, 32, 64, 128, 256],
           "re": vals, "im": [im] * 5, "limit_re": limit, "limit_im": 0.0,
           "flag": "structured", "noise": 1e-5, "reference": reference}
    if m >= 1:
        rec["scale"] = abs(reference) if scale is None else scale
        rec["next_order"] = next_order
    return rec


def reconstruct_output(order0=(0.9976, 1.0002), modes=None):
    modes = modes or {
        "plus_one": (0.786, 0.193), "plus_a3_squared": (0.742, 0.342),
        "predicted": (0.292, 0.200), "calibrated": (0.2996, 0.19997),
    }
    return {
        "error": None,
        "ladders": [ladder(0, 1.47, 1.5), ladder(0, 0.99, 1.0), ladder(1, 0.3, 0.31)],
        "order0": {"lam": order0[0], "mu": order0[1], "method": "grid+newton", "ok": True},
        "order_m": {k: {"dlam": v[0], "dmu": v[1], "noise_bound": [1e-4, 1e-5]}
                    for k, v in modes.items()},
    }


def test_planned_ops():
    # 6 order-0 + 6 order-1 + 18 calibration ladders; order-0 solve + 4 modes
    assert wl.planned_ops("reconstruct-gradient", GRADIENT) == 35
    assert wl.planned_ops("forward-sweep") == 2 * 3 * 6


def test_count_ops_adds_determinism_checks():
    assert wl.count_ops(35, [0, 0], ["h", "h"]) == (71, 0)
    assert wl.count_ops(35, [0, 2, 0], ["h", "x", "h"]) == (35 * 3 + 2, 3)


def test_closed_form_reported_not_failed():
    got = wl.check_reconstruct(GRADIENT, reconstruct_output())
    assert got["failed"] == 0, got["failures"]
    assert got["metrics"]["closed_form_err"] == pytest.approx((0.742 - 0.3) / 0.3)
    assert got["metrics"]["order1_err"] == pytest.approx(0.0004)
    assert got["metrics"]["order0_err"] == pytest.approx(0.0024)
    assert got["metrics"]["limit_err"] == pytest.approx(0.02)


def test_calibrated_error_fails_one_op():
    out = reconstruct_output(modes={"plus_one": (0.8, 0.2), "calibrated": (0.33, 0.2)})
    got = wl.check_reconstruct(GRADIENT, out)
    assert got["failed"] == 1
    assert "calibrated" in got["failures"][0]


def test_null_test_and_order0_expectations():
    zero = {k: (0.0, 0.0) for k in ("plus_one", "plus_a3_squared", "predicted",
                                    "calibrated")}
    out = reconstruct_output(order0=(1.995, 1.0002), modes=zero)
    got = wl.check_reconstruct(HOMOGENEOUS, out)
    assert got["failed"] == 0
    assert "closed_form_err" not in got["metrics"]
    assert got["metrics"]["order1_err"] == 0.0

    out = reconstruct_output(order0=(1.95, 1.0), modes={**zero, "predicted": (1e-3, 0.0)})
    got = wl.check_reconstruct(HOMOGENEOUS, out)
    assert got["failed"] == 2  # order-0 solve beyond 2 %, one null-test mode
    assert len(got["failures"]) == 2


def test_raised_error_fails_every_op():
    got = wl.check_reconstruct(GRADIENT, {"error": "ForwardError: stiff"})
    assert got["failed"] == wl.planned_ops("reconstruct-gradient", GRADIENT)


def test_ladder_checks():
    assert wl.ladder_failures(ladder(0, 1.47, 1.5)) == []
    assert wl.ladder_failures(ladder(0, 1.40, 1.5))          # limit beyond 5 %
    assert wl.ladder_failures(ladder(0, 1.47, 1.5, im=1e-6))  # criterion 10
    bad = ladder(1, 0.3, 0.3)
    bad["re"][2] = float("nan")
    assert wl.ladder_failures(bad)


def test_sweep_counts_each_bad_ladder_once():
    out = {
        "ladder_errors": [{"profile": 1, "probe": "e3@(1,0)", "m": 2, "error": "x"}],
        "ladders": [ladder(0, 1.47, 1.5), ladder(0, 1.2, 1.5, im=1.0),
                    ladder(1, 0.2, 0.2, probe="e3"), ladder(1, 0.05, 0.1, probe="t"),
                    ladder(2, 0.13, 0.1)],
    }
    got = wl.check_sweep(out)
    # one raised error; ladder 1 fails two checks but counts once; ladder 3
    # is 0.05 off a battery scale of 0.2
    assert got["failed"] == 3
    assert got["metrics"]["limit_err"] == pytest.approx(0.2)


def test_order1_allowance_scales_with_the_next_order_term():
    # a first derivative near zero: predictions tiny, while the order-2 term
    # (size 0.1, i.e. 0.1 / 256 at the top of the ladder) sets the error
    rows = [ladder(1, 0.0050, 0.0055, probe="t", scale=0.006, next_order=0.1),
            ladder(1, -0.0038, -0.0042, probe="s", scale=0.005, next_order=0.1)]
    assert wl.order1_failures(rows) == []
    rows[0]["next_order"] = rows[1]["next_order"] = 0.0
    assert [i for i, _ in wl.order1_failures(rows)] == [0, 1]
    # cancellation between the moduli does not shrink the allowance
    rows = [ladder(1, 0.011, 0.0, probe="t", scale=0.3)]
    assert wl.order1_failures(rows) == []


def test_poly_min_is_exact_between_samples():
    # mu = 1 - 2y + c y^2 has its minimum 1 - 1/c at y = 1/c inside [0, 2]
    assert wl.admissible([1.0], [1.0, -2.0, 1.0001])
    assert not wl.admissible([1.0], [1.0, -2.0, 0.9999])
    assert wl.poly_min([1.0, -2.0, 1.0001], 2.0) == pytest.approx(1 - 1 / 1.0001)
    assert wl.poly_min([2.0, 0.5, -0.5], 2.0) == pytest.approx(1.0)  # at y = H
    with pytest.raises(ValueError):
        wl.poly_min([1.0, 0.0, 0.0, 1.0], 2.0)


def test_bulk_modulus_condition():
    # 3 lam + 2 mu <= 0 somewhere, although mu stays positive
    assert not wl.admissible([-0.5, -0.5], [1.0])


def test_sweep_profiles_seeded_distinct_admissible():
    a = wl.sweep_profiles(7)
    assert a == wl.sweep_profiles(7)
    assert a != wl.sweep_profiles(8)
    assert len(a) == wl.SWEEP_PROFILES and a[0] != a[1]
    for lam, mu in a:
        assert len(lam) == len(mu) == 3 and lam[2] != 0.0 and mu[2] != 0.0
        assert wl.admissible(lam, mu)
