"""Workload inputs, output checks and accuracy metrics.

Pure functions on plain data (no ``lame_edge`` import), so the parent
process stays light and the logic is unit-tested in ``perfbench/tests``.

Operations: one ladder, or one recovery solve (the order-0 solve and each
order-m design-matrix mode), plus one determinism check for every pass after
the first of a run. A raised ``ForwardError``, ``CalibrationError`` or
``BatteryError`` or a failed output check fails the operation.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("reconstruct-gradient", "reconstruct-homogeneous", "forward-sweep")
BUNDLED = {
    "reconstruct-gradient": "configs/gradient.json",
    "reconstruct-homogeneous": "configs/homogeneous.json",
}

# forward-sweep inputs
SWEEP_PROFILES = 2
SWEEP_ORDERS = (0, 1, 2)
SWEEP_H_MAX = 2.0  # admissibility interval [0, H_max] of the forward frame
SWEEP_CONFIG = {
    "version": 1,
    "order": 2,
    "ladder": [16, 32, 64, 128, 256],
    "rho_tilde": None,  # per-order default: 4 for m <= 1, 5 for m = 2
    "probes": {"kinds": ["e3", "tangent", "sigma1"],
               "directions": [[1.0, 0.0], [0.0, 1.0]]},
    "cutoff": {"kind": "gaussian", "sigma": 1.0 / 3.0},
    "quadrature": {"nodes": 96, "tail_tol": 1e-08, "riccati_tol": 1e-10},
}
N_PROBES = 6

# output-check tolerances (fixed in advance, not fitted to the seed)
REALNESS_TOL = 1e-8       # criterion 10: |Im| / Re of every order-0 pairing
LIMIT_RTOL = 0.05         # order-0 ladder limit vs a^H Z(lam(0), mu(0)) a
ORDER1_RTOL = 0.05        # order-1 ladder limit vs the family-energy prediction
NEXT_ORDER_FACTOR = 2.0   # ... plus this many order-2 terms at the top of the ladder


# ---------------------------------------------------------------------------
# forward-sweep generator
# ---------------------------------------------------------------------------


def poly_min(coeffs, H: float) -> float:
    """Exact minimum of a polynomial of degree <= 2 on [0, H].

    Endpoints and, for an upward parabola, the vertex when it lies inside.
    """
    c = list(coeffs) + [0.0] * (3 - len(coeffs))
    if len(coeffs) > 3 or any(x != 0.0 for x in c[3:]):
        raise ValueError("degree <= 2 only")
    c0, c1, c2 = c[:3]
    vals = [c0, c0 + c1 * H + c2 * H * H]
    if c2 > 0.0:
        v = -c1 / (2.0 * c2)
        if 0.0 < v < H:
            vals.append(c0 + c1 * v + c2 * v * v)
    return min(vals)


def admissible(lam, mu, H: float = SWEEP_H_MAX) -> bool:
    """mu > 0 and 3 lam + 2 mu > 0 on [0, H]."""
    n = max(len(lam), len(mu))
    lam = list(lam) + [0.0] * (n - len(lam))
    mu = list(mu) + [0.0] * (n - len(mu))
    bulk = [3.0 * a + 2.0 * b for a, b in zip(lam, mu)]
    return poly_min(mu, H) > 0.0 and poly_min(bulk, H) > 0.0


def sweep_profiles(seed: int, count: int = SWEEP_PROFILES):
    """``count`` distinct admissible quadratic profiles drawn from ``seed``.

    Surface values near (1.5, 1), first derivatives up to 0.3, second
    derivatives 0.04-0.2 in magnitude; coefficients rounded to 4 decimals so
    the config files carry them exactly.
    """
    rng = np.random.default_rng(seed)

    def quad(c0_lo, c0_hi, c1, c2_lo, c2_hi):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return [round(float(rng.uniform(c0_lo, c0_hi)), 4),
                round(float(rng.uniform(-c1, c1)), 4),
                round(sign * float(rng.uniform(c2_lo, c2_hi)), 4)]

    out = []
    while len(out) < count:
        lam = quad(1.3, 1.7, 0.3, 0.02, 0.1)
        mu = quad(0.9, 1.1, 0.2, 0.02, 0.06)
        if admissible(lam, mu) and (lam, mu) not in out:
            out.append((lam, mu))
    return out


def sweep_config(lam, mu) -> dict:
    cfg = dict(SWEEP_CONFIG)
    cfg["profile"] = {"lambda": list(lam), "mu": list(mu), "m": 2, "p": 0.9}
    return cfg


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------


def planned_ops(workload: str, cfg: dict | None = None) -> int:
    """Operations one pass attempts."""
    if workload == "forward-sweep":
        return SWEEP_PROFILES * len(SWEEP_ORDERS) * N_PROBES
    order = cfg["order"]
    ladders = N_PROBES * (2 if order >= 1 else 1)
    solves = 1
    if order >= 1:
        ladders += 3 * N_PROBES if cfg.get("calibrate", True) else 0
        solves += 3 + (1 if cfg.get("calibrate", True) else 0)
    return ladders + solves


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def ladder_failures(rec: dict) -> list[str]:
    """Checks every ladder passes; order 0 also criterion 10 and its limit."""
    vals = np.array(rec["re"]) + 1j * np.array(rec["im"])
    name = f"{rec['probe']} m={rec['m']} profile {rec['profile']}"
    if not np.all(np.isfinite(vals)) or not math.isfinite(rec["limit_re"]):
        return [f"{name}: non-finite ladder"]
    out = []
    if rec["m"] == 0:
        if np.min(vals.real) <= 0.0:
            out.append(f"{name}: non-positive pairing")
        elif np.max(np.abs(vals.imag) / vals.real) > REALNESS_TOL:
            out.append(f"{name}: |Im|/Re above {REALNESS_TOL:g}")
        if _rel(rec["limit_re"], rec["reference"]) > LIMIT_RTOL:
            out.append(f"{name}: limit {rec['limit_re']:.6g} vs a^H Z a "
                       f"{rec['reference']:.6g} beyond {LIMIT_RTOL:.0%}")
    return out


def order1_failures(ladders) -> list[tuple[int, str]]:
    """Order-1 limits against the family-energy prediction, per profile.

    Returns (index into ``ladders``, message) pairs. The allowance is
    ``ORDER1_RTOL`` of the battery's largest order-1 size plus
    ``NEXT_ORDER_FACTOR`` times the order-2 term at the top of the ladder,
    the first term the extrapolation has to remove: with a small first
    derivative and a large second one, that term dominates the error.
    """
    out = []
    for p in sorted({r["profile"] for r in ladders}):
        rows = [(i, r) for i, r in enumerate(ladders) if r["m"] == 1 and r["profile"] == p]
        if not rows:
            continue
        allowance = (ORDER1_RTOL * max(r["scale"] for _, r in rows)
                     + NEXT_ORDER_FACTOR * max(r.get("next_order", 0.0) / max(r["N"])
                                               for _, r in rows))
        for i, r in rows:
            if abs(r["limit_re"] - r["reference"]) > allowance:
                out.append((i, f"{r['probe']} m=1 profile {p}: limit {r['limit_re']:.6g} "
                               f"vs prediction {r['reference']:.6g} beyond {allowance:.3g}"))
    return out


def limit_err(ladders) -> float:
    """max over order-0 ladders of |limit - a^H Z a| / |a^H Z a|."""
    errs = [_rel(r["limit_re"], r["reference"]) for r in ladders if r["m"] == 0]
    return max(errs) if errs else math.nan


def truth(cfg: dict) -> dict:
    """Surface values and first derivatives of the config's polynomial profile."""
    lam, mu = cfg["profile"]["lambda"], cfg["profile"]["mu"]
    return {"lam": lam[0], "mu": mu[0],
            "dlam": lam[1] if len(lam) > 1 else 0.0,
            "dmu": mu[1] if len(mu) > 1 else 0.0}


def check_reconstruct(cfg: dict, out: dict) -> dict:
    """Failed operations and accuracy metrics of one reconstruct pass."""
    planned = planned_ops("reconstruct", cfg)
    if out.get("error"):
        return {"failed": planned, "failures": [out["error"]], "metrics": {}}
    failures = []
    failed = 0
    for rec in out["ladders"]:
        msgs = ladder_failures(rec)
        failed += bool(msgs)
        failures += msgs
    want = truth(cfg)
    expect = cfg.get("expect", {})
    o0 = out["order0"]
    order0_err = max(_rel(o0["lam"], want["lam"]), _rel(o0["mu"], want["mu"]))
    o0_fail = [] if o0["ok"] else ["order-0 solve flagged not ok"]
    if "lambda" in expect:
        rtol = expect.get("order0_rtol", 0.03)
        for key, name in (("lam", "lambda"), ("mu", "mu")):
            if name in expect and _rel(o0[key], expect[name]) > rtol:
                o0_fail.append(f"order-0 {name} {o0[key]:.6g} vs {expect[name]:g} "
                               f"beyond {rtol:g}")
    failed += bool(o0_fail)
    failures += o0_fail

    metrics = {"order0_err": order0_err, "limit_err": limit_err(out["ladders"])}
    modes = out["order_m"]
    if "dlam" in expect and modes:
        target = np.array([expect["dlam"], expect["dmu"]])
        if np.allclose(target, 0.0):
            factor = expect.get("null_noise_factor", 3.0)
            for mode, r in modes.items():
                est = np.array([r["dlam"], r["dmu"]])
                nb = np.maximum(np.asarray(r["noise_bound"]), 1e-12)
                if np.any(np.abs(est) > factor * nb):
                    failed += 1
                    failures.append(f"null test [{mode}]: {est.tolist()} above "
                                    f"{factor:g} x noise {nb.tolist()}")
        else:
            scale = np.abs(target).max()
            if "calibrated" in modes:
                r = modes["calibrated"]
                err = np.abs(np.array([r["dlam"], r["dmu"]]) - target).max() / scale
                if err > expect.get("rtol_calibrated", 0.05):
                    failed += 1
                    failures.append(f"calibrated order-1 error {err:.2%}")
            # criterion 06b fails by design of the closed-form table: a metric,
            # never a failed operation
            metrics["closed_form_err"] = min(
                float(np.abs(np.array([modes[v]["dlam"], modes[v]["dmu"]]) - target).max()
                      / scale)
                for v in ("plus_one", "plus_a3_squared") if v in modes)
    if "calibrated" in modes:
        r = modes["calibrated"]
        metrics["order1_err"] = max(abs(r["dlam"] - want["dlam"]),
                                    abs(r["dmu"] - want["dmu"]))
    return {"failed": failed, "failures": failures, "metrics": metrics}


def check_sweep(out: dict) -> dict:
    """Failed operations and ``limit_err`` of one forward-sweep pass."""
    failures = [f"{e['probe']} m={e['m']} profile {e['profile']}: {e['error']}"
                for e in out["ladder_errors"]]
    bad = set()
    for i, rec in enumerate(out["ladders"]):
        msgs = ladder_failures(rec)
        if msgs:
            bad.add(i)
            failures += msgs
    for i, msg in order1_failures(out["ladders"]):
        bad.add(i)
        failures.append(msg)
    return {"failed": len(out["ladder_errors"]) + len(bad), "failures": failures,
            "metrics": {"limit_err": limit_err(out["ladders"])}}


def check_pass(workload: str, cfg: dict | None, out: dict) -> dict:
    if workload == "forward-sweep":
        return check_sweep(out)
    return check_reconstruct(cfg, out)


def determinism_failures(hashes) -> int:
    """Passes whose ladder hash differs from the first pass of the run."""
    return sum(1 for h in hashes[1:] if h != hashes[0])


def count_ops(planned_per_pass: int, pass_failed, hashes) -> tuple[int, int]:
    """(attempted, failed) over a run: every pass plus the determinism checks."""
    attempted = planned_per_pass * len(pass_failed) + max(0, len(hashes) - 1)
    failed = sum(pass_failed) + determinism_failures(hashes)
    return attempted, failed
