"""One benchmark pass in a fresh Python process.

Usage (from the repository root, normally started by ``perfbench/run.py``):

    python3 perfbench/worker.py --workload NAME --config PATH [--config PATH ...]
        --spawned-at MONOTONIC --mode {setup,pass,traced} --out RESULT.json
        [--spans SPANS.csv.gz]

Set-up is the import of ``lame_edge``, config loading through the CLI layer
and profile construction; ``setup_s`` runs from ``--spawned-at`` (the
parent's ``time.monotonic()`` just before it started this process; the clock
is system-wide) to the end of set-up. ``wall_s`` runs from the end of set-up
until the workload's results are in hand. Reference values for the output
checks are computed after the timed region, with tracing removed.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from lame_edge import ansatz, cli, elastic, forward, geometry, reconstruct, stroh
from lame_edge.forward import ForwardError
from lame_edge.reconstruct import BatteryError, CalibrationError

import spans as spanlib
import workloads as wl

FAILURES = (ForwardError, CalibrationError, BatteryError)

FLAGS = ("structured", "converged", "noise_floor", "fit", "fixed_rate")


# ---------------------------------------------------------------------------
# tracing at the layer boundaries
# ---------------------------------------------------------------------------


def content_key(profile) -> tuple:
    """Coefficients with trailing zeros dropped; identity for non-polynomials."""
    if not profile.is_polynomial:
        return ("id", id(profile))

    def trim(cs):
        cs = list(cs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        return tuple(cs)

    return trim(profile.lam_coeffs), trim(profile.mu_coeffs)


# (module, function, layer): traced under every name the function is bound
# to; the span carries the layer's name, which the metric names start with
TRACED = (
    ("cli", "load_config", "cli.load_config"),
    ("elastic", "validate_admissibility", "elastic.admissibility"),
    ("elastic", "taylor_truncate", "elastic.truncate"),
    ("stroh", "impedance", "stroh.impedance"),
    ("stroh", "quadratic_form", "stroh.quadratic_form"),
    ("forward", "warm_tables", "forward.warm_tables"),
    ("forward", "pairing", "forward.pairing"),
    ("forward", "difference_pairing", "forward.difference_pairing"),
    ("reconstruct", "reconstruct_profile", "reconstruct.profile"),
    ("reconstruct", "run_ladder", "reconstruct.ladder"),
    ("reconstruct", "extrapolate", "reconstruct.extrapolate"),
    ("reconstruct", "refine_order0", "reconstruct.order0"),
    ("reconstruct", "recover_order0", "reconstruct.order0"),
    ("reconstruct", "homogeneous_pairing_value", "reconstruct.homogeneous_pairing"),
    ("reconstruct", "recover_order_m", "reconstruct.order_m"),
    ("reconstruct", "calibrate_order_m", "reconstruct.calibration"),
)
# (module, class, method, layer)
TRACED_METHODS = (
    ("forward", "RadialDtnTable", "__init__", "forward.table"),
    ("ansatz", "ProbeSpec", "__post_init__", "ansatz.probe_spec"),
    ("ansatz", "GaussianCutoff", "fourier_radial", "ansatz.cutoff"),
    ("ansatz", "GaussianCutoff", "spectral_halfwidth", "ansatz.cutoff"),
    ("ansatz", "BumpCutoff", "fourier_radial", "ansatz.cutoff"),
    ("ansatz", "BumpCutoff", "spectral_halfwidth", "ansatz.cutoff"),
)


def install_tracing(tracer: spanlib.Tracer) -> list[str]:
    """Wrap the layer boundaries; returns the names not found (left untraced).

    A function or method that a later version removes or renames is skipped,
    so its metrics read zero instead of the traced pass failing.
    """
    modules = {m.__name__.rsplit(".", 1)[-1]: m
               for m in (ansatz, cli, elastic, forward, geometry, reconstruct, stroh)}

    def on_extrapolate(args, kwargs, result):
        tracer.counters[f"flag.{result.flag}"] += 1

    def on_order0_solve(args, kwargs, result):
        tracer.counters["order0_solves"] += 1
        tracer.counters["grid_fallbacks"] += result.method == "grid+newton"

    def on_calibration(args, kwargs, result):
        tracer.values["linearity_err"] = max(
            tracer.values.get("linearity_err", 0.0), result.linearity_error)

    def on_table(args, kwargs, result):
        call = spanlib.bound_arguments(forward.RadialDtnTable.__init__, args, kwargs)
        table, profile = call.pop("self"), call.pop("profile")
        k_max = float(call.pop("k_max"))
        settings = tuple(sorted((k, repr(v)) for k, v in call.items()))
        tracer.builds.append((id(profile), content_key(profile), settings, k_max))
        tracer.counters["table_nodes"] += int(table.nodes.size)
        tracer.keep_alive.append(profile)

    hooks = {
        "extrapolate": on_extrapolate,
        "recover_order0": on_order0_solve,
        "calibrate_order_m": on_calibration,
        "RadialDtnTable.__init__": on_table,
    }
    missing = []
    for mod, attr, layer in TRACED:
        fn = getattr(modules[mod], attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        tracer.patch_function(modules.values(), fn, layer, hooks.get(attr))
    for mod, cls_name, attr, layer in TRACED_METHODS:
        cls = getattr(modules[mod], cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
            continue
        tracer.patch_method(cls, attr, layer, hooks.get(f"{cls_name}.{attr}"))
    return missing


def layer_metrics(tracer: spanlib.Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans = tracer.spans
    tot = spanlib.layer_totals(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(layer, key):
        return tot.get(layer, zero)[key]

    out: dict[str, float] = {}
    for layer in ("stroh.impedance", "stroh.quadratic_form", "forward.pairing",
                  "forward.difference_pairing", "reconstruct.homogeneous_pairing",
                  "reconstruct.order_m", "elastic.admissibility", "ansatz.cutoff",
                  "ansatz.probe_spec"):
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.s"] = get(layer, "s")
    out["cli.load_config.s"] = get("cli.load_config", "s")
    out["reconstruct.order0.s"] = get("reconstruct.order0", "s")
    out["reconstruct.order0.self_s"] = get("reconstruct.order0", "self_s")
    out["reconstruct.order0.solves"] = tracer.counters["order0_solves"]
    out["reconstruct.order0.grid_fallbacks"] = tracer.counters["grid_fallbacks"]
    out["reconstruct.ladder.calls"] = get("reconstruct.ladder", "calls")
    out["reconstruct.ladder.self_s"] = get("reconstruct.ladder", "self_s")
    out["reconstruct.extrapolate.calls"] = get("reconstruct.extrapolate", "calls")
    for flag in FLAGS:
        out[f"reconstruct.extrapolate.flag.{flag}"] = tracer.counters[f"flag.{flag}"]
    out["reconstruct.calibration.s"] = get("reconstruct.calibration", "s")
    out["reconstruct.calibration.table_builds"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "forward.table"
        and spanlib.has_ancestor(spans, i, "reconstruct.calibration"))
    out["reconstruct.calibration.linearity_err"] = tracer.values.get("linearity_err", 0.0)
    builds = spanlib.classify_builds(tracer.builds)
    out["forward.table.builds"] = builds["builds"]
    out["forward.table.s"] = get("forward.table", "s")
    out["forward.table.nodes"] = tracer.counters["table_nodes"]
    out["forward.table.duplicates"] = builds["duplicates"]
    out["forward.table.rebuilds"] = builds["rebuilds"]
    out["forward.table.useful_ratio"] = (
        builds["distinct"] / builds["builds"] if builds["builds"] else 1.0)
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def ladder_record(lr, profile_index: int) -> dict:
    return {
        "profile": profile_index,
        "probe": lr.template.name,
        "m": int(lr.m),
        "N": [int(n) for n in lr.N_values],
        "re": [float(v.real) for v in lr.values],
        "im": [float(v.imag) for v in lr.values],
        "limit_re": float(lr.limit.real),
        "limit_im": float(lr.limit.imag),
        "flag": lr.extrapolation.flag,
        "noise": float(lr.noise),
    }


def ladder_hash(ladders) -> str:
    h = hashlib.sha256()
    for lr in ladders:
        h.update(f"{lr.template.name}|{lr.m}|".encode())
        h.update(np.ascontiguousarray(lr.values, dtype=np.complex128).tobytes())
    return h.hexdigest()


def run_reconstruct(cfg, profile, battery, cutoff, quad):
    """The ``reconstruct`` subcommand's library call, serial runner."""
    try:
        report = reconstruct.reconstruct_profile(
            profile, cfg["order"], cfg["ladder"], battery=battery, cutoff=cutoff,
            rho_tilde=cfg.get("rho_tilde"), quad=quad,
            calibrate=cfg.get("calibrate", True),
        )
    except FAILURES as e:
        return None, f"{type(e).__name__}: {e}"
    return report, None


def reconstruct_output(report, error):
    if report is None:
        return {"error": error}
    ladders = list(report.order0_ladders) + list(report.order_m_ladders)
    cal_ladders = []
    if report.calibration is not None:
        for key in ("lam", "mu", "mixed"):
            cal_ladders.extend(report.calibration.ladders.get(key, []))
    return {
        "error": None,
        "ladders": [ladder_record(lr, 0) for lr in ladders],
        "order0": {"lam": report.order0.lam, "mu": report.order0.mu,
                   "method": report.order0.method, "ok": report.order0.ok},
        "order_m": {mode: {"dlam": r.dlam, "dmu": r.dmu,
                           "noise_bound": list(r.noise_bound)}
                    for mode, r in report.order_m.items()},
        "hash": ladder_hash(ladders + cal_ladders),
    }


def run_sweep(cfgs, profiles, battery, cutoff, quad):
    """Forward oracle only: order-0, -1 and -2 ladders for each profile."""
    results = []
    for i, (cfg, profile) in enumerate(zip(cfgs, profiles)):
        for m in wl.SWEEP_ORDERS:
            for template in battery:
                try:
                    lr = reconstruct.run_ladder(profile, template, cfg["ladder"], m,
                                                cutoff=cutoff, rho_tilde=None, quad=quad)
                except FAILURES as e:
                    results.append((i, template, m, None, f"{type(e).__name__}: {e}"))
                    continue
                results.append((i, template, m, lr, None))
    return results


def sweep_output(results):
    done = [lr for _, _, _, lr, _ in results if lr is not None]
    return {
        "ladders": [ladder_record(lr, i) for i, _, _, lr, _ in results if lr is not None],
        "ladder_errors": [{"profile": i, "probe": t.name, "m": m, "error": err}
                          for i, t, m, lr, err in results if lr is None],
        "hash": ladder_hash(done),
    }


def add_references(output: dict, profiles, battery) -> None:
    """Reference limits for the output checks, from the surface moduli.

    Order 0: the impedance form a^H Z(lam(0), mu(0)) a. Order m >= 1: the
    family-energy prediction for (d^m lam(0), d^m mu(0)), with ``scale``, its
    size without cancellation between the two moduli, and ``next_order``, the
    same size of the order-(m+1) term that the finite ladder also carries.
    """
    by_name = {t.name: t for t in battery}
    for rec in output.get("ladders", []):
        prof = profiles[rec["profile"]]
        t = by_name[rec["probe"]]
        lam0, mu0 = float(prof.lam(0.0)), float(prof.mu(0.0))
        m = rec["m"]
        if m == 0:
            rec["reference"] = stroh.quadratic_form(stroh.impedance(lam0, mu0, t.omega), t.a)
            continue

        def size(order):
            dl, dm = float(prof.lam(0.0, order)), float(prof.mu(0.0, order))
            parts = [reconstruct.leading_order_response(t.a, t.omega, order, a, b, lam0, mu0)
                     for a, b in ((dl, 0.0), (0.0, dm))]
            return sum(parts), abs(parts[0]) + abs(parts[1])

        rec["reference"], rec["scale"] = size(m)
        if m + 1 <= prof.max_derivative_order:
            rec["next_order"] = size(m + 1)[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--config", action="append", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        tracer = spanlib.Tracer(pass_id=Path(args.out).stem)
        untraced = install_tracing(tracer)
    cfgs = [cli.load_config(path) for path in args.config]
    profiles = [cli.profile_from_config(cfg) for cfg in cfgs]
    battery = cli.battery_from_config(cfgs[0])
    cutoff = cli.cutoff_from_config(cfgs[0])
    quad = cli.quad_from_config(cfgs[0])
    t_setup = time.monotonic()
    result = {"setup_s": t_setup - args.spawned_at}
    if tracer is not None:
        result["untraced"] = untraced

    if args.mode != "setup":
        t0 = time.perf_counter()
        if args.workload == "forward-sweep":
            raw = run_sweep(cfgs, profiles, battery, cutoff, quad)
        else:
            raw = run_reconstruct(cfgs[0], profiles[0], battery, cutoff, quad)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer)
            result["spans"] = len(tracer.spans)
        output = (sweep_output(raw) if args.workload == "forward-sweep"
                  else reconstruct_output(*raw))
        add_references(output, profiles, battery)
        result["output"] = output
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None and args.spans:
        t_ref = tracer.spans[0][1] if tracer.spans else 0.0
        with gzip.open(args.spans, "wt", compresslevel=1, newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["pass_id", "index", "name", "start_us", "end_us", "parent"])
            for pass_id, i, name, start, end, parent in tracer.rows():
                w.writerow([pass_id, i, name, round((start - t_ref) * 1e6),
                            round((end - t_ref) * 1e6), parent])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
