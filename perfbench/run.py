"""Benchmark of the lame_edge reconstruct pipeline and its forward oracle.

Run from the repository root:

    python3 perfbench/run.py --workload reconstruct-gradient --seed 1 \
        --seconds 15 --trace 0

Each pass runs in a fresh Python process (tables are cached on profile
objects, so a warm process would hide their build cost), serially, with
BLAS/OpenMP threads pinned to 1. A run makes set-up-only processes and then
passes for as long as the next one, estimated by the median of those so far,
still ends within ``--seconds`` of the run's start; at least two passes (two
are needed for the determinism check). ``--trace 0`` reports the
end-to-end metrics as medians over the run; ``--trace 1`` runs one untraced
and one traced pass per pair and reports the per-layer metrics of the traced
pass. The last line of standard output is one JSON object; everything a run
measured (per-pass values, the environment record, check failures) also goes
to ``.perfbench/<workload>-seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_ONLY = 1          # extra set-up-only processes per untraced run
MIN_PASSES = 2
CHILD_TIMEOUT = 150.0   # seconds per child process
RUN_BUDGET = 165.0      # no new pass starts if it would end after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# printed by name on every run where they exist, not in BENCHMARK.json, whose
# end-to-end metrics must exist and be non-zero on every workload
EXTRA_UNITS = {"order0_err": "relative", "order1_err": "absolute",
               "closed_form_err": "relative", "ops_failed_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, configs, mode: str, out: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--mode", mode, "--out", str(out)]
    for c in configs:
        cmd += ["--config", str(c)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = child_env()
    t = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t)], env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            commit = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() \
                else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(Path("src").rglob("*.py")))
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def prepare(workload: str, seed: int, workdir: Path) -> tuple[list[Path], list[dict]]:
    """Config files of the workload (written to ``workdir`` when generated)."""
    if workload in wl.BUNDLED:
        path = Path(wl.BUNDLED[workload])
        return [path], [json.loads(path.read_text(encoding="utf-8"))]
    paths, cfgs = [], []
    for i, (lam, mu) in enumerate(wl.sweep_profiles(seed)):
        if not wl.admissible(lam, mu):
            raise BenchError(f"generated profile {i} is not admissible")
        cfg = wl.sweep_config(lam, mu)
        path = workdir / f"profile-{i}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
        cfgs.append(cfg)
    return paths, cfgs


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = Path(".perfbench") / f"{workload}-seed{seed}-trace{int(trace)}"
    if workdir.exists():  # a rerun of the same run replaces its outputs
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    configs, cfgs = prepare(workload, seed, workdir)
    start = time.monotonic()

    setups = []
    if not trace:
        for i in range(SETUP_ONLY):
            setups.append(spawn(workload, configs, "setup", workdir / f"setup-{i}.json")
                          ["setup_s"])
    plain, traced = [], []
    durations = []  # of the passes (pairs, when traced) so far, with their spawn
    while True:
        ends = time.monotonic() - start + (median(durations) if durations else 0.0)
        if durations and ends > (seconds if len(plain) + len(traced) >= MIN_PASSES
                                 else RUN_BUDGET):
            break
        t0 = time.monotonic()
        i = len(plain)
        plain.append(spawn(workload, configs, "pass", workdir / f"pass-{i}.json"))
        if trace:
            traced.append(spawn(workload, configs, "traced", workdir / f"traced-{i}.json",
                                spans=workdir / f"spans-{i}.csv.gz"))
        durations.append(time.monotonic() - t0)
    passes = plain + traced
    if len(passes) < MIN_PASSES:
        raise BenchError("run budget too small for two passes")

    checks = [wl.check_pass(workload, cfgs[0], p["output"]) for p in passes]
    planned = wl.planned_ops(workload, cfgs[0])
    hashes = [p["output"].get("hash") for p in passes]
    attempted, failed = wl.count_ops(planned, [c["failed"] for c in checks], hashes)
    setups += [p["setup_s"] for p in plain]

    accuracy = {}
    for key in ("limit_err", "order0_err", "order1_err", "closed_form_err"):
        vals = [c["metrics"][key] for c in checks if key in c["metrics"]]
        if vals:
            accuracy[key] = median(vals)
    if "limit_err" not in accuracy:
        raise BenchError("no pass produced order-0 ladders: "
                         + "; ".join(f for c in checks for f in c["failures"]))
    e2e = {
        "wall_s": median(p["wall_s"] for p in plain),
        "setup_s": median(setups),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        **accuracy,
        "ops_failed_frac": failed / attempted,
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "passes": [{k: v for k, v in p.items() if k != "output"} for p in passes],
        "setup_samples": setups,
        "hashes": hashes,
        "failures": [f for c in checks for f in c["failures"]],
        "untraced": sorted({n for p in traced for n in p["untraced"]}),
        "attempted": attempted, "failed": failed,
        "end_to_end": e2e,
    }
    if trace:
        layer_names = traced[0]["layers"].keys()
        layers = {k: median(p["layers"][k] for p in traced) for k in layer_names}
        layers["trace.overhead_s"] = (median(p["wall_s"] for p in traced)
                                      - median(p["wall_s"] for p in plain))
        result["per_layer"] = layers
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n",
                                         encoding="utf-8")
    return result


def check_checkout() -> None:
    missing = [p for p in ("src/lame_edge/__init__.py", *wl.BUNDLED.values())
               if not Path(p).is_file()]
    if missing:
        raise BenchError(f"run from the repository root; missing {', '.join(missing)}")


def declared_metrics() -> dict:
    """Metric names and units of BENCHMARK.json, by trace mode."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def main(argv=None) -> int:
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_checkout()
        declared = declared_metrics()[args.trace]
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
        values = result["per_layer"] if args.trace else result["end_to_end"]
        missing = sorted(set(declared) - set(values))
        if missing:
            raise BenchError(f"declared metrics not measured: {', '.join(missing)}")
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    for msg in result["failures"]:
        print(f"FAILED: {msg}")
    if result["untraced"]:
        print("not traced (absent in this version): " + ", ".join(result["untraced"]))
    print("env: " + json.dumps(result["environment"], sort_keys=True))
    units = {**declared_metrics()[0], **EXTRA_UNITS}
    for name, value in result["end_to_end"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in declared.items()}
    if args.trace:
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
