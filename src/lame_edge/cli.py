"""Configuration-driven orchestration: validate, stroh, forward, ansatz-check,
geometry-check, reconstruct.

Exit codes: 0 pass, 2 acceptance-threshold failure, 3 configuration error,
4 numerical diagnostic (an elastic.NumericalDiagnostic, printed as one line).
Result artifacts (report.json, CSV ladders) are byte-deterministic for a fixed
config and version; run timings live only in manifest.json together with the
sha256 inventory of the other outputs. ansatz-check and geometry-check import
their checkers (the corrector cascade, the chart algebra) when they run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import BumpCutoff, GaussianCutoff, ProbeSpec, smallness_ok
from .elastic import LameProfile, NumericalDiagnostic, taylor_truncate, validate_admissibility
from .forward import (H_MAX, QuadratureSettings, form_counts, interpolation_counts, polar_grid,
                      symbol_memo)
from .reconstruct import (BatteryError, default_battery, order0_coefficients, reconstruct_profile,
                          serial_ladder_runner)
from .stroh import (VARIANTS, closed_form_response, eigen_jordan, impedance, reference_chain,
                    stroh_matrix)

EXIT_OK = 0
EXIT_ACCEPTANCE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Configuration failed schema or cross-field validation."""


def _calibrates(cfg: dict) -> bool:
    return cfg.get("calibrate", True)


def _null_target(cfg: dict) -> bool:
    """A zero (dlam, dmu) target is checked as a null test against the noise bound."""
    return bool(np.allclose([cfg["expect"]["dlam"], cfg["expect"]["dmu"]], 0.0))


# condition a rule runs under -> (test on the config, why the rule skips when it fails)
_WHEN = {
    "order >= 1": (lambda cfg: cfg["order"] >= 1, "at order 0, which recovers no derivatives"),
    "zero target": (_null_target, "with a nonzero dlam/dmu target"),
    "nonzero target": (lambda cfg: not _null_target(cfg),
                       "with a zero dlam/dmu target, which is checked as a null test"),
    "calibrate": (_calibrates, "without calibration"),
}


@dataclass(frozen=True)
class ExpectRule:
    """One check of a run against its ``expect`` block: ``check(report, want, tol)``
    compares the ``target`` pair within the ``tolerance`` key (``default`` when
    absent; ``None``: it must be given) when the config meets all of ``when``."""

    name: str
    target: tuple[str, str]
    tolerance: str
    default: float | None
    when: tuple[str, ...]
    check: Callable

    @property
    def reads(self) -> tuple[str, ...]:
        return (*self.target, self.tolerance)

    def skips(self, cfg: dict) -> str | None:
        """Why the rule does not run for ``cfg``; ``None`` when it runs."""
        needs = self.target if self.default is not None else self.reads
        missing = ", ".join(f"expect.{k}" for k in needs if k not in cfg.get("expect", {}))
        if missing:
            return f"without {missing}"
        return next((why for holds, why in map(_WHEN.get, self.when) if not holds(cfg)), None)


def _order0_check(report, want, rtol) -> list[str]:
    return [f"order0 {name}: got {got:.6g}, want {w:g} (rtol {rtol:g})"
            for name, got, w in zip(("lambda", "mu"), (report.order0.lam, report.order0.mu), want)
            if abs(got - w) > rtol * abs(w)]


def _null_check(report, want, factor) -> list[str]:
    bounds = {mode: (np.array([r.dlam, r.dmu]), np.asarray(r.noise_bound))
              for mode, r in report.order_m.items()}
    return [f"null test [{mode}]: estimates {est.tolist()} exceed {factor} x noise {nb.tolist()}"
            for mode, (est, nb) in bounds.items()
            if np.any(np.abs(est) > factor * np.maximum(nb, 1e-12))]


def _relative_error(r, want) -> float:
    return float(np.abs(np.subtract([r.dlam, r.dmu], want)).max() / np.abs(want).max())


def _calibrated_check(report, want, rtol) -> list[str]:
    r = report.order_m["calibrated"]
    err = _relative_error(r, want)
    message = (f"calibrated recovery ({r.dlam:.4g}, {r.dmu:.4g}) vs ({want[0]:g}, {want[1]:g}): "
               f"error {err:.2%} > {100 * rtol:g}%")
    return [message] if err > rtol else []


def _best_closed_form_check(report, want, rtol) -> list[str]:
    best = min(_relative_error(report.order_m[mode], want) for mode in VARIANTS)
    message = f"best closed-form-variant recovery error {best:.2%} > {100 * rtol:g}%"
    return [message] if best > rtol else []


# the one source of the expect keys, the pair errors, the "never checked"
# refusals and a run's expect_failures (in this order)
EXPECT_RULES = (
    ExpectRule("order0", ("lambda", "mu"), "order0_rtol", 0.03, (), _order0_check),
    ExpectRule("null", ("dlam", "dmu"), "null_noise_factor", 3.0,
               ("order >= 1", "zero target"), _null_check),
    ExpectRule("calibrated", ("dlam", "dmu"), "rtol_calibrated", 0.05,
               ("order >= 1", "nonzero target", "calibrate"), _calibrated_check),
    ExpectRule("best_closed_form", ("dlam", "dmu"), "rtol_best_closed_form", None,
               ("order >= 1", "nonzero target"), _best_closed_form_check),
)


def expect_errors(cfg: dict) -> list[str]:
    """The ``expect`` keys given without their pair partner, then the given keys
    that no running rule reads, each with why every rule reading it skips."""
    expect = cfg.get("expect", {})
    errors = [f"expect.{key} is given without expect.{other}: the two are checked together"
              for pair in dict.fromkeys(rule.target for rule in EXPECT_RULES)
              for key, other in (pair, pair[::-1]) if key in expect and other not in expect]
    skips = {rule: rule.skips(cfg) for rule in EXPECT_RULES}
    for key in expect:
        readers = {rule.name: why for rule, why in skips.items() if key in rule.reads}
        if None not in readers.values():
            whys = "; ".join(f"{name} {why}" for name, why in readers.items())
            errors.append(f"expect.{key} is never checked: no rule reading it runs ({whys})")
    return errors


def expect_failures(report, cfg: dict) -> list[str]:
    """The failures of every rule that runs for ``cfg``, in table order."""
    expect = cfg.get("expect", {})
    return [f for rule in EXPECT_RULES if rule.skips(cfg) is None
            for f in rule.check(report, [expect[k] for k in rule.target],
                                expect.get(rule.tolerance, rule.default))]


CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "profile", "order", "ladder"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "profile": {
            "type": "object",
            "required": ["lambda", "mu", "m", "p"],
            "additionalProperties": False,
            "properties": {
                "lambda": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "mu": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "m": {"type": "integer", "minimum": 0},
                "p": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "order": {"type": "integer", "minimum": 0, "maximum": 2},
        "ladder": {"type": "array", "items": {"type": "integer", "minimum": 1},
                   "minItems": 4},
        "rho_tilde": {"type": ["integer", "null"], "minimum": 2},
        "probes": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kinds": {
                    "type": "array",
                    "items": {"enum": ["e3", "tangent", "sigma1"]},
                    "minItems": 1,
                },
                "directions": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"},
                              "minItems": 2, "maxItems": 2},
                    "minItems": 1,
                },
            },
        },
        "cutoff": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["gaussian", "bump"]},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nodes": {"type": "integer", "minimum": 8},
                "tail_tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "riccati_tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "calibrate": {"type": "boolean"},
        "seed": {"type": "integer"},
        "expect": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                **{key: {"type": "number"} for rule in EXPECT_RULES for key in rule.target},
                **{rule.tolerance: {"type": "number", "minimum": 0} for rule in EXPECT_RULES},
            },
        },
    },
}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
# bound keyword -> (message, test that the number fails); as in Draft 2020-12,
# a NaN passes every bound
_BOUNDS = {
    "minimum": ("less than the minimum of", lambda v, b: v < b),
    "maximum": ("greater than the maximum of", lambda v, b: v > b),
    "exclusiveMinimum": ("less than or equal to the minimum of", lambda v, b: v <= b),
    "exclusiveMaximum": ("greater than or equal to the maximum of", lambda v, b: v >= b),
}
_KEYWORDS = {"type", "const", "enum", "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems", *_BOUNDS}


def _same(a, b) -> bool:
    """JSON equality: a boolean never equals a number."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def check_schema(instance, schema: dict, path: tuple = ()) -> None:
    """Validate a parsed JSON value against the subset of JSON Schema that
    :data:`CONFIG_SCHEMA` uses; raise :class:`ConfigError` at the first violation.

    Draft 2020-12 semantics, except that ``integer`` means an ``int``: never a
    bool, and never an integral float such as 1.0, which Draft 2020-12 accepts
    but the run cannot use. Any keyword outside that subset raises
    ``NotImplementedError``.
    """
    def fail(message: str):
        raise ConfigError(f"schema violation at {list(path)}: {message}")

    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"schema keywords {sorted(unknown)} are not checked")
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_TYPES[t](instance) for t in types):
            fail(f"{instance!r} is not of type {', '.join(map(repr, types))}")
    if "const" in schema and not _same(instance, schema["const"]):
        fail(f"{schema['const']!r} was expected")
    if "enum" in schema and not any(_same(instance, e) for e in schema["enum"]):
        fail(f"{instance!r} is not one of {schema['enum']!r}")
    if _TYPES["number"](instance):
        for key, (words, fails) in _BOUNDS.items():
            if key in schema and fails(instance, schema[key]):
                fail(f"{instance!r} is {words} {schema[key]!r}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                fail(f"{key!r} is a required property")
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in props:
                check_schema(value, props[key], (*path, key))
            elif extra is False:
                fail(f"additional property {key!r} is not allowed")
            elif extra is not True:
                check_schema(value, extra, (*path, key))
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            fail(f"{instance!r} has fewer than {schema['minItems']} items")
        if len(instance) > schema.get("maxItems", len(instance)):
            fail(f"{instance!r} has more than {schema['maxItems']} items")
        if "items" in schema:
            for i, value in enumerate(instance):
                check_schema(value, schema["items"], (*path, i))


def _reject_constant(name: str):
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def _finite(literal: str, parse: Callable):
    """``parse(literal)`` of a JSON number that is a finite double; ``float`` gives
    inf for a literal past the double range, however long, so an integer too
    large for ``int`` to parse is refused too."""
    if not math.isfinite(float(literal)):
        shown = literal if len(literal) <= 24 else f"{literal[:12]}... ({len(literal)} characters)"
        raise ConfigError(f"config number {shown} is outside the double range")
    return parse(literal)


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose names are distinct (RFC 8259 leaves repeats undefined)."""
    keys = Counter(key for key, _ in pairs)
    repeated = [key for key, count in keys.items() if count > 1]
    if repeated:
        raise ConfigError(f"config is not valid JSON: key {repeated[0]!r} repeats in one object")
    return dict(pairs)


def load_config(path: str | Path) -> dict:
    """Load, schema-validate and cross-field-validate a config file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(raw, parse_constant=_reject_constant, object_pairs_hook=_unique_keys,
                         parse_float=lambda x: _finite(x, float),
                         parse_int=lambda x: _finite(x, int))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    check_schema(cfg, CONFIG_SCHEMA)

    errors = cross_field_errors(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


# the Gaussian cutoff widths whose squares the cutoff and its pairing grids can
# form: sigma^2 a normal double and (4 sigma)^2 finite
_SIGMA_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max) / 4.0)


def cross_field_errors(cfg: dict) -> list[str]:
    """Named cross-field constraint violations (empty list when valid)."""
    errors: list[str] = []
    p = cfg["profile"]["p"]
    order = cfg["order"]
    m_prof = cfg["profile"]["m"]
    if order > m_prof:
        errors.append(f"order {order} exceeds profile derivative order m = {m_prof}")
    rt = cfg.get("rho_tilde")
    if rt is not None and not smallness_ok(order, rt, p):
        rho = 1.0 / rt
        errors.append(
            f"smallness condition fails: (1 - 1/{rt})*({order} + {p}) = "
            f"{(1 - rho) * (order + p):.4g} < {order} + 1/{rt} = {order + rho:.4g}"
        )
    for m in sorted({0, order}) if rt is None else ():
        try:
            ProbeSpec.auto_rho_tilde(m, p)
        except ValueError as e:
            errors.append(f"rho_tilde null: {e}")
    cutoff = cfg.get("cutoff", {})
    if cutoff.get("kind") == "bump" and "sigma" in cutoff:
        errors.append("cutoff.sigma applies only to kind 'gaussian'; the bump has a fixed width")
    elif "sigma" in cutoff and not _SIGMA_RANGE[0] <= cutoff["sigma"] <= _SIGMA_RANGE[1]:
        errors.append(f"cutoff.sigma {cutoff['sigma']:g} is outside [{_SIGMA_RANGE[0]:.4g}, "
                      f"{_SIGMA_RANGE[1]:.4g}], where sigma^2 is a normal double and the "
                      f"Gaussian's spectral constant 4 pi sigma^2 stays finite")
    zero = [d for d in cfg.get("probes", {}).get("directions", []) if math.hypot(*d) == 0.0]
    errors.extend(f"probe direction {d} is zero: a direction must be a nonzero tangent"
                  for d in zero)
    if not zero:  # the probe ids of the battery, its directions scaled to unit length
        names = Counter(t.name for t in battery_from_config(cfg))
        repeated = [name for name, count in names.items() if count > 1]
        if repeated:
            errors.append(f"probe ids repeat: {', '.join(repeated)}; each kind at each "
                          f"direction, scaled to unit length, must be a distinct probe")
    errors.extend(expect_errors(cfg))
    ladder = cfg["ladder"]
    if any(b != 2 * a for a, b in zip(ladder, ladder[1:])):
        errors.append(f"ladder must be dyadic: {ladder}")
    profile = profile_from_config(cfg)
    checked = {"profile": profile}
    if order >= 1:  # an order-m run also subtracts the symbol of the order-m truncation
        checked[f"order-{order} Taylor truncation of the profile"] = taylor_truncate(profile, order)
    reports = {name: validate_admissibility(prof, H=H_MAX) for name, prof in checked.items()}
    errors.extend(rep.message(name) for name, rep in reports.items() if not rep.passed)
    return errors


def profile_from_config(cfg: dict) -> LameProfile:
    p = cfg["profile"]
    return LameProfile.from_polynomial(p["lambda"], p["mu"], max_derivative_order=max(p["m"], 2),
                                       holder_exponent=p["p"])


def cutoff_from_config(cfg: dict):
    params = dict(cfg.get("cutoff", {}))
    cutoff = {"gaussian": GaussianCutoff, "bump": BumpCutoff}[params.pop("kind", "gaussian")]
    return cutoff(**params)


def battery_from_config(cfg: dict):
    """The configured probe battery, each direction scaled to a unit tangent."""
    probes = dict(cfg.get("probes", {}))
    if "directions" in probes:
        probes["directions"] = [(x / math.hypot(x, y), y / math.hypot(x, y))
                                for x, y in probes["directions"]]
    return default_battery(**probes)


def quad_from_config(cfg: dict) -> QuadratureSettings:
    return QuadratureSettings(**cfg.get("quadrature", {}))


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj) -> None:
    """Strict JSON (RFC 8259): a NaN or infinity raises instead of writing a literal
    that parsers reject."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_ladder_csv(path: Path, ladders) -> None:
    """One row ``N,probe_id,m,re,im`` per ladder point: the scaled pairing value
    at N (see :class:`lame_edge.reconstruct.LadderResult`)."""
    with path.open("w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")  # quotes probe ids such as e3@(1,0)
        writer.writerow(["N", "probe_id", "m", "re", "im"])
        for lr in ladders:
            for n, v in zip(lr.N_values, lr.values):
                writer.writerow([int(n), lr.template.name, lr.m, _fmt(v.real), _fmt(v.imag)])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, cfg_path: Path | None, stages: dict, outputs: list[Path],
                    counters: dict | None = None) -> None:
    manifest = {
        "tool_version": __version__,
        "config_sha256": _sha256(cfg_path) if cfg_path else None,
        "stage_seconds": {k: round(v, 6) for k, v in stages.items()},
        "counters": counters or {},
        "outputs": {p.name: _sha256(p) for p in outputs if p.exists()},
    }
    _write_json(out / "manifest.json", manifest)


def _counted(stage: str, run) -> tuple:
    """``run()``, its ``stage_seconds`` (``stage`` and, within it, ``symbols``) and
    its memo ``counters`` (``pairing_grids`` and ``symbols``)."""
    grids0, weights0 = polar_grid.cache_info(), dict(interpolation_counts)
    forms0, symbols0 = dict(form_counts), dict(symbol_memo.counts)
    built0, seconds0 = len(symbol_memo.accepted), symbol_memo.seconds
    t0 = time.perf_counter()
    result = run()
    stages = {stage: time.perf_counter() - t0, "symbols": symbol_memo.seconds - seconds0}
    grids1 = polar_grid.cache_info()
    grids = {"built": grids1.misses - grids0.misses, "reused": grids1.hits - grids0.hits,
             **{f"weights_{k}": v - weights0[k] for k, v in interpolation_counts.items()},
             **{f"forms_{k}": v - forms0[k] for k, v in form_counts.items()}}
    symbols = {k: v - symbols0[k] for k, v in symbol_memo.counts.items()}
    symbols["accepted_nodes"] = symbol_memo.accepted[built0:]
    return result, stages, {"pairing_grids": grids, "symbols": symbols}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        order0_coefficients(battery_from_config(cfg))  # the rank rule of reconstruct
    except ConfigError as e:
        print(f"config invalid: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except BatteryError as e:  # forward and ansatz-check need no rank, and run it
        print(f"config invalid: {e}; reconstruct refuses this battery", file=sys.stderr)
        return EXIT_CONFIG
    print("config valid")
    return EXIT_OK


def _print_complex(title: str, M: np.ndarray) -> None:
    print(title)
    for row in np.atleast_2d(M):
        print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row))


def cmd_stroh(args) -> int:
    cfg = load_config(args.config)
    profile = profile_from_config(cfg)
    lam0, mu0 = float(profile.lam(0.0)), float(profile.mu(0.0))
    omega = tuple(battery_from_config(cfg)[0].omega.tolist())
    K = stroh_matrix(lam0, mu0, omega)
    residuals = eigen_jordan(lam0, mu0, omega)[1]
    q1, q2, q3 = reference_chain(lam0, mu0, omega)
    evals = np.linalg.eigvals(K)
    Zs = impedance(lam0, mu0, omega, "iota_squared")
    Zl = impedance(lam0, mu0, omega, "iota_linear")

    print(f"lambda(0) = {lam0:g}, mu(0) = {mu0:g}, omega = ({omega[0]:g}, {omega[1]:g})")
    _print_complex("\nK (6x6):", K)
    print("\neigenvalues:", ", ".join(f"{v:.6f}" for v in np.sort_complex(evals)))
    for name, q in (("q1", q1), ("q2", q2), ("q3", q3)):
        print(f"{name}: " + "  ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in q))
    print("chain residuals:", {k: f"{v:.2e}" for k, v in residuals.items()})
    _print_complex("\nZ (iota_squared):", Zs)
    _print_complex("Z (iota_linear):", Zl)

    out = {
        "lambda0": lam0,
        "mu0": mu0,
        "omega": [omega[0], omega[1]],
        "K_re": K.real.tolist(),
        "K_im": K.imag.tolist(),
        "eigenvalues_re": np.sort_complex(evals).real.tolist(),
        "eigenvalues_im": np.sort_complex(evals).imag.tolist(),
        "chain": {
            name: {"re": q.real.tolist(), "im": q.imag.tolist()}
            for name, q in (("q1", q1), ("q2", q2), ("q3", q3))
        },
        "Z": {
            "iota_squared": {"re": Zs.real.tolist(), "im": Zs.imag.tolist()},
            "iota_linear": {"re": Zl.real.tolist(), "im": Zl.imag.tolist()},
        },
        "residuals": residuals,
    }
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "stroh.json", out)
        _write_manifest(outdir, Path(args.config), {}, [outdir / "stroh.json"])
    return EXIT_OK


def cmd_forward(args) -> int:
    cfg = load_config(args.config)
    profile = profile_from_config(cfg)
    battery = battery_from_config(cfg)
    cutoff = cutoff_from_config(cfg)
    quad = quad_from_config(cfg)
    orders = [0] + ([cfg["order"]] if cfg["order"] >= 1 else [])
    ladders, stages, counters = _counted("forward", lambda: [
        lr for m in orders for lr in serial_ladder_runner(
            (profile,), battery, cfg["ladder"], m, cutoff, cfg.get("rho_tilde"), quad)[0]])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_ladder_csv(outdir / "pairings.csv", ladders)
    _write_manifest(outdir, Path(args.config), stages, [outdir / "pairings.csv"], counters)
    print(f"wrote {outdir / 'pairings.csv'} ({len(ladders)} ladders)")
    return EXIT_OK


def cmd_ansatz_check(args) -> int:
    from .cascade import residual_decay

    cfg = load_config(args.config)
    profile = profile_from_config(cfg)
    cutoff = cutoff_from_config(cfg)
    m = cfg["order"]
    rt = cfg.get("rho_tilde") or ProbeSpec.auto_rho_tilde(m, cfg["profile"]["p"])
    omega = tuple(battery_from_config(cfg)[0].omega.tolist())
    a = np.array([0.0, 0.0, 1.0], dtype=complex)
    probes = [ProbeSpec(a, omega, n, rt, m, cutoff, cfg["profile"]["p"])
              for n in cfg["ladder"]]
    fit = residual_decay(probes, profile)
    target = 2.0 - m - 1.0 / rt
    lines = ["N,residual_norm,fitted_slope"]
    for n, v in zip(fit.N_values, fit.norms):
        lines.append(f"{int(n)},{_fmt(v)},{_fmt(fit.slope)}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "residual_decay.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(outdir, Path(args.config), {}, [outdir / "residual_decay.csv"])
    print(f"fitted slope {fit.slope:.4f} (bound exponent {target:g}), "
          f"fd disagreement {fit.fd_disagreement:.2e}")
    return EXIT_OK if fit.slope <= target + 0.2 else EXIT_ACCEPTANCE


def cmd_geometry_check(args) -> int:
    from .geometry import (FlatPatch, ParaboloidPatch, SpherePatch, build_chart,
                           first_order_nonflat, push_forward)

    cfg = load_config(args.config)
    profile = profile_from_config(cfg)
    lam0, mu0 = float(profile.lam(0.0)), float(profile.mu(0.0))
    dlam = float(profile.lam(0.0, 1))
    dmu = float(profile.mu(0.0, 1))
    rows = []
    ok = True
    charts = [
        ("flat", build_chart(FlatPatch(), depth=0.5)),
        ("sphere", build_chart(SpherePatch(2.0), depth=0.5)),
        ("paraboloid", build_chart(ParaboloidPatch(1.0, 1.0, radius=0.6), depth=0.5)),
    ]
    rng = np.random.default_rng(cfg.get("seed", 0))
    for name, chart in charts:
        worst_metric = 0.0
        worst_block = 0.0
        for _ in range(24):
            r = rng.uniform(0.0, 0.4)
            th = rng.uniform(0.0, 2 * np.pi)
            y = np.array([r * np.cos(th), r * np.sin(th), rng.uniform(0.0, 0.4)])
            G = chart.metric(y)
            worst_metric = max(worst_metric, abs(G[2, 2] - 1.0), abs(G[0, 2]), abs(G[1, 2]))
            pt = push_forward(lam0, mu0, chart, y)
            zeta = rng.standard_normal(2)
            ref = pt.reference_blocks(zeta)
            worst_block = max(
                worst_block,
                float(np.abs(pt.t_block() - ref["T"]).max()),
                float(np.abs(pt.r_block(zeta) - ref["R"]).max()),
                float(np.abs(pt.q_block(zeta) - ref["Q"]).max()),
            )
        a = np.array([0.3, -0.2, 1.0], dtype=complex)
        omega = (1.0, 0.0, 0.0)
        flat_val = first_order_nonflat(chart, lam0, mu0, dlam, dmu, a, omega)
        reference = closed_form_response(a, omega, 1, dlam, dmu, "plus_one")
        flat_exact = abs(flat_val - reference) if name == "flat" else float("nan")
        row_ok = worst_metric < 1e-8 and worst_block < 1e-10
        if name == "flat":
            row_ok = row_ok and flat_exact == 0.0
        ok = ok and row_ok
        rows.append((name, worst_metric, worst_block, flat_exact, row_ok))
    lines = ["chart,metric_defect,block_defect,flat_reduction_defect,pass"]
    for name, wm, wb, fe, row_ok in rows:
        fe_s = "" if math.isnan(fe) else _fmt(fe)
        lines.append(f"{name},{_fmt(wm)},{_fmt(wb)},{fe_s},{str(row_ok).lower()}")
        print(f"{name:12s} metric {wm:.2e}  blocks {wb:.2e}  "
              f"{'flat-reduction ' + format(fe, '.1e') if not math.isnan(fe) else ''}"
              f" {'PASS' if row_ok else 'FAIL'}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "geometry_checks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_manifest(outdir, Path(args.config), {},
                        [outdir / "geometry_checks.csv"])
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    profile = profile_from_config(cfg)
    battery = battery_from_config(cfg)
    cutoff = cutoff_from_config(cfg)
    quad = quad_from_config(cfg)
    report, stages, counters = _counted("reconstruct", lambda: reconstruct_profile(
        profile,
        cfg["order"],
        cfg["ladder"],
        battery=battery,
        cutoff=cutoff,
        rho_tilde=cfg.get("rho_tilde"),
        quad=quad,
        calibrate=_calibrates(cfg),
    ))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["tool_version"] = __version__
    failures = expect_failures(report, cfg)
    if cfg.get("expect"):
        payload["expect_failures"] = failures
    _write_json(outdir / "report.json", payload)
    _write_ladder_csv(outdir / "ladders.csv", report.order0_ladders + report.order_m_ladders)
    outputs = [outdir / "report.json", outdir / "ladders.csv"]
    order0 = {k: getattr(report.order0, k) for k in ("passes", "final_change")}
    calibration = report.calibration.ladders.values() if report.calibration else []
    flags = Counter(lr.extrapolation.flag for lr in report.order0_ladders
                    + report.order_m_ladders + [lr for lrs in calibration for lr in lrs])
    _write_manifest(outdir, Path(args.config), {**stages, **report.stage_seconds}, outputs,
                    {"order0": order0, **counters, "extrapolation_flags": flags})
    print(f"order-0: lambda = {report.order0.lam:.6f}, mu = {report.order0.mu:.6f}")
    for mode, r in report.order_m.items():
        print(f"order-{cfg['order']} [{mode:>16s}]: dlam = {r.dlam:+.6f}, dmu = {r.dmu:+.6f}")
    print(f"variant verdict: {report.variant_verdict}")
    for f in failures:
        print(f"EXPECT FAIL: {f}", file=sys.stderr)
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lame-edge",
        description="Boundary recovery of stratified Lame moduli from localized "
                    "Dirichlet-to-Neumann pairings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, summary, needs_out=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.set_defaults(handler=handler)

    add("validate", cmd_validate, "validate a config file")
    add("stroh", cmd_stroh, "print K, the Jordan chain and Z")
    add("forward", cmd_forward, "pairing ladders as CSV", needs_out=True)
    add("ansatz-check", cmd_ansatz_check, "residual decay of the ansatz", needs_out=True)
    add("geometry-check", cmd_geometry_check, "curved-boundary identities")
    add("reconstruct", cmd_reconstruct, "full reconstruction run", needs_out=True)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, BatteryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalDiagnostic as e:
        print(f"numerical diagnostic: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
