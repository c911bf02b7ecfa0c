"""N-ladders of localized pairings and recovery of moduli and derivatives.

Each order-m recovery solves with one design matrix of the table that
:func:`reconstruct_profile` builds once per run:

* two closed-form candidate coefficient tables (``plus_one`` / ``plus_a3_squared``),
  which square complex strain factors literally;
* the semi-analytic prediction :func:`leading_order_response`, the Hermitian
  energy of the full decaying solution family (including its depth-linear
  Jordan term);
* an empirically calibrated matrix: measured linear response of the forward
  solver to unit derivative profiles.

The calibration is the ground truth; the others are hypotheses under test,
and the report carries their Frobenius distances and a verdict.

Order 0 is linear in x = (lam mu, mu^2)/(lam + 3 mu): one least-squares solve
and an exact back-map give the moduli. Both orders solve through one SVD.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .ansatz import CutoffProfile, GaussianCutoff, ProbeSpec
from .elastic import LameProfile, NumericalDiagnostic, check_admissible, energy_density
from .forward import (
    DEFAULT_QUAD,
    ForwardError,
    PolarGrid,
    QuadratureSettings,
    Z_ROWS_E1,
    ladder_pairings,
    pairing,  # noqa: F401 (perfbench wraps it under this name too)
    polar_grid,
)
from .stroh import VARIANTS, closed_form_response, impedance_basis, sigma_basis
from .stroh import impedance  # noqa: F401 (perfbench wraps impedance)

__all__ = [
    "BatteryError",
    "CalibrationResult",
    "ExtrapolationResult",
    "LadderResult",
    "Order0Result",
    "OrderMResult",
    "ProbeTemplate",
    "ReconstructionReport",
    "calibrate_order_m",
    "default_battery",
    "extrapolate",
    "homogeneous_pairing_value",
    "leading_order_response",
    "order0_coefficients",
    "order0_response",
    "order0_variables",
    "recover_order0",
    "recover_order_m",
    "reconstruct_profile",
    "refine_order0",
    "run_ladder",
]

_E3 = np.array([0.0, 0.0, 1.0])
DEFAULT_CUTOFF = GaussianCutoff()  # one object, so the grid and symbol memos share it


class BatteryError(ValueError):
    """Probe battery cannot resolve the unknowns (rank/conditioning)."""


# ---------------------------------------------------------------------------
# limit formulae
# ---------------------------------------------------------------------------


def _family_jets(a, omega, lam0: float, mu0: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (G0, G1) of the decaying family of the medium (lam0, mu0).

    With sigma_2 and the sigma_3 coordinate c3 of a from stroh.sigma_basis (one
    solve; cascade.sigma_expand adds a residual check and a second basis, at twice
    the cost), the family is u = exp(i omega.y' - y3)(a + y3 b), b = i c3 sigma_2,
    and since i sigma_2 = (i omega, -1), its gradient is
    exp(i omega.y' - y3)(G0 + y3 G1) with G0 = a (x) i sigma_2 + b (x) e3 and
    G1 = b (x) i sigma_2.
    """
    S = sigma_basis(lam0, mu0, omega)
    a = np.asarray(a, dtype=complex).ravel()
    d = 1j * S[:, 1]
    b = np.linalg.solve(S, a)[2] * d
    return np.outer(a, d) + np.outer(b, _E3), np.outer(b, d)


def _family_moment(jets, m: int, lam, mu) -> float:
    """Energy of the decaying family with :func:`_family_jets` ``jets`` at moduli
    (lam, mu), weighted by y3^m/m! over depth: with
    E_jk = energy_density(lam, mu, G_j, G_k),

        sum_jk E_jk int_0^inf y3^(m+j+k)/m! exp(-2 y3) dy3
            = sum_jk E_jk (m+j+k)! / (m! 2^(m+j+k+1)).
    """
    return sum(energy_density(lam, mu, gu, gv).real
               * math.factorial(m + j + k) / (math.factorial(m) * 2.0 ** (m + j + k + 1))
               for j, gu in enumerate(jets) for k, gv in enumerate(jets))


def order0_response(a, omega, lam0: float, mu0: float) -> float:
    """Predicted order-0 pairing limit: the family energy at (lam0, mu0), m = 0.

    Oracle: the tests check that it equals the impedance quadratic form
    a^H Z a, which ties the family energy that order m uses to order 0.
    """
    return _family_moment(_family_jets(a, omega, lam0, mu0), 0, lam0, mu0)


def leading_order_response(
    a, omega, m: int, dlam: float, dmu: float, lam0: float, mu0: float
) -> float:
    """Predicted order-m difference-pairing limit (corrector-inclusive): the
    family energy of (lam0, mu0) at (d^m lam, d^m mu) = (dlam, dmu), weighted by
    y3^m / m! (see :func:`_family_moment`)."""
    if m < 1:
        raise ValueError("m >= 1; use order0_response for the plain pairing limit")
    return _family_moment(_family_jets(a, omega, lam0, mu0), m, dlam, dmu)


# ---------------------------------------------------------------------------
# ladders and extrapolation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: complex
    flag: str  # "structured" | "converged" | "noise_floor"
    uncertainty: float


@lru_cache(maxsize=64)
def _fit_basis(N: tuple, rho: float) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Exponents 2 rho (1, 2, 3), basis A = (1, N^-e) and its pseudo-inverse (read-only)."""
    exps = tuple(2.0 * rho * (j + 1) for j in range(3))
    A = np.column_stack([np.ones(len(N))] + [np.array(N) ** -e for e in exps])
    fit = np.linalg.pinv(A)
    A.setflags(write=False)
    fit.setflags(write=False)
    return exps, A, fit


def extrapolate(N_values, values, rho: float) -> ExtrapolationResult:
    """Extrapolate a dyadic ladder of pairing values to N = infinity.

    The convergence-error ladder of the pairing quadrature is known: radial
    cutoffs kill odd powers of the spectral spread N^-rho, and the symbol
    expansion contributes integer powers of 1/N, so the error is a series in
    N^{-2 rho}. The limit is the structured fit

        S(N) = S* + c1 N^{-2 rho} + c2 N^{-4 rho} + c3 N^{-6 rho},

    fitted on at least four points as one product with the basis's
    pseudo-inverse, which is computed once per (N-list, rho). A converged ladder
    short-circuits, and a ladder whose differences grow at the tail is flagged
    as a noise floor.
    """
    N = np.asarray(N_values, dtype=float)
    S = np.asarray(values, dtype=complex)
    if N.size < 4:
        raise ValueError("need at least 4 ladder points")
    d = np.diff(S)
    mag = np.abs(d)
    scale = max(np.abs(S).max(), 1e-300)
    if mag.max() <= 1e-13 * scale:
        return ExtrapolationResult(complex(S[-1]), "converged", float(mag.max()))
    if mag[-1] > 2.0 * mag[-2]:
        return ExtrapolationResult(complex(S[-1]), "noise_floor", float(3.0 * mag[-1]))

    exps, A, fit = _fit_basis(tuple(N), rho)
    coef = fit @ S
    rms = float(np.linalg.norm(A @ coef - S) / math.sqrt(N.size))
    # uncertainty: misfit plus a fraction of the least-resolved term
    tail_term = abs(coef[-1]) * N[-1] ** -exps[-1]
    return ExtrapolationResult(complex(coef[0]), "structured", float(rms + 0.5 * tail_term))


@dataclass(frozen=True)
class ProbeTemplate:
    """Probe amplitude/direction pair; N is supplied by the ladder."""

    name: str
    a: np.ndarray
    omega: np.ndarray

    @staticmethod
    def named(kind: str, omega) -> "ProbeTemplate":
        w = np.asarray(omega, dtype=float).ravel()
        if w.size == 2:
            w = np.array([w[0], w[1], 0.0])
        table = {
            "e3": np.array([0.0, 0.0, 1.0], dtype=complex),
            "tangent": np.array([w[0], w[1], 0.0], dtype=complex),
            "sigma1": np.array([w[1], -w[0], 0.0], dtype=complex),
        }
        if kind not in table:
            raise ValueError(f"unknown probe kind {kind!r}; known: {sorted(table)}")
        return ProbeTemplate(f"{kind}@({w[0]:g},{w[1]:g})", table[kind], w)


def default_battery(directions=((1.0, 0.0), (0.0, 1.0)),
                    kinds=("e3", "tangent", "sigma1")) -> list[ProbeTemplate]:
    """Each probe kind at each direction: six probes by default."""
    return [ProbeTemplate.named(kind, d) for d in directions for kind in kinds]


@dataclass(frozen=True)
class LadderResult:
    """Scaled pairing values over a dyadic N-ladder with extrapolation."""

    template: ProbeTemplate
    m: int
    N_values: np.ndarray
    values: np.ndarray  # scaled: pairing for m=0, N^m * difference for m>=1
    extrapolation: ExtrapolationResult

    @property
    def limit(self) -> complex:
        return self.extrapolation.limit

    @property
    def noise(self) -> float:
        return self.extrapolation.uncertainty


def _check_dyadic(N_list) -> np.ndarray:
    N = [int(n) for n in N_list]  # checked as Python ints: a ladder has a handful
    for n, k in zip(N_list, N):
        if n != k:
            raise ValueError(f"ladder N must be integers, got {n}")
    if len(N) < 4:
        raise ValueError("ladder needs at least 4 N values")
    if any(b <= a for a, b in zip(N, N[1:])):
        raise ValueError("ladder must be strictly increasing")
    if any(b != 2 * a for a, b in zip(N, N[1:])):
        raise ValueError(f"ladder must be dyadic, got {N}")
    return np.array(N)


def serial_ladder_runner(
    profiles,
    battery,
    N_list,
    m: int,
    cutoff: CutoffProfile | None = None,
    rho_tilde: int | None = None,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> list[list[LadderResult]]:
    """The ladders of each of ``profiles`` for every battery probe, in order:
    pairings (m = 0) or N^m-scaled difference pairings (m >= 1). The profiles
    are one symbol group and share one holder_exponent p, as the probes share
    one rho_tilde and cutoff; the default rho_tilde is
    ProbeSpec.auto_rho_tilde for the order and p. Each probe is validated at
    the smallest N, and the group's pairings are one computation
    (:func:`lame_edge.forward.ladder_pairings`); each ladder is extrapolated on
    its own."""
    N = _check_dyadic(N_list)
    cutoff = cutoff if cutoff is not None else DEFAULT_CUTOFF
    profiles = tuple(profiles)
    p = profiles[0].holder_exponent
    if any(q.holder_exponent != p for q in profiles):
        raise ValueError("the profiles of one group share one holder_exponent")
    rt = rho_tilde if rho_tilde is not None else ProbeSpec.auto_rho_tilde(m, p)
    probes = [ProbeSpec(t.a, t.omega, int(N[0]), rt, m, cutoff, p) for t in battery]
    vals = N**m * ladder_pairings(profiles, m, probes, N, rt, cutoff, quad).astype(complex)
    return [[LadderResult(t, m, N, v, extrapolate(N, v, rho=1.0 / rt))
             for t, v in zip(battery, member)] for member in vals]


def run_ladder(
    profile: LameProfile,
    template: ProbeTemplate,
    N_list,
    m: int,
    cutoff: CutoffProfile | None = None,
    rho_tilde: int | None = None,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> LadderResult:
    """The ladder of one probe: :func:`serial_ladder_runner` on a battery of one."""
    return serial_ladder_runner((profile,), (template,), N_list, m, cutoff, rho_tilde,
                                quad)[0][0]


# ---------------------------------------------------------------------------
# order-0 recovery (linear least squares in x = (lam mu, mu^2)/(lam + 3 mu))
# ---------------------------------------------------------------------------

_PASS_TOL, _MAX_PASSES = 1e-12, 200  # deflation fixed point: relative (lam, mu) change
_UNSEPARABLE = ("order-0 battery cannot separate lambda from mu: rows "
                "(a^H Z_lam a, a^H Z_mu a) have rank < 2")


def _least_squares(A, b, templates, failure: str):
    """min |A x - b| from one SVD of A: the solution, its residual, the condition
    number of A and its pseudo-inverse (which propagates noise on b into x).

    Raises BatteryError(``failure``, naming the probes) when A is
    rank-deficient by the relative rule s_min <= 1e-10 s_max."""
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size < 2 or s[-1] <= 1e-10 * s[0]:
        names = ", ".join(t.name for t in templates)
        raise BatteryError(f"{failure} for probes [{names}]")
    pinv = (Vh.conj().T / s) @ U.conj().T
    x = pinv @ b
    return x, float(np.linalg.norm(A @ x - b)), float(s[0] / s[-1]), pinv


@dataclass(frozen=True)
class Order0Result:
    lam: float
    mu: float
    residual: float
    ok: bool
    method: str
    passes: int = 0  # deflation passes of refine_order0 (0 for a single solve)
    final_change: float = 0.0  # relative (lam, mu) change of the last pass


def _relative_change(old, new) -> float:
    return max(abs(new[0] - old[0]), abs(new[1] - old[1])) / max(abs(new[0]), abs(new[1]))


def order0_coefficients(templates) -> np.ndarray:
    """Rows (alpha, beta) = (a^H Z_lam a, a^H Z_mu a) per probe (see stroh.impedance_basis).

    Below rank 2 the limits fix one combination of the moduli: BatteryError."""
    templates = list(templates)
    rows = np.array([[np.vdot(t.a, Zc @ t.a).real for Zc in impedance_basis(t.omega)]
                     for t in templates])
    _least_squares(rows, np.zeros(len(rows)), templates, _UNSEPARABLE)  # the rank rule
    return rows


def order0_variables(lam: float, mu: float) -> np.ndarray:
    """x = (lam mu, mu^2)/(lam + 3 mu), in which a probe's order-0 limit
    a^H Z a = mu (alpha lam + beta mu)/(lam + 3 mu) is the linear form (alpha, beta) . x
    (the tests check that form against :func:`order0_response`)."""
    return np.array([lam * mu, mu * mu]) / (lam + 3.0 * mu)


def _moduli(x) -> tuple[float, float]:
    """(lam, mu) from x by the exact back-map mu = x1 + 3 x2, lam = mu x1 / x2."""
    mu = x[0] + 3.0 * x[1]
    return float(mu * x[0] / x[1]), float(mu)


def recover_order0(limits, C: np.ndarray) -> Order0Result:
    """Least-squares (lam, mu) from (ProbeTemplate, limit) pairs, whose
    :func:`order0_coefficients` are the rows ``C``.

    The limits are linear in x = (lam mu, mu^2)/(lam + 3 mu) (see
    :func:`order0_variables`), so the solve is one linear least-squares step
    followed by the exact back-map to (lam, mu). ``ok`` requires admissible
    moduli (mu > 0 and 3 lam + 2 mu > 0, that is x2 > 0 and x1 > -2/3 x2) and
    a residual within 1e-3 of the largest limit.
    """
    templates = [t for t, _ in limits]
    y = np.array([float(np.real(v)) for _, v in limits])
    x, residual, _, _ = _least_squares(C, y, templates, _UNSEPARABLE)
    admissible = x[1] > 0.0 and 3.0 * x[0] + 2.0 * x[1] > 0.0
    ok = admissible and residual <= 1e-3 * max(np.abs(y).max(), 1.0)
    return Order0Result(*_moduli(x), residual, bool(ok), "linear least squares")


def _pairing_moments(templates, N_values, rho_tilde: int, cutoff: CutoffProfile,
                     quad: QuadratureSettings) -> np.ndarray:
    """(G_lam, G_mu) of each probe at each N, shape (probe, N, 2): a half-space
    pairs, with M(k) = |k| R Z R^T on the forward pairing's grid, to
    (G_lam, G_mu) . x, as Z is linear (see order0_variables). The forms
    Z_ROWS_E1 (x) (r F) of the N grids are built once, and every probe is
    contracted with them in one product."""
    forms = np.stack([Z_ROWS_E1[:, :, None] * (grid.r @ grid.moments)  # the forms of the rows r z
                      for grid in (polar_grid(int(n), rho_tilde, cutoff, quad) for n in N_values)])
    return PolarGrid.contract(forms, [(t.a, t.omega) for t in templates])


def homogeneous_pairing_value(template: ProbeTemplate, N: int, rho_tilde: int,
                              cutoff: CutoffProfile, lam: float, mu: float,
                              quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Finite-N pairing of a homogeneous half-space, in closed form: the
    exactly computable part of the finite-N error of a pairing ladder.

    Oracle: the tests check it against the forward pairing of a constant
    profile, which validates the moments that :func:`refine_order0` deflates by."""
    check_admissible(lam, mu)
    G = _pairing_moments((template,), (N,), rho_tilde, cutoff, quad)[0, 0]
    return float(G @ order0_variables(lam, mu))


def refine_order0(
    ladders,
    C: np.ndarray,
    cutoff: CutoffProfile,
    rho_tilde: int,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> tuple[Order0Result, dict]:
    """Order-0 recovery with model-deflated ladder extrapolation; ``C`` is the
    ladders' :func:`order0_coefficients`.

    The finite-N error of an order-0 ladder is dominated by the spectral
    spread of the probe acting on the homogeneous symbol |k| Z, which is
    computable exactly. Each pass deflates the measured ladders by the model
    factor at the current x (see :func:`order0_variables`), refits the
    remaining stratified correction (a 1/N series) and re-solves for x, until
    (lam, mu) moves by at most 1e-12 relative; ``ok`` is False if the pass cap
    comes first. The deflator (c . x)/(G . x) depends on lam/mu alone, so a
    pass whose x is inadmissible is still well defined. All ladders share one N-list.
    """
    templates = [lr.template for lr in ladders]
    N = ladders[0].N_values
    if any(not np.array_equal(lr.N_values, N) for lr in ladders):
        raise ValueError("refine_order0 needs ladders on one N-list")
    Nf, rho = N.astype(float), 1.0 / rho_tilde
    # deflation leaves the stratified 1/N series with even spread
    # corrections: exponents {1, 1 + 2 rho, 2}; w takes a ladder to its limit
    w = np.linalg.pinv(np.column_stack(
        [np.ones(Nf.size), Nf**-1.0, Nf ** -(1.0 + 2.0 * rho), Nf**-2.0]))[0]
    G = _pairing_moments(templates, N, rho_tilde, cutoff, quad)  # (probe, N, 2)
    values = np.array([lr.values.real for lr in ladders])
    y = np.array([lr.limit.real for lr in ladders])
    x, _, _, pinv = _least_squares(C, y, templates, _UNSEPARABLE)
    moduli = _moduli(x)
    for passes in range(1, _MAX_PASSES + 1):
        # deflator: model pairing over its N = infinity limit
        y = (values * ((C @ x)[:, None] / (G @ x))) @ w
        x = pinv @ y
        previous, moduli = moduli, _moduli(x)
        change = _relative_change(previous, moduli)
        if change <= _PASS_TOL:
            break
    limits = [(t, float(v)) for t, v in zip(templates, y)]
    order0 = recover_order0(limits, C)  # the same pinv, so the same x as the last pass
    return (replace(order0, ok=order0.ok and change <= _PASS_TOL, passes=passes,
                    final_change=change),
            {t.name: v for t, v in limits})


# ---------------------------------------------------------------------------
# order-m recovery (linear battery solve)
# ---------------------------------------------------------------------------


def design_matrix(
    battery,
    m: int,
    mode: str,
    base: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """Rows of d(limit)/d(dlam, dmu) for each probe in a computed mode: one of
    ``VARIANTS``, or ``"predicted"`` (the family energy at ``base``, whose row
    builds its probe's family jets once); the calibrated matrix is measured."""
    rows = []
    if mode in VARIANTS:
        for t in battery:
            rows.append([
                closed_form_response(t.a, t.omega, m, 1.0, 0.0, mode),
                closed_form_response(t.a, t.omega, m, 0.0, 1.0, mode),
            ])
        return np.array(rows)
    if mode == "predicted":
        if m < 1:
            raise ValueError("m >= 1; use order0_response for the plain pairing limit")
        for t in battery:
            jets = _family_jets(t.a, t.omega, *base)
            rows.append([_family_moment(jets, m, 1.0, 0.0), _family_moment(jets, m, 0.0, 1.0)])
        return np.array(rows)
    raise ValueError(f"unknown design-matrix mode {mode!r}")


@dataclass(frozen=True)
class OrderMResult:
    dlam: float
    dmu: float
    residual: float
    condition: float
    noise_bound: tuple[float, float]


def recover_order_m(ladders, A: np.ndarray, mode: str) -> OrderMResult:
    """Least-squares recovery of (d^m lam(0), d^m mu(0)) from the limits of the
    order-m ``ladders``, row i of the design matrix ``A`` being ladder i's
    probe; each ladder's noise propagates into ``noise_bound``. ``mode`` names
    ``A`` in the BatteryError of a rank-deficient matrix.
    """
    battery = [lr.template for lr in ladders]
    b = np.array([lr.limit for lr in ladders])
    noises = np.array([lr.noise for lr in ladders])
    x, resid, cond, pinv = _least_squares(A, b, battery,
                                          f"design matrix rank-deficient in mode {mode}")
    noise = np.sqrt((np.abs(pinv) ** 2) @ (noises**2))
    return OrderMResult(float(np.real(x[0])), float(np.real(x[1])), resid, cond,
                        (float(noise[0]), float(noise[1])))


# ---------------------------------------------------------------------------
# empirical calibration of the order-m response
# ---------------------------------------------------------------------------


class CalibrationError(NumericalDiagnostic):
    """Linearity of the measured response failed its tolerance."""


# the calibration's third profile has (d^m lam, d^m mu) = _MIXED_DERIVATIVES; its
# limits must match the unit profiles' combination within _LINEARITY_TOL relative
_LINEARITY_TOL, _MIXED_DERIVATIVES = 0.03, (0.4, 0.5)


@dataclass(frozen=True)
class CalibrationResult:
    matrix: np.ndarray  # (n_probes, 2) real
    linearity_error: float
    distances: dict
    ladders: dict = field(repr=False, default_factory=dict)


def _unit_profile(base, m, dlam, dmu) -> LameProfile:
    lam0, mu0 = base
    coeffs_l = [lam0] + [0.0] * (m - 1) + [dlam / math.factorial(m)]
    coeffs_m = [mu0] + [0.0] * (m - 1) + [dmu / math.factorial(m)]
    return LameProfile.from_polynomial(coeffs_l, coeffs_m, max_derivative_order=max(m, 2))


def calibrate_order_m(
    m: int,
    battery,
    N_list,
    base: tuple[float, float],
    matrices: dict,
    cutoff: CutoffProfile | None = None,
    rho_tilde: int | None = None,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> CalibrationResult:
    """Measure the order-m design matrix from the forward solver.

    Columns are ladder limits for the unit profiles lam = lam0 + y3^m/m! and
    mu = mu0 + y3^m/m!; linearity is verified against a third profile with
    mixed derivatives (prediction error above ``_LINEARITY_TOL`` rejects the
    calibration). The three profiles are one ladder group: their symbols, with
    their one shared constant truncation, are one memo entry, integrated on one
    Riccati step sequence, so their integrator errors are correlated in the
    linearity check. ``distances`` holds the relative Frobenius distance of
    each of ``matrices`` (mode -> the battery's design matrix at ``base``,
    which holds both ``VARIANTS``) from the measured matrix.
    """
    profiles = {"lam": _unit_profile(base, m, 1.0, 0.0), "mu": _unit_profile(base, m, 0.0, 1.0),
                "mixed": _unit_profile(base, m, *_MIXED_DERIVATIVES)}
    ladders = dict(zip(profiles, serial_ladder_runner(profiles.values(), battery, N_list, m,
                                                      cutoff, rho_tilde, quad)))
    cols = {key: np.array([float(np.real(lr.limit)) for lr in lrs])
            for key, lrs in ladders.items()}

    A = np.column_stack([cols["lam"], cols["mu"]])
    predicted_mix = A @ np.asarray(_MIXED_DERIVATIVES)
    scale = max(np.abs(cols["mixed"]).max(), 1e-300)
    lin_err = float(np.abs(predicted_mix - cols["mixed"]).max() / scale)
    if lin_err > _LINEARITY_TOL:
        raise CalibrationError(
            f"linearity violation {lin_err:.3%} exceeds {_LINEARITY_TOL:.1%}: "
            f"predicted {predicted_mix}, measured {cols['mixed']}"
        )

    scale = max(np.linalg.norm(A), 1e-300)
    distances = {mode: float(np.linalg.norm(np.real(B) - A) / scale)
                 for mode, B in matrices.items()}
    return CalibrationResult(A, lin_err, distances, ladders)


# ---------------------------------------------------------------------------
# full reconstruction drive
# ---------------------------------------------------------------------------


# the stages of reconstruct_profile that ReconstructionReport.stage_seconds times
_STAGES = ("order0_ladders", "order0_solve", "order_m_ladders", "order_m_solve", "calibration")


@dataclass
class ReconstructionReport:
    """Everything one run produces: ladders, limits, recoveries, diagnostics."""

    order0: Order0Result
    order0_ladders: list
    order_m: dict  # mode -> OrderMResult, one per design matrix of the run
    order_m_ladders: list
    calibration: CalibrationResult | None
    variant_verdict: str  # see reconstruct_profile
    order0_refined_limits: dict  # probe name -> deflated order-0 limit
    # wall time of each stage of reconstruct_profile; not part of to_dict
    stage_seconds: dict = field(default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        def ladder_dict(lr: LadderResult) -> dict:
            return {
                "probe": lr.template.name,
                "m": lr.m,
                "N": [int(n) for n in lr.N_values],
                "re": [float(v.real) for v in lr.values],
                "im": [float(v.imag) for v in lr.values],
                "limit_re": float(lr.limit.real),
                "limit_im": float(lr.limit.imag),
                "fit_flag": lr.extrapolation.flag,
                "noise": float(lr.noise),
            }

        out = {
            "order0": {
                "lambda": self.order0.lam,
                "mu": self.order0.mu,
                "residual": self.order0.residual,
                "ok": self.order0.ok,
                "method": self.order0.method,
            },
            "order_m": {
                mode: {
                    "dlam": r.dlam,
                    "dmu": r.dmu,
                    "residual": r.residual,
                    "condition": r.condition,
                    "noise_bound": list(r.noise_bound),
                }
                for mode, r in self.order_m.items()
            },
            "ladders": [ladder_dict(lr) for lr in self.order0_ladders + self.order_m_ladders],
            "variant_verdict": self.variant_verdict,
            "order0_refined_limits": {
                k: float(v) for k, v in sorted(self.order0_refined_limits.items())
            },
        }
        if self.calibration is not None:
            out["calibration"] = {
                "matrix": [[float(x) for x in row] for row in self.calibration.matrix],
                "linearity_error": self.calibration.linearity_error,
                "distances": self.calibration.distances,
            }
        return out


def reconstruct_profile(
    profile: LameProfile,
    m: int,
    N_list,
    battery=None,
    cutoff: CutoffProfile | None = None,
    rho_tilde: int | None = None,
    quad: QuadratureSettings = DEFAULT_QUAD,
    calibrate: bool = True,
) -> ReconstructionReport:
    """Order-0 recovery followed by order-m recovery in every available mode;
    each order's rho_tilde (default as in run_ladder) serves all its ladders.
    The battery's order-0 rows ``C`` are built once, and so is one table of
    design matrices (the computed modes at the recovered base, and the
    calibration's ``"calibrated"`` when one ran), from which every order-m
    solve reads. Refined order-0 moduli that are inadmissible raise ForwardError.

    The report's ``variant_verdict`` is ``"uncalibrated"`` when no calibration
    ran (order 0, or ``calibrate`` false), the closed-form variant nearest the
    calibrated matrix when it lies within 5% of it (relative Frobenius), and
    ``"calibration-only"`` otherwise."""
    seconds = dict.fromkeys(_STAGES, 0.0)

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        yield
        seconds[name] += time.perf_counter() - t0

    battery = battery if battery is not None else default_battery()
    C = order0_coefficients(battery)  # rejects an unidentifiable battery before any ladder
    cutoff = cutoff if cutoff is not None else DEFAULT_CUTOFF
    p = profile.holder_exponent
    rt0, rtm = (ProbeSpec.auto_rho_tilde(k, p) if rho_tilde is None else rho_tilde for k in (0, m))
    with stage("order0_ladders"):
        order0_ladders = serial_ladder_runner((profile,), battery, N_list, 0, cutoff, rt0,
                                              quad)[0]
    with stage("order0_solve"):
        order0, refined_limits = refine_order0(order0_ladders, C, cutoff, rt0, quad)
    base = (order0.lam, order0.mu)
    if not (base[1] > 0.0 and 3.0 * base[0] + 2.0 * base[1] > 0.0):
        raise ForwardError(f"order-0 recovery ended at inadmissible moduli lambda = {base[0]:.6g}, "
                           f"mu = {base[1]:.6g}: the ladders admit no elastic half-space")

    order_m_ladders = []
    order_m: dict[str, OrderMResult] = {}
    calibration = None
    verdict = "uncalibrated"
    if m >= 1:
        with stage("order_m_ladders"):
            order_m_ladders = serial_ladder_runner((profile,), battery, N_list, m, cutoff, rtm,
                                                   quad)[0]
        with stage("order_m_solve"):
            matrices = {mode: design_matrix(battery, m, mode, base)
                        for mode in (*VARIANTS, "predicted")}
        if calibrate:
            with stage("calibration"):
                calibration = calibrate_order_m(m, battery, N_list, base, matrices, cutoff,
                                                rtm, quad)
            matrices["calibrated"] = calibration.matrix
            # a closed-form variant is "validated" only if it actually reproduces
            # the measured matrix; otherwise the calibration stands alone
            nearest = min(VARIANTS, key=calibration.distances.get)
            verdict = nearest if calibration.distances[nearest] <= 0.05 else "calibration-only"
        with stage("order_m_solve"):
            order_m = {mode: recover_order_m(order_m_ladders, A, mode)
                       for mode, A in matrices.items()}
    return ReconstructionReport(
        order0=order0,
        order0_ladders=order0_ladders,
        order_m=order_m,
        order_m_ladders=order_m_ladders,
        calibration=calibration,
        variant_verdict=verdict,
        order0_refined_limits=refined_limits,
        stage_seconds=seconds,
    )
