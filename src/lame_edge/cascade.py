"""The approximate-solution corrector cascade behind the boundary probes.

The interior extension of a probe phi^N (see :mod:`lame_edge.ansatz`) is

    Phi^N(y) = e^{i N y'.omega} e^{-N y3} sum_n N^{-n rho} V^n(z', z3),

z' = N^{1-rho} y', z3 = N y3, where each V^n is exp(-z3) times a polynomial in
z3 whose coefficients are finite combinations of derivatives of eta. V^0 is the
decaying solution family of the frozen-coefficient operator; higher V^n are
produced by a cascade of constant-coefficient ODE solves in z3. The run path
never loads this module: ``ansatz-check`` and the residual-decay criterion do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .ansatz import CutoffProfile, ProbeSpec
from .elastic import LameProfile, NumericalDiagnostic, isotropic_components
from .stroh import acoustic_bracket, sigma_basis

__all__ = [
    "AnsatzSolution", "CascadeError", "DecayFit", "build_correctors", "evaluate_ansatz",
    "leading_profile", "residual_decay", "sigma_expand",
]

_E3 = np.array([0.0, 0.0, 1.0])
_E = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), _E3]


def sigma_expand(a, lam: float, mu: float, omega) -> tuple[complex, complex, complex]:
    """Coefficients of a in the sigma basis, with residual <= 1e-12 |a|."""
    a = np.asarray(a, dtype=complex).ravel()
    S = sigma_basis(lam, mu, omega)
    c = np.linalg.solve(S, a)
    resid = np.linalg.norm(S @ c - a)
    if resid > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise RuntimeError(f"sigma expansion residual {resid}")
    return complex(c[0]), complex(c[1]), complex(c[2])


# ---------------------------------------------------------------------------
# corrector arrays: V = exp(-z3) sum_d z3^d sum_beta d^beta eta(z') P[d, b1, b2, :]
# with beta = (b1, b2); trailing all-zero planes are trimmed on every axis
# ---------------------------------------------------------------------------

_GAMMA = ((1, 0), (0, 1))  # the tangential multi-indices of d/dz_1 and d/dz_2


def _trim(P: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """P with its coefficient vectors of norm <= tol zeroed, trailing zero planes cut."""
    P = np.where(np.linalg.norm(P, axis=-1, keepdims=True) > tol, P, 0.0)
    nonzero = np.nonzero(np.any(P != 0.0, axis=-1))
    return P[tuple(slice(0, int(i.max()) + 1 if i.size else 0) for i in nonzero)]


def _padded_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Sum of coefficient arrays of different shapes."""
    out = np.zeros(np.max([P.shape for P in arrays], axis=0), dtype=complex)
    for P in arrays:
        out[: P.shape[0], : P.shape[1], : P.shape[2]] += P
    return out


def _dz3(P: np.ndarray) -> np.ndarray:
    """d/dz3 of exp(-z3) sum_d z3^d P[d]: coefficients -P[d] + (d + 1) P[d + 1]."""
    out = -P
    out[:-1] += np.arange(1, P.shape[0])[:, None, None, None] * P[1:]
    return out


def _frozen_terms(lam: float, mu: float, omega: np.ndarray, t: int) -> list:
    """(k, gamma, M) terms, sum M d3^k d^gamma, of the frozen operator's part with t
    tangential derivatives, in acoustic brackets <xi, zeta>:

        t = 0:  <e3,e3> d3^2 + i(A + A^T) d3 - <omega,omega>,  A = <e3,omega>
        t = 1:  i(<omega,e_u> + <e_u,omega>) d_u + (<e_u,e3> + <e3,e_u>) d_u d3
        t = 2:  <e_u,e_v> d_u d_v
    """
    br = lambda xi, zeta: acoustic_bracket(lam, mu, xi, zeta)
    if t == 0:
        A = br(_E3, omega)
        return [(2, (0, 0), br(_E3, _E3)), (1, (0, 0), 1.0j * (A + A.T)),
                (0, (0, 0), -br(omega, omega))]
    if t == 1:
        return [term for u in range(2) for term in (
            (0, _GAMMA[u], 1.0j * (br(omega, _E[u]) + br(_E[u], omega))),
            (1, _GAMMA[u], br(_E[u], _E3) + br(_E3, _E[u])))]
    return [(0, tuple(np.add(_GAMMA[u], _GAMMA[v])), br(_E[u], _E[v]))
            for u in range(2) for v in range(2)]


def _gradient_terms(lam: float, mu: float, omega: np.ndarray, tau: int) -> list:
    """(k, gamma, M) terms of the coefficient-gradient part for modulus derivatives
    (lam, mu): <e3,e3> d3 + i<e3,omega> at tau = 0, <e3,e_u> d_u at tau = 1."""
    br = lambda xi, zeta: acoustic_bracket(lam, mu, xi, zeta)
    if tau == 0:
        return [(1, (0, 0), br(_E3, _E3)), (0, (0, 0), 1.0j * br(_E3, omega))]
    return [(0, _GAMMA[u], br(_E3, _E[u])) for u in range(2)]


def _apply(terms: list, P: np.ndarray) -> np.ndarray:
    """Coefficients of sum z3^b M d3^k d^gamma V over the terms (b, k, gamma, M)."""
    D, K1, K2, _ = P.shape
    shift = max((b for b, *_ in terms), default=0)
    out = np.zeros((D + shift, K1 + 2, K2 + 2, 3), dtype=complex)
    dP = [P, _dz3(P), _dz3(_dz3(P))]
    for b, k, (g1, g2), M in terms:
        out[b : b + D, g1 : g1 + K1, g2 : g2 + K2] += dP[k] @ M.T
    return _trim(out)


def _field(cutoff: CutoffProfile, P: np.ndarray, zp: np.ndarray, z3: np.ndarray) -> np.ndarray:
    """sum_d z3^d sum_beta d^beta eta(z') P[d, beta] at points (zp, z3), evaluating
    each nonzero beta's cutoff derivative once."""
    powers = z3[..., None] ** np.arange(P.shape[0])
    out = np.zeros(z3.shape + (3,), dtype=complex)
    for b1, b2 in zip(*np.nonzero(np.any(P != 0.0, axis=(0, 3)))):
        out += cutoff.derivative((b1, b2))(zp)[..., None] * (powers @ P[:, b1, b2])
    return out


class CascadeError(NumericalDiagnostic):
    """The stacked cascade solve failed its residual test."""


def _solve_l0(op0: list, rhs: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Solve op0 V = rhs for V = exp(-z3) * poly with V(0) = 0, bounded.

    One least-squares solve takes every eta-derivative column beta at once, at
    the smallest consistent degree: the rhs degree + 1, else + 2 (a higher
    degree only worsens the conditioning). Existence/uniqueness: the bounded
    solution with zero boundary trace is unique, so the stacked system is
    exactly consistent; the residual is asserted against ``tol``.
    """
    D, K1, K2, _ = rhs.shape
    if rhs.size == 0:
        return rhs
    F = rhs.transpose(0, 3, 1, 2).reshape(3 * D, K1 * K2)
    # only the betas present: all-zero columns change LAPACK's rounding of the others
    cols = np.flatnonzero(np.any(F != 0.0, axis=0))
    for n in (D + 1, D + 2):  # unknowns z3^d e_i, d = 1 .. n - 1
        Dz = np.diag(-np.ones(n)) + np.diag(np.arange(1.0, n), 1)
        M = sum(np.kron(np.linalg.matrix_power(Dz, k), Mk) for _, k, _, Mk in op0)[:, 3:]
        Fn = np.zeros((3 * n, cols.size), dtype=complex)
        Fn[: 3 * D] = F[:, cols]
        X = np.linalg.lstsq(M, Fn, rcond=None)[0]
        resid = np.linalg.norm(M @ X - Fn, axis=0)
        if np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(Fn, axis=0))):
            V = np.zeros((n, 3, K1 * K2), dtype=complex)
            V[1:, :, cols] = X.reshape(n - 1, 3, cols.size)
            scale = max(1.0, float(np.linalg.norm(rhs, axis=-1).max()))
            return _trim(V.reshape(n, 3, K1, K2).transpose(0, 2, 3, 1), tol=1e-14 * scale)
    degrees = np.nonzero(np.any(rhs != 0.0, axis=(1, 2, 3)))[0].tolist()
    raise CascadeError(
        f"stacked cascade solve inconsistent up to degree {D + 1} (rhs degrees {degrees})"
    )


@dataclass
class AnsatzSolution:
    """Corrector stack V^0 .. V^{m/rho} with its evaluator.

    ``stack[n]`` is the complex array P of V^n, of shape (degrees, b1, b2, 3):
    V^n = exp(-z3) sum_d z3^d sum_beta d^beta eta(z') P[d, beta]. ``operators[s]``
    lists the (b, k, gamma, M) terms of L_s, sum z3^b M d3^k d^gamma.
    """

    probe: ProbeSpec
    lam0: float
    mu0: float
    stack: list  # list[np.ndarray]
    operators: list = field(default_factory=list, repr=False)

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """Phi^N at points y (..., 3), y3 >= 0."""
        probe = self.probe
        y = np.asarray(y, dtype=float)
        yp, y3 = y[..., :2], y[..., 2]
        if np.any(y3 < -1e-15):
            raise ValueError("evaluation requires y3 >= 0")
        N, rho = probe.N, probe.rho
        amp = N ** (0.5 - rho)
        phase = np.exp(1j * N * (yp @ probe.omega[:2]))
        envelope = np.exp(-N * y3)
        P = _padded_sum([N ** (-n * rho) * V for n, V in enumerate(self.stack)])
        total = _field(probe.cutoff, P, N ** (1.0 - rho) * yp, N * y3)
        return (amp * phase * envelope)[..., None] * total

    def cascade_residual(self, n: int, grid: Iterable[tuple[float, float, float]]) -> float:
        """Pointwise max of |op0 V^n + sum_s L_s V^{n-s}| on a (z1, z2, z3) grid.

        Oracle: the tests hold it to rounding for every corrector, so each
        cascade equation is solved exactly."""
        op0 = [(0, *term) for term in _frozen_terms(self.lam0, self.mu0, self.probe.omega, 0)]
        R = _padded_sum([_apply(op0, self.stack[n])]
                        + [_apply(self.operators[s], self.stack[n - s]) for s in range(1, n + 1)])
        z = np.array(list(grid), dtype=float)
        vals = _field(self.probe.cutoff, R, z[:, :2], z[:, 2])
        return float(np.max(np.linalg.norm(vals, axis=1) * np.exp(-z[:, 2])))


def leading_profile(probe: ProbeSpec, lam0: float, mu0: float) -> AnsatzSolution:
    """V^0 only: exp(-z3) eta(z') (a + i c3 z3 sigma_2)."""
    c3 = sigma_expand(probe.a, lam0, mu0, probe.omega)[2]
    S = sigma_basis(lam0, mu0, probe.omega)
    P = np.zeros((2, 1, 1, 3), dtype=complex)
    P[0, 0, 0] = probe.a
    P[1, 0, 0] = 1.0j * c3 * S[:, 1]
    return AnsatzSolution(probe, lam0, mu0, [_trim(P)])


def _assemble_operators(probe: ProbeSpec, profile: LameProfile, s_max: int) -> list:
    """Terms of L_s, s = 0..s_max, for a depth-only profile (Taylor order m).

    L_s takes the part with t = s - b rho_tilde in {0, 1, 2} tangential
    derivatives of each Taylor coefficient b, and the coefficient-gradient part
    with tau = s - (b + 1) rho_tilde in {0, 1} of each derivative b + 1, both
    multiplied by z3^b.
    """
    m, rt, omega = probe.m, probe.rho_tilde, probe.omega
    lam_b, mu_b = profile.taylor_coefficients(m)
    ops = []
    for s in range(s_max + 1):
        terms = [(b, *term) for b in range(m + 1) if 0 <= s - b * rt <= 2
                 for term in _frozen_terms(lam_b[b], mu_b[b], omega, s - b * rt)]
        terms += [(b, *term) for b in range(m) if 0 <= s - (b + 1) * rt <= 1
                  for term in _gradient_terms((b + 1) * lam_b[b + 1], (b + 1) * mu_b[b + 1],
                                              omega, s - (b + 1) * rt)]
        ops.append(terms)
    return ops


def build_correctors(probe: ProbeSpec, profile: LameProfile) -> AnsatzSolution:
    """Full stack V^0 .. V^{m/rho} for a depth-only profile.

    Each cascade equation op0 V^n = -sum_{s=1..n} L_s V^{n-s} is solved exactly
    (one stacked linear solve for all eta-derivative columns) and the boundary
    traces V^n(z', 0) = 0 for n >= 1 hold by construction.
    """
    if probe.m > profile.max_derivative_order:
        raise ValueError(
            f"profile provides derivatives up to {profile.max_derivative_order}, "
            f"probe requires m = {probe.m}"
        )
    lam0 = float(profile.lam(0.0))
    mu0 = float(profile.mu(0.0))
    sol = leading_profile(probe, lam0, mu0)
    n_max = probe.n_correctors
    ops = _assemble_operators(probe, profile, n_max)
    for n in range(1, n_max + 1):
        rhs = -_padded_sum([_apply(ops[s], sol.stack[n - s]) for s in range(1, n + 1)])
        sol.stack.append(_solve_l0(ops[0], _trim(rhs, tol=1e-15)))
    sol.operators = ops
    return sol


def evaluate_ansatz(stack: AnsatzSolution, probe: ProbeSpec, y: np.ndarray) -> np.ndarray:
    """Phi^N at points y for the given probe.

    The corrector stack is N-independent; a probe differing only in N rebinds
    the stack. A probe with different amplitude or direction is rejected.
    """
    if probe is not stack.probe:
        same = (
            np.allclose(probe.a, stack.probe.a)
            and np.allclose(probe.omega, stack.probe.omega)
            and probe.rho_tilde == stack.probe.rho_tilde
            and probe.m == stack.probe.m
        )
        if not same:
            raise ValueError("stack was built for a different probe template")
        stack = AnsatzSolution(probe, stack.lam0, stack.mu0, stack.stack, stack.operators)
    return stack.evaluate(y)


# ---------------------------------------------------------------------------
# residual decay of the full operator, by finite differences
# ---------------------------------------------------------------------------

_FD1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FD2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFS = np.arange(-2, 3)


def _apply_operator_fd(
    profile: LameProfile,
    evaluator: Callable[[np.ndarray], np.ndarray],
    centers: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """div(C grad u) at each center by 4th-order finite differences.

    For depth-only coefficients: (Lu)_i = C_ijkl d_j d_l u_k
    + (d3 C)_i3kl d_l u_k.
    """
    n = centers.shape[0]
    offsets = np.stack(np.meshgrid(_OFFS, _OFFS, _OFFS, indexing="ij"), axis=-1)
    planar = (offsets == 0).any(axis=-1)  # the 61 points the stencils read; the rest stay 0
    u = np.zeros((n, 5, 5, 5, 3), dtype=complex)
    u[:, planar] = evaluator((centers[:, None] + offsets[planar] * steps).reshape(-1, 3)
                             ).reshape(n, -1, 3)
    w1, w2 = _FD1 / steps[:, None], _FD2 / steps[:, None] ** 2
    # stencil lines through the center along each axis, planes through it per axis pair
    lines = (u[:, :, 2, 2], u[:, 2, :, 2], u[:, 2, 2, :])
    planes = {(0, 1): u[:, :, :, 2], (0, 2): u[:, :, 2, :], (1, 2): u[:, 2, :, :]}
    grad = np.stack([w1[j] @ lines[j] for j in range(3)], axis=1)  # [center, l, k]
    hess = np.empty((n, 3, 3, 3), dtype=complex)  # [center, j, l, k]
    for j in range(3):
        hess[:, j, j] = w2[j] @ lines[j]
    for (j, l), plane in planes.items():
        hess[:, j, l] = hess[:, l, j] = w1[j] @ (w1[l] @ plane)

    y3 = centers[:, 2]
    col = lambda f, order: np.asarray(f(y3, order), dtype=float)[:, None, None, None, None]
    C = isotropic_components(col(profile.lam, 0), col(profile.mu, 0))
    dC = isotropic_components(col(profile.lam, 1), col(profile.mu, 1))
    return np.einsum("nijkl,njlk->ni", C, hess) + np.einsum("nikl,nlk->ni", dC[:, :, 2], grad)


@dataclass(frozen=True)
class DecayFit:
    """Decay fit of the amplitude-normalized residual sup norm.

    ``slope`` is the leading exponent of the two-term model
    c1 N^q + c2 N^{q - rho}; the cascade produces a residual series with
    exponents spaced by rho, and at desk-scale N the subleading constant can
    exceed the leading one severalfold, which makes the raw log-log slope
    (``raw_slope``, kept as a diagnostic) sit between the two exponents.
    """

    N_values: np.ndarray
    norms: np.ndarray
    slope: float
    raw_slope: float
    coefficients: tuple[float, float]
    fd_disagreement: float


def _two_term_exponent(N: np.ndarray, norms: np.ndarray, rho: float):
    """Scan the leading exponent q of c1 N^q + c2 N^{q-rho} by relative LSQ.

    q runs over k * 0.0025, k = -1200 .. 1200: the bound 2 - m - rho is
    negative from m = 2 on, and integer multiples keep the scanned values exact.
    """
    q = np.arange(-1200, 1201) * 0.0025
    B = np.stack([N ** q[:, None], N ** (q[:, None] - rho)], axis=-1) / norms[:, None]
    c = np.linalg.pinv(B) @ np.ones(N.size)
    mis = np.linalg.norm(np.einsum("qnj,qj->qn", B, c) - 1.0, axis=1)
    i = int(np.argmin(mis))
    return float(q[i]), (float(c[i, 0]), float(c[i, 1]))


_FD_DELTA = 0.08  # finite-difference step in stretched coordinates (z', z3)
_N_ZPRIME, _N_DEPTH = 12, 14  # tangential sample points and depths of the residual grid


def residual_decay(probes: list[ProbeSpec], profile: LameProfile) -> DecayFit:
    """Fitted decay exponent of sup |L Phi^N| over a dyadic probe ladder.

    The operator is applied by 4th-order finite differences of the ansatz
    evaluator, on ``_N_ZPRIME`` tangential points times ``_N_DEPTH`` depths
    graded to resolve exp(-N y3), with step ``_FD_DELTA``; norms are divided
    by the probe amplitude N^{1/2 - rho} so the fitted slope is comparable
    with the unnormalized bound N^{2 - m - rho}. A step-halving disagreement
    at the largest N is reported; values above ~10% of the norm indicate the
    finite-difference error dominates.
    """
    if len(probes) < 4:
        raise ValueError("need at least 4 ladder probes")
    template = probes[0]
    stack = build_correctors(template, profile)

    rng = np.random.default_rng(7)
    radii = np.sqrt(rng.uniform(0.0, 0.8, _N_ZPRIME))
    angles = rng.uniform(0.0, 2.0 * np.pi, _N_ZPRIME)
    zp = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    z3 = np.geomspace(0.3, 6.0, _N_DEPTH)

    def sup_norm(probe: ProbeSpec, delta: float) -> float:
        N, rho = probe.N, probe.rho
        yp = zp * N ** (rho - 1.0)
        y3 = z3 / N
        centers = np.column_stack(
            [np.repeat(yp, len(y3), axis=0), np.tile(y3, len(yp))]
        )
        steps = np.array(
            [delta * N ** (rho - 1.0), delta * N ** (rho - 1.0), delta / N]
        )
        Lphi = _apply_operator_fd(profile, lambda y: evaluate_ansatz(stack, probe, y),
                                  centers, steps)
        return float(np.max(np.linalg.norm(Lphi, axis=1))) / N ** (0.5 - rho)

    Ns = np.array([p.N for p in probes], dtype=float)
    norms = np.array([sup_norm(p, _FD_DELTA) for p in probes])
    check = sup_norm(probes[-1], _FD_DELTA / 2.0)
    fd_disagreement = abs(check - norms[-1]) / max(norms[-1], 1e-300)
    raw_slope = float(np.polyfit(np.log(Ns), np.log(norms), 1)[0])
    q, coeffs = _two_term_exponent(Ns, norms, template.rho)
    return DecayFit(Ns, norms, q, raw_slope, coeffs, float(fd_disagreement))
