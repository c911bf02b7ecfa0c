"""References that the tests and acceptance criteria check the run path against.

Each docstring names what the reference checks and what arithmetic it shares
with that code; ``tests/test_exports.py`` lists each import from the run
modules that shares some. No subcommand loads this module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .ansatz import ProbeSpec, gauss_legendre
from .elastic import LameProfile, check_admissible, validate_admissibility
from .forward import EFOLDS, H_MAX, ForwardError, RadialDtnTable
from .reconstruct import _family_jets, _family_moment
from .stroh import _as_tangent, _taq, first_order_matrix, reference_chain

__all__ = ["boundary_datum", "characteristic_det", "characteristic_det_factored", "dtn_symbol",
           "dtn_symbol_march", "half_space_impedance", "limit_quadrature", "order0_response",
           "truncation_depth"]


def truncation_depth(k) -> float:
    """H(k) = min(H_MAX, EFOLDS / |k|), and H_MAX at k = 0: the core's start depth, restated."""
    kn = float(np.linalg.norm(k))
    return H_MAX if kn == 0.0 else min(H_MAX, EFOLDS / kn)


def _unit_tangent(k) -> tuple[float, np.ndarray]:
    """(|k|, k/|k| as a 3-vector; e1 at k = 0) for the single-frequency oracles."""
    k = np.asarray(k, dtype=float).ravel()
    if k.size == 3:
        if abs(k[2]) > 1e-14:
            raise ValueError("tangential frequency must have k3 = 0")
        k = k[:2]
    if k.shape != (2,):
        raise ValueError("k must be a 2-vector")
    kn = float(np.hypot(k[0], k[1]))
    if kn == 0.0:
        return 0.0, np.array([1.0, 0.0, 0.0])
    return kn, np.array([k[0] / kn, k[1] / kn, 0.0])


def half_space_impedance(lam: float, mu: float, k) -> np.ndarray:
    """Homogeneous half-space DtN symbol M with traction = M . displacement.

    Oracle: on a constant profile the Riccati symbol must equal it (the
    flow's fixed point), and it starts :func:`dtn_symbol_march`. Built from
    the decaying (+i) Jordan family: surface states q_g = [u_g; w_g] carry
    traction density tau = i w, and the traction with respect to the outward
    normal is -tau, so M = -|k| i W U^{-1}. Hermitian positive definite and
    degree-1 homogeneous in k. It shares ``stroh.reference_chain`` with
    ``eigen_jordan``'s gauge, and nothing with the core.
    """
    kn, what = _unit_tangent(k)
    if kn == 0.0:
        return np.zeros((3, 3), dtype=complex)
    q1, q2, q3 = reference_chain(lam, mu, what)
    U = np.column_stack([q1[:3], q2[:3], q3[:3]])
    W = np.column_stack([q1[3:], q2[3:], q3[3:]])
    return -kn * 1.0j * W @ np.linalg.inv(U)


def _assemble(s: np.ndarray) -> np.ndarray:
    """3x3 Hermitian symbols from reduced rows (M11, M22, M33, Im M13) on the last axis."""
    M = np.zeros(s.shape[:-1] + (3, 3), dtype=complex)
    M[..., [0, 1, 2], [0, 1, 2]] = s[..., :3]
    M[..., 0, 2] = 1.0j * s[..., 3]
    M[..., 2, 0] = -1.0j * s[..., 3]
    return M


def dtn_symbol(profile: LameProfile, k, tol: float = 1e-10) -> np.ndarray:
    """Surface DtN symbol M(k) = R(theta) M0(|k|) R(theta)^T by stable impedance marching.

    Oracle: one radius of ``forward.RadialDtnTable``, rotated, against which
    criterion 3 picks the impedance variant and the tests check
    ``RadialSymbol``'s interpolated rows at any k. It shares the Riccati core
    with them, so it checks the interpolation and the rotation, not the core.
    """
    kn, what = _unit_tangent(k)
    report = validate_admissibility(profile, truncation_depth(k))
    if not report.passed:
        raise ForwardError(report.message())
    M0 = RadialDtnTable(profile, kn, [kn], tol).reduced[0]
    c, s = what[0], what[1]
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # takes e1 to k/|k|
    return R @ _assemble(M0) @ R.T


def dtn_symbol_march(profile: LameProfile, k, n_steps: int = 600) -> np.ndarray:
    """Independent oracle: orthonormalized marching of the decaying subspace.

    The tests check :func:`dtn_symbol` against it on random graded profiles
    in both depth bands. Fixed-grid RK4 on the full 6x3 linear system
    dW/dt = i K W in scaled depth t = |k| y3, with per-step QR
    re-orthonormalization; M is recovered from the surface trace pair (the
    traction is i times the lower block). It shares K (``stroh.first_order_matrix``
    of ``stroh._taq``), whose reduced flow the core integrates, and nothing of the core.
    """
    kn, what = _unit_tangent(k)
    if kn == 0.0:
        return np.zeros((3, 3), dtype=complex)
    H = truncation_depth(k)
    # i K at every RK4 stage depth, t = |k| H down to 0 in half steps
    y3 = H * (1.0 - np.arange(2 * n_steps + 1) / (2 * n_steps))
    iK = 1.0j * first_order_matrix(*_taq(profile.lam(y3), profile.mu(y3), what))

    lamH = float(profile.lam(H))
    muH = float(profile.mu(H))
    S_H = -half_space_impedance(lamH, muH, kn * what[:2]) / kn
    W = np.vstack([np.eye(3, dtype=complex), -1.0j * S_H])
    # the RK4 step of a linear system is a matrix: W -> P W, all steps at once
    dt, eye = -kn * H / n_steps, np.eye(6)
    K0, Kh, K1 = iK[:-1:2], iK[1::2], iK[2::2]
    k2 = Kh @ (eye + dt / 2 * K0)
    k3 = Kh @ (eye + dt / 2 * k2)
    k4 = K1 @ (eye + dt * k3)
    for P in eye + dt / 6 * (K0 + 2 * k2 + 2 * k3 + k4):
        W, _ = np.linalg.qr(P @ W)
    return -kn * 1.0j * W[3:] @ np.linalg.inv(W[:3])


def limit_quadrature(f, taylor_coeffs, k_order: int, N: int, cutoff=None) -> float:
    """N^{2+k} int_0^{1/(2 sqrt N)} int (eta^N)^2 e^{-2 N y3} (f - f^k) dy' dy3.

    Oracle of criterion 8: the localized limit that the pairing ladders
    approach, on a depth-only integrand, with no symbol or polar grid; it
    shares ``ansatz.gauss_legendre``, the rule of ``forward.polar_grid``.
    ``f`` is a depth-only integrand, ``taylor_coeffs`` its surface Taylor
    coefficients of orders 0..k-1 defining f^k. The tangential factor
    integrates exactly to (cutoff L2 mass)/N under the probe normalization.
    For f in C^k the value converges to d^k f(0) / 2^{k+1} as N grows.
    """
    mass = 1.0 if cutoff is None else cutoff.l2_mass()
    upper = 0.5 / math.sqrt(N)
    x, w = gauss_legendre(240)
    y3 = 0.5 * upper * (x + 1.0)
    wy = 0.5 * upper * w
    fk = np.zeros_like(y3)
    for n, c in enumerate(taylor_coeffs[:k_order]):
        fk += c * y3**n
    vals = (np.asarray(f(y3), dtype=float) - fk) * np.exp(-2.0 * N * y3)
    integral = float(np.sum(wy * vals))
    return N ** (2 + k_order) * (mass / N) * integral


def characteristic_det(lam: float, mu: float, omega, sigma: complex) -> complex:
    """det[T s^2 + (A + A^T) s + Q] for the quadratic pencil at s = sigma.

    Oracle of criterion 1: assembled from the brackets, it must equal
    :func:`characteristic_det_factored`, whose roots +-i give K its spectrum.
    It shares ``stroh._taq`` and ``stroh._as_tangent`` with ``stroh_matrix``."""
    check_admissible(lam, mu)
    w = _as_tangent(omega)
    T, A, Q = _taq(lam, mu, w)
    P = T * sigma**2 + (A + A.T) * sigma + Q
    return complex(np.linalg.det(P))


def characteristic_det_factored(lam: float, mu: float, sigma: complex) -> complex:
    """mu^2 (lam + 2 mu) (1 + sigma^2)^3, the closed factorization of the pencil
    (criterion 1 checks :func:`characteristic_det` against it); shares nothing."""
    return mu**2 * (lam + 2.0 * mu) * (1.0 + sigma**2) ** 3


def order0_response(a, omega, lam0: float, mu0: float) -> float:
    """Predicted order-0 pairing limit: the family energy at (lam0, mu0), m = 0.

    Oracle: the tests check that it equals the impedance quadratic form
    a^H Z a, which ties the family energy that order m uses to order 0. It shares
    that energy (``reconstruct._family_jets``, ``_family_moment``) with the predicted mode.
    """
    return _family_moment(_family_jets(a, omega, lam0, mu0), 0, lam0, mu0)


def boundary_datum(probe: ProbeSpec) -> Callable[[np.ndarray], np.ndarray]:
    """phi^N(y') = N^{1/2-rho} eta(N^{1-rho} y') exp(i N y'.omega') a.

    Oracle: the ansatz's trace at y3 = 0 must equal it, and its mass and
    support are checked against the probe normalization. It shares the
    cutoff's ``derivative((0, 0))`` with the ansatz of ``cascade``."""
    N, rho = probe.N, probe.rho
    amp = N ** (0.5 - rho)
    scale = N ** (1.0 - rho)
    w2 = probe.omega[:2]
    eta = probe.cutoff.derivative((0, 0))

    def phi(yprime: np.ndarray) -> np.ndarray:
        yp = np.asarray(yprime, dtype=float)
        envelope = amp * eta(scale * yp)
        phase = np.exp(1j * N * (yp @ w2))
        return (envelope * phase)[..., None] * probe.a

    return phi
