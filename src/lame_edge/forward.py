"""Ground-truth DN pairings for depth-stratified profiles.

Geometry convention: the half-space is {y3 > 0}, the outward unit normal is
nu = (0, 0, -1). For tangential frequency k the displacement trace determines
a traction trace through the 3x3 symbol M(k); the sign of M is fixed by
requiring the equal-slot pairing <traction, trace> to be positive (elastic
energy), which makes M Hermitian positive definite.

The primary solver propagates the impedance S = -M (a matrix Riccati flow)
from a truncation depth H(k) = min(H_max, efolds/|k|) to the surface,
initialized with the frozen-coefficient half-space impedance. Isotropy and
depth-only coefficients give M(k) = R(theta) M0(|k|) R(theta)^T with
M0(r) = M(r e1), and at k = r e1 the flow decouples exactly into an SH scalar
S22 and a Hermitian P-SV block [[S11, i b], [-i b, S33]] with S11, S33, b
real; every other entry stays zero. The state is therefore 4 reals per
radial node, (S11, S22, S33, b), and with g = lam/(lam+2mu), p = 1/mu,
q = 1/(lam+2mu), P = 4mu(lam+mu)/(lam+2mu):

    dS11 = rho^2 P - 2 rho g b - (p S11^2 + q b^2)
    dS22 = rho^2 mu - p S22^2
    dS33 = 2 rho b - (p b^2 + q S33^2)
    db   = rho (S11 - g S33) - b (p S11 + q S33)

in physical depth (rho = r) or in scaled depth t = r y3 for S / r (rho = 1).
One core, :func:`_radial_symbols`, integrates this jointly for a batch of
radial nodes with an in-house DOP853 (:func:`_dop853`) that accepts a step on
the largest single-node error, each weighted by how much of it reaches the
surface (the flow contracts at 2|k| in depth), so every node meets the
tolerance at the surface on its own; every step stays inside DOP853's
stability interval.
The flow is linear in 11 monomials of the state (S11, S22, S33, b, their
squares, S11 b, S33 b, 1) with coefficients that depend on depth alone: these
are evaluated once per step for all 12 stage times on the (stage, node) grid,
and a flow evaluation builds the monomials and contracts them once.
A profile's symbol (:class:`RadialSymbol`) serves every radius: it
interpolates R(r) = M0(r) - r Z(lam(0), mu(0)), smooth in s = r / (r + 2) on
[0, 1], from certified Chebyshev points in s (none for a constant profile),
memoised by profile content and tolerance alone, so all ladders of a profile
share it. :func:`dtn_symbol`, a direct batch of one, rotated, checks it; the
orthonormalized subspace march on the full 6x3 system is the independent oracle.

Pairings never assemble the 3x3 symbol: with b = R(theta)^T a and
rows = (M11, M22, M33, Im M13), a^H M(k) a = rows(|k|) . C(a) f(theta), where
f = (1, cos, sin, cos 2., sin 2.)(theta) and C(a) f = (|b1|^2, |b2|^2, |a3|^2,
-2 Im(conj(b1) a3)). In the offset angle phi = theta - theta0 the polar grid's
weights W(r, phi) do not depend on the probe direction, so a pairing is
sum(rows * (F @ C(a')^T)) with a' = R(theta0)^T a and F = W @ f(phi)^T, the
grid's memoised angular moments. The rows at the grid's radii are one
barycentric product, whose weights the grid keeps per Chebyshev point count.
"""

from __future__ import annotations

import math
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ansatz import ProbeSpec
from .elastic import LameProfile, taylor_truncate, validate_admissibility
from .stroh import _taq, first_order_matrix, impedance_basis, reference_chain

__all__ = [
    "DtnSymbol", "ForwardError", "HalfSpaceFrame", "PairingResult", "QuadratureSettings",
    "RadialDtnTable", "RadialSymbol", "depth_stroh", "difference_pairing", "dtn_symbol",
    "dtn_symbol_march", "half_space_impedance", "interpolation_counts", "limit_quadrature",
    "pairing", "polar_grid", "symbol_memo", "warm_tables",
]


class ForwardError(RuntimeError):
    """Forward-solver diagnostic (stiff segment, admissibility, tail)."""


@dataclass(frozen=True)
class HalfSpaceFrame:
    """Domain {y3 > 0} with outward normal (0, 0, -1) and truncation policy."""

    H_max: float = 2.0
    efolds: float = 14.0

    outward_normal = np.array([0.0, 0.0, -1.0])

    def depth(self, k) -> float:
        kn = float(np.linalg.norm(k))
        return self.H_max if kn == 0.0 else min(self.H_max, self.efolds / kn)


DEFAULT_FRAME = HalfSpaceFrame()


def _unit_tangent(k) -> tuple[float, np.ndarray]:
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


_E1 = np.array([1.0, 0.0, 0.0])
# (Z_lam, Z_mu)(e1) of stroh.impedance_basis as reduced rows, shape (2, 4)
Z_ROWS_E1 = np.array([[B[0, 0].real, B[1, 1].real, B[2, 2].real, B[0, 2].imag]
                      for B in impedance_basis(_E1)])
Z_ROWS_E1.setflags(write=False)


def _impedance_rows(lam, mu) -> np.ndarray:
    """Rows of Z(lam, mu) at e1, trailing axis 4, for moduli of one shape."""
    lam, mu = np.asarray(lam, dtype=float)[..., None], np.asarray(mu, dtype=float)[..., None]
    return mu / (lam + 3.0 * mu) * (lam * Z_ROWS_E1[0] + mu * Z_ROWS_E1[1])


def depth_stroh(profile: LameProfile, y3: float, k) -> np.ndarray:
    """First-order 6x6 matrix of the depth-frozen medium at (y3, k).

    Same state convention as :func:`lame_edge.stroh.stroh_matrix`; for a
    constant profile and |k| = 1 the two agree exactly.
    """
    kn, what = _unit_tangent(k)
    T, A, Q = _taq(float(profile.lam(y3)), float(profile.mu(y3)), what)
    return first_order_matrix(T, kn * A, kn**2 * Q)


def half_space_impedance(lam: float, mu: float, k) -> np.ndarray:
    """Homogeneous half-space DtN symbol M with traction = M . displacement.

    Built from the decaying (+i) Jordan family: surface states q_g = [u_g; w_g]
    carry traction density tau = i w, and the traction with respect to the
    outward normal is -tau, so M = -|k| i W U^{-1}. Hermitian positive
    definite and degree-1 homogeneous in k.
    """
    kn, what = _unit_tangent(k)
    if kn == 0.0:
        return np.zeros((3, 3), dtype=complex)
    q1, q2, q3 = reference_chain(lam, mu, what)
    U = np.column_stack([q1[:3], q2[:3], q3[:3]])
    W = np.column_stack([q1[3:], q2[3:], q3[3:]])
    return -kn * 1.0j * W @ np.linalg.inv(U)


@dataclass(frozen=True)
class DtnSymbol:
    """DtN symbol at one tangential frequency, with solver metadata."""

    k: np.ndarray
    matrix: np.ndarray
    H: float
    method: str
    tol: float
    n_steps: int

    @property
    def hermiticity_defect(self) -> float:
        M = self.matrix
        s = max(1.0, float(np.abs(M).max()))
        return float(np.abs(M - M.conj().T).max()) / s


def _assemble(s: np.ndarray) -> np.ndarray:
    """3x3 Hermitian symbols from reduced rows (M11, M22, M33, Im M13) on the last axis."""
    M = np.zeros(s.shape[:-1] + (3, 3), dtype=complex)
    M[..., [0, 1, 2], [0, 1, 2]] = s[..., :3]
    M[..., 0, 2] = 1.0j * s[..., 3]
    M[..., 2, 0] = -1.0j * s[..., 3]
    return M


def _form_coefficients(a) -> np.ndarray:
    """C(a), shape (4, 5): C(a) f(theta) = Phi(theta) for b = R(theta)^T a (module docstring)."""
    a = np.asarray(a, dtype=complex)
    h, d = 0.5 * (abs(a[0]) ** 2 + abs(a[1]) ** 2), 0.5 * (abs(a[0]) ** 2 - abs(a[1]) ** 2)
    x, (u, v) = (a[0].conj() * a[1]).real, (a[:2].conj() * a[2]).imag
    return np.array([[h, 0.0, 0.0, d, x], [h, 0.0, 0.0, -d, -x],
                     [abs(a[2]) ** 2, 0.0, 0.0, 0.0, 0.0], [0.0, -2.0 * u, -2.0 * v, 0.0, 0.0]])


def _harmonics(c, s) -> np.ndarray:
    """f(theta) = (1, cos, sin, cos 2theta, sin 2theta) from c, s = cos, sin; trailing axis 5."""
    return np.stack([np.ones_like(c), c, s, c * c - s * s, 2.0 * c * s], axis=-1)


# DOP853 (Hairer, Norsett & Wanner, Solving ODE I, sec. II.10): stage matrix A,
# stage nodes C (its row sums), 8th-order weights B, 5th/3rd-order error weights
_DOP_A = np.zeros((12, 12))
for _i, _row in enumerate((
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
), start=1):
    _DOP_A[_i, :len(_row)] = _row
_DOP_C = _DOP_A.sum(axis=1)
_DOP_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                   1.8915178993145003, -5.801203960010585, 0.3111643669578199,
                   -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1)
_DOP_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                    0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_DOP_AB, _DOP_E = np.vstack([_DOP_A, _DOP_B]), np.array([_DOP_E5, _DOP_E3])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_DOP_STABILITY = 6.3936515  # |R(z)| = 1 at z = -6.39..., R the stability function of (A, B)


def _node_norm(x: np.ndarray) -> float:
    """Largest per-node RMS of x, components on axis 0 and nodes on axis 1."""
    return float(np.sqrt(np.max(np.mean(x * x, axis=0))))


def _dop853(coefficients, flow, t0: float, t1: float, y0: np.ndarray, tol: float,
            rate: np.ndarray) -> tuple[np.ndarray, int, int, int, int]:
    """y(t1) for y' = f(t, y), split into depth coefficients and an in-place flow.

    ``coefficients(taus)`` returns the depth-only coefficients at the 1-D
    array of times ``taus``, stacked on a leading axis; ``flow(y, C, i, out)``
    writes f(taus[i], y) into ``out`` from the i-th of them, so the flow itself
    touches only the state. Each attempted step asks for its coefficients
    once, at all 12 stage times t + C[1:12] h and at t_new (exactly: the
    first-same-as-last evaluation that starts the next step), and takes
    h (A; B) once: each stage state is y + (h A[s, :s]) @ K[:s] in one
    preallocated buffer. The increment is summed before it meets y, so y is
    rounded once per stage.

    ``y0`` has shape (m, n): m components of each of n uncoupled nodes, and
    ``rate`` (shape (n,)) is a lower bound on the rate at which each node's
    linearised flow contracts toward t1, with eigenvalues at most double.
    Each node's error is DOP853's combined 5th/3rd-order estimate over its
    own components (atol = rtol = tol), weighted by exp(-x) at
    x = rate/2 |t1 - t_new|: an error present at t_new reaches t1 damped by
    exp(-2x) times a quadratic in x (the double eigenvalue's Jordan block),
    which stays below a small constant times exp(-x) (2.5 for the Riccati
    core). So the steps next to t1 are held to tol unweighted and deeper ones
    only as far as their error reaches t1. A step is accepted when the
    largest weighted error is below 1, so no node is diluted by the rest;
    the next step is sized for the larger weight one step nearer t1, so the
    weight's growth does not make it fail. Every step is also capped at half
    of DOP853's real stability interval over max(rate): on a flow too smooth
    for the error estimate to limit the step, rounding offsets are then
    damped, not amplified. Step control and
    the initial step follow Hairer, Norsett & Wanner (II.4; stability, IV.2).
    Returns y(t1), the accepted and rejected step counts, the number of flow
    evaluations and the number of accepted steps whose size the cap set.
    """
    y = np.array(y0, dtype=float, order="C")  # the reshaped buffers below are views
    K = np.empty((12,) + y.shape)
    Kf = K.reshape(12, -1)
    stage = np.empty_like(y)
    stage_f = stage.reshape(-1)
    direction, span = math.copysign(1.0, t1 - t0), abs(t1 - t0)
    flow(y, coefficients(np.array([t0])), 0, K[0])
    scale = tol + tol * np.abs(y)
    d0, d1 = _node_norm(y / scale), _node_norm(K[0] / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    flow(y + direction * h0 * K[0], coefficients(np.array([t0 + direction * h0])), 0, K[1])
    d = max(d1, _node_norm((K[1] - K[0]) / scale) / h0)
    h_abs = min(100.0 * h0, span, max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.125)
    fastest, kappa = float(np.max(rate)), 0.5 * np.asarray(rate, dtype=float)
    h_cap = 0.5 * _DOP_STABILITY / fastest if fastest > 0.0 else math.inf
    t, accepted, rejected, capped, retried, evaluations = t0, 0, 0, 0, False, 2
    while t != t1:
        min_step = 10.0 * abs(np.nextafter(t, direction * math.inf) - t)
        h_abs = h_abs if h_abs >= min_step else min_step  # a NaN estimate too
        at_cap = h_abs >= h_cap
        h_abs = h_cap if at_cap else h_abs
        t_new = t1 if h_abs >= abs(t1 - t) else t + direction * h_abs
        h = t_new - t
        C = coefficients(np.append(t + _DOP_C[1:12] * h, t_new))
        hAB = h * _DOP_AB
        for s in range(1, 12):
            np.matmul(hAB[s, :s], Kf[:s], out=stage_f)
            stage += y
            flow(stage, C, s - 1, K[s])
        evaluations += 11
        y_new = y + (hAB[12] @ Kf).reshape(y.shape)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        e5, e3 = np.sum(((_DOP_E @ Kf).reshape((2,) + y.shape) / scale) ** 2, axis=1)
        local = abs(h) * e5 / np.sqrt(np.maximum((e5 + 0.01 * e3) * y.shape[0], 1e-300))
        weight = np.exp(-kappa * abs(t1 - t_new))
        err = float(np.max(weight * local))
        if not err < 1.0:  # NaN rejects too
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.125)
            rejected, retried = rejected + 1, True
            if h_abs < min_step:
                raise ForwardError(f"Riccati integration: step size underflow at t = {t}")
            continue
        # the next step ends about |h| nearer t1, where its error weighs more
        ahead = float(np.max(np.minimum(weight * np.exp(kappa * abs(h)), 1.0) * local))
        factor = _MAX_FACTOR if ahead == 0.0 else min(_MAX_FACTOR, _SAFETY * ahead**-0.125)
        h_abs *= min(1.0, factor) if retried else factor
        capped += at_cap and t_new != t1
        t, y, accepted, retried = t_new, y_new, accepted + 1, False
        flow(y, C, 11, K[0])
        evaluations += 1
    return y, accepted, rejected, evaluations, capped


def _check_admissible(profile: LameProfile, H: float, n_samples: int) -> None:
    rep = validate_admissibility(profile, H, n_samples=n_samples)
    if not rep.passed:
        raise ForwardError(f"profile inadmissible on [0, {H}]: min mu = {rep.min_mu}, "
                           f"min 3lam+2mu = {rep.min_bulk}")


def _radial_symbols(profile: LameProfile, nodes: np.ndarray,
                    tol: float) -> tuple[np.ndarray, int, int, int, int]:
    """The Riccati core: reduced M0(r) = M(r e1) at every node, and the step counts.

    Returns rows (M11, M22, M33, Im M13), shape (n, 4), and the counts of
    :func:`_dop853` (accepted and rejected steps, flow evaluations, capped
    steps). Each node runs from its
    truncation depth H(r) to the surface in tau = y3 / H, from 1 to 0, started
    from the frozen half-space impedance S = -rho Z(lam(H), mu(H)). Nodes with
    r <= efolds/H_max carry S (rho = r, physical depth, c = H_max);
    deeper-frequency nodes carry S / r (rho = 1, scaled depth t = r y3,
    c = efolds). All nodes, 4 reals each, are one joint integration of c
    times the module docstring's flow at y3 = tau H, which is linear in the
    monomials (S11, S22, S33, b, S11^2, S22^2, S33^2, b^2, S11 b, S33 b, 1).
    Their coefficients depend on depth alone and are evaluated per step on
    the (stage, node) grid, shape (stage, 4, 11, node); a flow evaluation
    builds the monomials and contracts them once. Depths follow
    :data:`DEFAULT_FRAME`.

    Linearised at its fixed point -rho Z(lam, mu), the flow contracts toward
    the surface at the rate 2 c rho = 2 |k| H per unit tau for every (lam, mu),
    because the isotropic Stroh root is p = i; the root is double, and so is
    the eigenvalue. Where the fixed point drifts with depth faster than |k|,
    relative to its size, the state lags it and contracts more slowly, so each
    node hands :func:`_dop853` the rate 2 H max(|k| - L, 0), L the largest drift
    |dZ/dy3| / |Z| of the frozen rows between the surface and its depth, from
    257 samples on [0, H_max]. The integrator weights each node's error by the
    damping on the way up and caps every step inside DOP853's stability
    interval: a node meets ``tol`` at the surface, not at every depth.
    """
    H_max, efolds = DEFAULT_FRAME.H_max, DEFAULT_FRAME.efolds
    scaled = nodes > efolds / H_max
    sigma = np.where(scaled, nodes, 1.0)  # the state is S / sigma
    rho = nodes / sigma
    H = np.where(scaled, efolds / sigma, H_max)

    def moduli(y3):
        zero = 0.0 * y3  # a profile may answer with a scalar
        return profile.lam(y3) + zero, profile.mu(y3) + zero

    y0 = -rho * _impedance_rows(*moduli(H)).T
    c = H * sigma
    cr, cr2 = c * rho, c * rho**2
    two_cr = 2.0 * cr
    # L of the docstring: the largest drift of the frozen rows above each depth
    y3 = np.linspace(0.0, H_max, 257)
    z = _impedance_rows(*moduli(y3))
    size = np.abs(z).max(axis=1)
    drift = np.abs(np.diff(z, axis=0)).max(axis=1) / (np.minimum(size[1:], size[:-1]) * y3[1])
    lag = np.maximum.accumulate(drift)[np.searchsorted(y3, H) - 1]
    rate = 2.0 * H * np.maximum(nodes - lag, 0.0)

    def coefficients(taus):
        lam, mu = moduli(taus[:, None] * H)
        d = 1.0 / (lam + 2.0 * mu)
        g = lam * d
        p, q = c / mu, c * d
        # row k of C[i] holds dS_k's coefficient of each monomial (docstring order)
        C = np.zeros((taus.size, 4, 11, nodes.size))
        C[:, [0, 1, 2, 3], [4, 5, 7, 8]] = -p[:, None]
        C[:, [0, 2, 3], [7, 6, 9]] = -q[:, None]
        C[:, 0, 3], C[:, 0, 10] = -two_cr * g, cr2 * (4.0 * mu * (lam + mu) * d)
        C[:, 1, 10] = cr2 * mu
        C[:, 2, 3] = two_cr
        C[:, 3, 0], C[:, 3, 2] = cr, -cr * g
        return C

    monomials = np.ones((11, nodes.size))

    def flow(y, C, i, out):
        np.copyto(monomials[:4], y)
        np.multiply(y, y, out=monomials[4:8])
        np.multiply(y[::2], y[3], out=monomials[8:10])
        np.einsum("kmn,mn->kn", C[i], monomials, out=out)

    y, *counts = _dop853(coefficients, flow, 1.0, 0.0, y0, tol, rate)
    return (-sigma * y).T, *counts


def dtn_symbol(profile: LameProfile, k, tol: float = 1e-10) -> DtnSymbol:
    """Surface DtN symbol M(k) = R(theta) M0(|k|) R(theta)^T by stable impedance marching.

    A batch of one on the Riccati core, which integrates the impedance flow
    from the truncation depth (initialized with the frozen-coefficient
    half-space impedance) to the surface. The flow contracts toward the
    decaying-family impedance, so truncation and initialization errors decay
    like exp(-2 |k| (H - y3)).
    """
    kn, what = _unit_tangent(k)
    H = DEFAULT_FRAME.depth(k)
    _check_admissible(profile, H, n_samples=64)
    M0, n_steps, *_ = _radial_symbols(profile, np.array([kn]), tol)
    c, s = what[0], what[1]
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # takes e1 to k/|k|
    return DtnSymbol(kn * what[:2], R @ _assemble(M0[0]) @ R.T, H, "riccati", tol, n_steps)


def dtn_symbol_march(profile: LameProfile, k, n_steps: int = 600) -> np.ndarray:
    """Independent oracle: orthonormalized marching of the decaying subspace.

    Fixed-grid RK4 on the full 6x3 linear system dW/dt = i K W in scaled depth
    t = |k| y3, with per-step QR re-orthonormalization; M is recovered from
    the surface trace pair (the traction is i times the lower block).
    """
    kn, what = _unit_tangent(k)
    if kn == 0.0:
        return np.zeros((3, 3), dtype=complex)
    H = DEFAULT_FRAME.depth(k)
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


# ---------------------------------------------------------------------------
# radial symbols (isotropy + depth-only coefficients => M(k) = R M0(|k|) R^T)
# ---------------------------------------------------------------------------


class RadialDtnTable:
    """M0 of one profile at explicit radii in [0, k_max], from one joint Riccati
    solve: rows (M11, M22, M33, Im M13) ``reduced`` at ``nodes``, each within
    ``riccati_tol``, and ``steps`` (accepted, rejected, flow evaluations,
    steps set by the stability cap)."""

    def __init__(self, profile: LameProfile, k_max: float, radii,
                 riccati_tol: float = 1e-10) -> None:
        self.nodes = np.asarray(radii, dtype=float)
        if self.nodes.min() < 0.0 or self.nodes.max() > k_max:
            raise ValueError(f"radii must lie in [0, k_max = {k_max}]")
        self.reduced, *steps = _radial_symbols(profile, self.nodes, riccati_tol)
        self.steps = tuple(steps)


_FIRST_POINTS, _MAX_POINTS = 48, 1296  # Chebyshev points in s: 48 * 3^k, k <= 3


class RadialSymbol:
    """M0(r) of one profile at every r >= 0: rows(r) = r Z0 + R(s), s = r / (r + 2).

    Z0 are the rows of Z(lam(0), mu(0)) at e1. The remainder R = M0 - r Z0 is
    bounded and smooth in s on [0, 1] (the algebraic map of the half-line; Boyd,
    Chebyshev and Fourier Spectral Methods, 2001, ch. 17), so it is held at
    first-kind Chebyshev points ``s`` and interpolated barycentrically (Berrut
    & Trefethen, SIAM Review 2004). From 48 points the count triples (they
    nest: solved values are kept) until the trailing third of R's Chebyshev
    coefficients is below ``riccati_tol`` times max(max |R|, max |Z0|); one
    still above it at 1296 points is refused. Constant profiles have R = 0 and
    ``s`` None. ``solves``: (nodes, accepted, rejected, flow evaluations,
    capped steps) each.
    """

    def __init__(self, profile: LameProfile, riccati_tol: float = 1e-10) -> None:
        _check_admissible(profile, DEFAULT_FRAME.H_max, n_samples=256)
        lam, mu = float(profile.lam(0.0)), float(profile.mu(0.0))
        self.z0 = _impedance_rows(lam, mu)
        self.s = self.weights = self.remainder = None
        self.solves: list[tuple[int, ...]] = []
        if profile.is_polynomial and not any(profile.lam_coeffs[1:] + profile.mu_coeffs[1:]):
            return
        n, R = _FIRST_POINTS, np.empty((0, 4))
        while True:
            theta = (2.0 * np.arange(n) + 1.0) * (math.pi / (2 * n))  # s ascending
            new = (np.arange(n) % 3 != 1) | (R.size == 0)  # the n / 3 solved ones are 1::3
            r = 2.0 * np.tan(0.5 * theta[new]) ** 2
            table = RadialDtnTable(profile, r.max(), r, riccati_tol)
            self.solves.append((r.size, *table.steps))
            R, solved = np.empty((n, 4)), R
            R[new], R[~new] = table.reduced - r[:, None] * self.z0, solved
            tail = np.cos(np.outer(np.arange(n - n // 3, n), theta)) @ R * (2.0 / n)
            scale = max(np.abs(R).max(), np.abs(self.z0).max())
            if np.abs(tail).max() <= riccati_tol * scale:
                break
            if 3 * n > _MAX_POINTS:
                raise ForwardError(f"radial symbol not resolved by {n} Chebyshev points: tail "
                                   f"{np.abs(tail).max() / scale:.3g} of the row scale")
            n *= 3
        self.s, self.remainder = np.sin(0.5 * theta) ** 2, R
        self.weights = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * np.sin(theta)
        for arr in (self.z0, self.s, self.weights, self.remainder):
            arr.setflags(write=False)

    def interpolation(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Barycentric data from the Chebyshev points to the 1-D radii ``r``:
        q = weights / (s(r) - s_j) and its row sums, a row that hits a point
        exactly replaced by that point's unit vector. It depends on ``r`` and
        the point count alone, so symbols of one count share it."""
        s = (r / (r + 2.0))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = self.weights / (s - self.s)
        hit, node = np.nonzero(s == self.s)
        q[hit] = 0.0
        q[hit, node] = 1.0
        return q, q.sum(axis=1, keepdims=True)

    def rows(self, r, interpolation=None) -> np.ndarray:
        """Reduced rows (M11, M22, M33, Im M13) of M0 at radii r >= 0, trailing
        axis 4; ``interpolation`` is :meth:`interpolation` at r, computed when
        not given."""
        r = np.asarray(r, dtype=float)
        rows = r[..., None] * self.z0
        if self.s is None:
            return rows
        q, total = interpolation or self.interpolation(r.reshape(-1))
        return rows + ((q @ self.remainder) / total).reshape(rows.shape)


class SymbolMemo:
    """Radial symbols keyed by profile content (coefficients without trailing
    zeros; the object for callables) and ``riccati_tol`` alone, least recently
    used dropped past ``maxsize``. Over the process, ``counts`` sums the
    symbols' solves, ``accepted`` lists each integrated symbol's (Chebyshev
    points, refinements), and ``seconds`` is the time spent building them."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize, self._symbols = maxsize, OrderedDict()
        self.counts = Counter(dict.fromkeys(("riccati_solves", "exact_constants", "memo_hits",
                                             "nodes", "steps_accepted", "steps_rejected",
                                             "rhs_evaluations", "steps_capped"), 0))
        self.accepted: list[tuple[int, int]] = []
        self.seconds = 0.0

    def symbol(self, profile: LameProfile, riccati_tol: float) -> RadialSymbol:
        content = profile if not profile.is_polynomial else tuple(
            tuple(np.trim_zeros(np.array(c), "b")) for c in (profile.lam_coeffs, profile.mu_coeffs))
        key = (content, riccati_tol)
        if key in self._symbols:
            self._symbols.move_to_end(key)
            self.counts["memo_hits"] += 1
            return self._symbols[key]
        t0 = time.perf_counter()
        symbol = self._symbols[key] = RadialSymbol(profile, riccati_tol)
        self.seconds += time.perf_counter() - t0
        if symbol.s is None:
            self.counts["exact_constants"] += 1
        else:
            for nodes, accepted, rejected, evaluations, capped in symbol.solves:
                self.counts.update(riccati_solves=1, nodes=nodes, steps_accepted=accepted,
                                   steps_rejected=rejected, rhs_evaluations=evaluations,
                                   steps_capped=capped)
            self.accepted.append((symbol.s.size, len(symbol.solves) - 1))
        if len(self._symbols) > self.maxsize:
            self._symbols.popitem(last=False)
        return symbol

    def clear(self) -> None:
        self._symbols.clear()


symbol_memo = SymbolMemo(maxsize=16)


# ---------------------------------------------------------------------------
# pairing quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSettings:
    """Pairing quadrature and Riccati tolerance knobs."""

    nodes: int = 96
    tail_tol: float = 1e-8
    riccati_tol: float = 1e-10


DEFAULT_QUAD = QuadratureSettings()


@dataclass(frozen=True)
class PairingResult:
    """Localized DN pairing value and its quadrature tail estimate."""

    value: complex
    probe: ProbeSpec
    tail_estimate: float


@dataclass(frozen=True)
class PolarGrid:
    """Polar frequency grid centered at k = 0 with cutoff spectral weights.

    The symbol M(k) = R(theta) M0(|k|) R(theta)^T is smooth in polar
    coordinates but has a conical kink at k = 0 in Cartesian ones; at desk
    scale the probe's spectral support straddles the origin, so a tensor grid
    converges slowly while the polar grid converges spectrally. The weights
    W(r, phi) (measure, squared cutoff transform, probe normalization) are
    kept as their angular moments F = W @ f(phi)^T, shape (nr, 5). The
    barycentric data of :meth:`rows` are kept per Chebyshev point count.
    """

    r: np.ndarray
    moments: np.ndarray
    interpolations: dict = field(default_factory=dict, repr=False, compare=False)

    def rows(self, symbol: RadialSymbol) -> np.ndarray:
        """``symbol.rows(r)`` at the grid's radii; counted in :data:`interpolation_counts`."""
        if symbol.s is None:
            return symbol.rows(self.r)
        n = symbol.s.size
        interpolation_counts["reused" if n in self.interpolations else "built"] += 1
        if n not in self.interpolations:
            self.interpolations[n] = symbol.interpolation(self.r)
            for arr in self.interpolations[n]:
                arr.setflags(write=False)
        return symbol.rows(self.r, self.interpolations[n])

    def contract(self, rows: np.ndarray, a, omega) -> np.ndarray:
        """Sum of W * rows(r) . Phi(theta0 + phi) for a probe (a, omega); ``rows``
        has shape (..., nr, 4) and the leading axes are kept."""
        theta0 = math.atan2(omega[1], omega[0])
        c, s = math.cos(theta0), math.sin(theta0)
        a_probe = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.asarray(a)
        return np.sum(rows * (self.moments @ _form_coefficients(a_probe).T), axis=(-2, -1))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1], computed once per n (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# barycentric data of PolarGrid.rows over the process, per (grid, point count)
interpolation_counts = Counter(built=0, reused=0)


@lru_cache(maxsize=64)
def polar_grid(N: int, rho_tilde: int, cutoff, quad: QuadratureSettings) -> PolarGrid:
    """Direction-free polar quadrature grid, memoised (read-only arrays).

    Radial Gauss-Legendre nodes cover [max(0, N - spread), N + spread] with
    spread = W N^{1-rho}; the angular range is the full circle while the
    spectral support contains the origin, otherwise the subtended wedge.
    Cutoffs key the memo by identity. A run's ladders share one cutoff, so
    the 64 entries hold every grid of a run with up to 64 (N, rho_tilde) pairs.
    """
    rho = 1.0 / rho_tilde
    W = cutoff.spectral_halfwidth(quad.tail_tol)
    spread = W * N ** (1.0 - rho)
    r_lo, r_hi = max(0.0, N - spread), N + spread
    x, w = _gauss_legendre(2 * quad.nodes)
    r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
    wr = 0.5 * (r_hi - r_lo) * w

    n_t = 2 * quad.nodes
    if spread >= N:
        phi = -math.pi + 2.0 * math.pi * np.arange(n_t) / n_t
        wt = np.full(n_t, 2.0 * math.pi / n_t)
    else:
        half = 1.05 * math.asin(min(1.0, spread / N))
        xt, wwt = _gauss_legendre(n_t)
        phi = half * xt
        wt = half * wwt

    dist2 = r[:, None] ** 2 + float(N) ** 2 - 2.0 * float(N) * r[:, None] * np.cos(phi)
    kappa = N ** (rho - 1.0) * np.sqrt(np.maximum(dist2, 0.0))
    eta2 = np.abs(cutoff.fourier_radial(kappa)) ** 2
    prefactor = N ** (2.0 * rho - 3.0) / (4.0 * math.pi**2)
    weights = prefactor * eta2 * (wr * r)[:, None] * wt[None, :]
    moments = weights @ _harmonics(np.cos(phi), np.sin(phi))
    for arr in (r, moments):
        arr.setflags(write=False)
    return PolarGrid(r, moments)


def warm_tables(profile: LameProfile, quad: QuadratureSettings = DEFAULT_QUAD,
                m: int = 0) -> tuple[RadialSymbol, ...]:
    """The symbols of an order-m ladder: the profile's and, for m >= 1, its
    order-m truncation's; from :data:`symbol_memo`, so values do not depend on
    evaluation order or history, and every ladder of a profile shares them.
    """
    profiles = [profile] + ([taylor_truncate(profile, m).result] if m >= 1 else [])
    return tuple(symbol_memo.symbol(p, quad.riccati_tol) for p in profiles)


def pairing(profile: LameProfile, probe: ProbeSpec, quad: QuadratureSettings = DEFAULT_QUAD,
            symbols: tuple[RadialSymbol, ...] | None = None) -> PairingResult:
    """<Lambda_C phi^N, conj(phi^N)> via the tangential-Fourier identity.

    value = (2 pi)^-2 N^{2 rho - 3} int |eta_hat(kappa(k))|^2 a^H M(k) a dk
    over the polar grid, wide enough that the excluded spectral tail is below
    quad.tail_tol of the cutoff mass. ``symbols`` is the profile's ladder value
    from :func:`warm_tables`, looked up when not given.
    """
    return _pair(probe, quad, (symbols or warm_tables(profile, quad))[:1])


def difference_pairing(profile: LameProfile, m: int, probe: ProbeSpec,
                       quad: QuadratureSettings = DEFAULT_QUAD,
                       symbols: tuple[RadialSymbol, ...] | None = None) -> PairingResult:
    """pairing(profile) - pairing(truncated profile), on one shared grid.

    The shared nodes (same polar grid, same radial radii) make the correlated
    part of the quadrature error cancel, which matters because the m-th order
    signal is O(N^-m) relative to each term. ``symbols`` is the order-m ladder
    value from :func:`warm_tables`, looked up when not given.
    """
    if m < 1:
        raise ValueError("difference pairing requires m >= 1 (m = 0 is pairing)")
    if m > profile.max_derivative_order:
        raise ValueError(
            f"profile carries derivatives to order {profile.max_derivative_order}, got m = {m}"
        )
    return _pair(probe, quad, symbols or warm_tables(profile, quad, m))


def _pair(probe: ProbeSpec, quad: QuadratureSettings,
          symbols: tuple[RadialSymbol, ...]) -> PairingResult:
    """Contract the rows of ``symbols[0]`` (minus those of ``symbols[1]``) on the probe's grid."""
    grid = polar_grid(probe.N, probe.rho_tilde, probe.cutoff, quad)
    rows = grid.rows(symbols[0])
    if len(symbols) > 1:
        rows = rows - grid.rows(symbols[1])
    value = complex(grid.contract(rows, probe.a, probe.omega))
    return PairingResult(value, probe, quad.tail_tol * abs(value))


# ---------------------------------------------------------------------------
# the localized limit quadrature (depth-only integrand)
# ---------------------------------------------------------------------------


def limit_quadrature(
    f,
    taylor_coeffs,
    k_order: int,
    N: int,
    cutoff=None,
    n_quad: int = 240,
) -> float:
    """N^{2+k} int_0^{1/(2 sqrt N)} int (eta^N)^2 e^{-2 N y3} (f - f^k) dy' dy3.

    ``f`` is a depth-only integrand, ``taylor_coeffs`` its surface Taylor
    coefficients of orders 0..k-1 defining f^k. The tangential factor
    integrates exactly to (cutoff L2 mass)/N under the probe normalization.
    For f in C^k the value converges to d^k f(0) / 2^{k+1} as N grows.
    """
    mass = 1.0 if cutoff is None else cutoff.l2_mass()
    upper = 0.5 / math.sqrt(N)
    x, w = _gauss_legendre(n_quad)
    y3 = 0.5 * upper * (x + 1.0)
    wy = 0.5 * upper * w
    fk = np.zeros_like(y3)
    for n, c in enumerate(taylor_coeffs[:k_order]):
        fk += c * y3**n
    vals = (np.asarray(f(y3), dtype=float) - fk) * np.exp(-2.0 * N * y3)
    integral = float(np.sum(wy * vals))
    return N ** (2 + k_order) * (mass / N) * integral
