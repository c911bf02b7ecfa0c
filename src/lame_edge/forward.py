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
One core, :func:`_radial_symbols`, integrates this for a batch of radial
nodes; the radial tables and :func:`dtn_symbol` (a batch of one, rotated)
both use it. The orthonormalized subspace march on the full 6x3 system is
the independent oracle.

Pairings never assemble the 3x3 symbol: with b = R(theta)^T a and
rows = (M11, M22, M33, Im M13), a^H M(k) a = rows(|k|) . C(a) f(theta), where
f = (1, cos, sin, cos 2., sin 2.)(theta) and C(a) f = (|b1|^2, |b2|^2, |a3|^2,
-2 Im(conj(b1) a3)). In the offset angle phi = theta - theta0 the polar grid's
weights W(r, phi) do not depend on the probe direction, so a pairing is
sum(rows * (F @ C(a')^T)) with a' = R(theta0)^T a and F = W @ f(phi)^T, the
grid's memoised angular moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .ansatz import ProbeSpec
from .elastic import LameProfile, taylor_truncate, validate_admissibility
from .stroh import impedance_basis, reference_chain

__all__ = [
    "DtnSymbol",
    "ForwardError",
    "HalfSpaceFrame",
    "PairingResult",
    "QuadratureSettings",
    "RadialDtnTable",
    "depth_stroh",
    "difference_pairing",
    "dtn_symbol",
    "dtn_symbol_march",
    "half_space_impedance",
    "limit_quadrature",
    "pairing",
    "polar_grid",
    "required_k_max",
    "warm_tables",
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
        if kn == 0.0:
            return self.H_max
        return min(self.H_max, self.efolds / kn)


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


def _coeff_blocks(lam: float, mu: float, what: np.ndarray):
    """T, A = <e3, what>, Q = <what, what> for a unit tangent ``what``."""
    T = np.diag([mu, mu, lam + 2.0 * mu])
    w = what
    A = lam * np.outer(_E3, w) + mu * np.outer(w, _E3)
    Q = (lam + mu) * np.outer(w, w) + mu * np.eye(3)
    return T, A, Q


_E1 = np.array([1.0, 0.0, 0.0])
_E3 = np.array([0.0, 0.0, 1.0])
# (Z_lam, Z_mu)(e1) of stroh.impedance_basis as reduced rows, shape (2, 4)
Z_ROWS_E1 = np.array([[B[0, 0].real, B[1, 1].real, B[2, 2].real, B[0, 2].imag]
                      for B in impedance_basis(_E1)])
Z_ROWS_E1.setflags(write=False)


def depth_stroh(profile: LameProfile, y3: float, k) -> np.ndarray:
    """First-order 6x6 matrix of the depth-frozen medium at (y3, k).

    Same state convention as :func:`lame_edge.stroh.stroh_matrix`; for a
    constant profile and |k| = 1 the two agree exactly.
    """
    kn, what = _unit_tangent(k)
    lam = float(profile.lam(y3))
    mu = float(profile.mu(y3))
    T, Ah, Qh = _coeff_blocks(lam, mu, what)
    A, Q = kn * Ah, kn**2 * Qh
    Ti = np.diag(1.0 / np.diag(T))
    K = np.zeros((6, 6), dtype=complex)
    K[:3, :3] = -Ti @ A
    K[:3, 3:] = Ti
    K[3:, :3] = -Q + A.T @ Ti @ A
    K[3:, 3:] = -A.T @ Ti
    return K


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


def _riccati_rhs(s, y, profile: LameProfile, scale, rho):
    """The reduced impedance flow on (S11, S22, S33, b), nodes on the trailing axis."""
    S11, S22, S33, b = y.reshape(4, -1)
    lam, mu = profile.lam(s / scale), profile.mu(s / scale)
    p, q = 1.0 / mu, 1.0 / (lam + 2.0 * mu)
    g = lam * q
    return np.concatenate([
        rho**2 * 4.0 * mu * (lam + mu) * q - 2.0 * rho * g * b - (p * S11**2 + q * b**2),
        rho**2 * mu - p * S22**2,
        2.0 * rho * b - (p * b**2 + q * S33**2),
        rho * (S11 - g * S33) - b * (p * S11 + q * S33),
    ])


def _radial_symbols(
    profile: LameProfile,
    nodes: np.ndarray,
    tol: float,
    frame: HalfSpaceFrame,
) -> tuple[np.ndarray, int]:
    """The Riccati core: reduced M0(r) = M(r e1) at every node, and the step count.

    Returns rows (M11, M22, M33, Im M13), shape (n, 4). Nodes with
    r <= efolds/H_max share the physical depth span [H_max, 0] (rho = r);
    deeper-frequency nodes share the scaled span t = r y3 in [efolds, 0]
    (rho = 1, state S / r). Each band is one joint integration of 4 reals per
    node, started from the frozen half-space impedance S = -rho Z(lam(H), mu(H)).
    """
    z_lam, z_mu = Z_ROWS_E1[:, :, None]
    split = frame.efolds / frame.H_max
    out = np.empty((nodes.size, 4))
    n_steps = 0
    for band, scaled in ((nodes <= split, False), (nodes > split, True)):
        rs = nodes[band]
        if not rs.size:
            continue
        scale = rs if scaled else 1.0
        rho = rs / scale
        H = frame.efolds / rs if scaled else np.full(rs.size, frame.H_max)
        lamH, muH = profile.lam(H), profile.mu(H)
        y0 = -rho * muH / (lamH + 3.0 * muH) * (lamH * z_lam + muH * z_mu)
        span = (frame.efolds if scaled else frame.H_max, 0.0)
        sol = solve_ivp(_riccati_rhs, span, y0.ravel(), method="DOP853",
                        rtol=tol, atol=tol, args=(profile, scale, rho))
        if not sol.success:
            raise ForwardError(
                f"Riccati integration ({'deep' if scaled else 'shallow'} band) failed "
                f"at {'t' if scaled else 'y3'} = {sol.t[-1]}: {sol.message}"
            )
        out[band] = (-scale * sol.y[:, -1].reshape(4, -1)).T
        n_steps += int(sol.t.size)
    return out, n_steps


def dtn_symbol(
    profile: LameProfile,
    k,
    tol: float = 1e-10,
    frame: HalfSpaceFrame = DEFAULT_FRAME,
    check_admissibility: bool = True,
) -> DtnSymbol:
    """Surface DtN symbol M(k) = R(theta) M0(|k|) R(theta)^T by stable impedance marching.

    A batch of one on the Riccati core, which integrates the impedance flow
    from the truncation depth (initialized with the frozen-coefficient
    half-space impedance) to the surface. The flow contracts toward the
    decaying-family impedance, so truncation and initialization errors decay
    like exp(-2 |k| (H - y3)).
    """
    kn, what = _unit_tangent(k)
    H = frame.depth(k)
    if check_admissibility:
        rep = validate_admissibility(profile, H, n_samples=64)
        if not rep.passed:
            raise ForwardError(
                f"profile inadmissible on [0, {H}]: min mu = {rep.min_mu}, "
                f"min 3lam+2mu = {rep.min_bulk}"
            )
    M0, n_steps = _radial_symbols(profile, np.array([kn]), tol, frame)
    c, s = what[0], what[1]
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # takes e1 to k/|k|
    return DtnSymbol(kn * what[:2], R @ _assemble(M0[0]) @ R.T, H, "riccati", tol, n_steps)


def dtn_symbol_march(
    profile: LameProfile,
    k,
    n_steps: int = 600,
    frame: HalfSpaceFrame = DEFAULT_FRAME,
) -> np.ndarray:
    """Independent oracle: orthonormalized marching of the decaying subspace.

    Fixed-grid RK4 on the full 6x3 linear system with per-step QR
    re-orthonormalization; M is recovered from the surface trace pair.
    """
    kn, what = _unit_tangent(k)
    if kn == 0.0:
        return np.zeros((3, 3), dtype=complex)
    H = frame.depth(k)

    def sys_rhs(t, Y):
        lam = float(profile.lam(t / kn))
        mu = float(profile.mu(t / kn))
        T, A, Q = _coeff_blocks(lam, mu, what)
        Ti = np.diag(1.0 / np.diag(T))
        top = -1.0j * Ti @ A @ Y[:3] + Ti @ Y[3:]
        bot = (Q - A.T @ Ti @ A) @ Y[:3] - 1.0j * A.T @ Ti @ Y[3:]
        return np.vstack([top, bot])

    lamH = float(profile.lam(H))
    muH = float(profile.mu(H))
    S_H = -half_space_impedance(lamH, muH, kn * what[:2]) / kn
    Y = np.vstack([np.eye(3, dtype=complex), S_H])
    t = kn * H
    dt = -t / n_steps
    for _ in range(n_steps):
        k1 = sys_rhs(t, Y)
        k2 = sys_rhs(t + dt / 2, Y + dt / 2 * k1)
        k3 = sys_rhs(t + dt / 2, Y + dt / 2 * k2)
        k4 = sys_rhs(t + dt, Y + dt * k3)
        Y = Y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        Y, _ = np.linalg.qr(Y)
    S0 = Y[3:] @ np.linalg.inv(Y[:3])
    return -kn * S0


# ---------------------------------------------------------------------------
# radial DtN tables (isotropy + depth-only coefficients => M(k) = R M0(|k|) R^T)
# ---------------------------------------------------------------------------


class RadialDtnTable:
    """Spline table of M0(r) := M(r e1) for one profile.

    Rotation equivariance of isotropic depth-only media reduces the 2D symbol
    to the radial table: M(k) = R(theta) M0(|k|) R(theta)^T with the in-plane
    rotation taking e1 to k/|k| (validated against direct solves in tests).
    ``reduced`` holds M0 at the nodes as rows (M11, M22, M33, Im M13), shape (n, 4).
    """

    def __init__(
        self,
        profile: LameProfile,
        k_max: float,
        riccati_tol: float = 1e-10,
        frame: HalfSpaceFrame = DEFAULT_FRAME,
        low_cut: float = 48.0,
        low_step: float = 0.125,
        high_points: int = 385,
    ) -> None:
        self.profile = profile
        self.k_max = float(k_max)
        self.riccati_tol = float(riccati_tol)
        self.frame = frame
        # M0(r) varies on the scale 1/(2 H_max) near the origin; resolve it
        origin = np.linspace(0.0, min(1.0, k_max), 129)
        low = np.arange(0.0, min(low_cut, k_max) + low_step, low_step)
        if k_max > low_cut:
            high = np.geomspace(low_cut + low_step, k_max * 1.01, high_points)
            nodes = np.concatenate([origin, low, high])
        else:
            nodes = np.concatenate([origin, low])
        self.nodes = np.unique(nodes)
        rep = validate_admissibility(profile, frame.H_max, n_samples=256)
        if not rep.passed:
            raise ForwardError(
                f"profile inadmissible on [0, {frame.H_max}]: "
                f"min mu = {rep.min_mu}, min 3lam+2mu = {rep.min_bulk}"
            )
        self.reduced, _ = _radial_symbols(profile, self.nodes, self.riccati_tol, frame)
        self._spline = CubicSpline(self.nodes, self.reduced, axis=0)

    @property
    def values(self) -> np.ndarray:
        """M0 at the nodes as 3x3 Hermitian symbols, shape (n, 3, 3)."""
        return _assemble(self.reduced)

    def rows(self, r: np.ndarray) -> np.ndarray:
        """Spline of the reduced rows (M11, M22, M33, Im M13) of M0(r), trailing axis 4."""
        r = np.asarray(r, dtype=float)
        if np.any(r > self.nodes[-1] + 1e-9):
            raise ForwardError(
                f"radial table covers |k| <= {self.nodes[-1]:.3f}, requested {r.max():.3f}"
            )
        return self._spline(r)

    def symbol_radial(self, r: np.ndarray) -> np.ndarray:
        return _assemble(self.rows(r))

    def forms(self, kx: np.ndarray, ky: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Hermitian forms a^H M(k) a on arrays of frequency components."""
        r = np.hypot(kx, ky)
        safe = np.where(r > 0.0, r, 1.0)
        Phi = _harmonics(kx / safe, ky / safe) @ _form_coefficients(a).T
        return np.where(r > 0.0, np.sum(self.rows(r) * Phi, axis=-1), 0.0)


def _table_cache(profile: LameProfile) -> dict:
    cache = getattr(profile, "_dtn_table_cache", None)
    if cache is None:
        cache = {}
        setattr(profile, "_dtn_table_cache", cache)
    return cache


def _get_table(profile: LameProfile, k_max: float, settings: "QuadratureSettings") -> RadialDtnTable:
    key = (settings.riccati_tol, settings.table_low_step, settings.table_high_points)
    cache = _table_cache(profile)
    table = cache.get(key)
    if table is None or table.k_max < k_max:
        table = RadialDtnTable(
            profile,
            k_max * 1.05,
            riccati_tol=settings.riccati_tol,
            low_step=settings.table_low_step,
            high_points=settings.table_high_points,
        )
        cache[key] = table
    return table


# ---------------------------------------------------------------------------
# pairing quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSettings:
    """Pairing quadrature and table resolution knobs."""

    nodes: int = 96
    tail_tol: float = 1e-8
    riccati_tol: float = 1e-10
    table_low_step: float = 0.125
    table_high_points: int = 385


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
    kept as their angular moments F = W @ f(phi)^T, shape (nr, 5).
    """

    r: np.ndarray
    moments: np.ndarray

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


@lru_cache(maxsize=8)
def polar_grid(N: int, rho_tilde: int, cutoff, quad: QuadratureSettings) -> PolarGrid:
    """Direction-free polar quadrature grid, memoised (read-only arrays).

    Radial Gauss-Legendre nodes cover [max(0, N - spread), N + spread] with
    spread = W N^{1-rho}; the angular range is the full circle while the
    spectral support contains the origin, otherwise the subtended wedge.
    Cutoffs key the memo by identity; eight entries hold one ladder's grids.
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


def required_k_max(probe: ProbeSpec, quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """Largest |k| the pairing quadrature of this probe can request."""
    W = probe.cutoff.spectral_halfwidth(quad.tail_tol)
    return probe.N + W * probe.N ** (1.0 - probe.rho)


def warm_tables(
    profile: LameProfile,
    probe: ProbeSpec,
    quad: QuadratureSettings = DEFAULT_QUAD,
    m: int = 0,
) -> None:
    """Build the radial tables needed by a ladder up to this probe's N.

    Calling this with the largest ladder probe first makes every subsequent
    pairing interpolate from one fixed table, so ladder values are independent
    of the order (or process) in which they are evaluated.
    """
    k_max = required_k_max(probe, quad)
    _get_table(profile, k_max, quad)
    if m >= 1:
        _get_table(_truncation_for(profile, m), k_max, quad)


def pairing(
    profile: LameProfile,
    probe: ProbeSpec,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> PairingResult:
    """<Lambda_C phi^N, conj(phi^N)> via the tangential-Fourier identity.

    value = (2 pi)^-2 N^{2 rho - 3} int |eta_hat(kappa(k))|^2 a^H M(k) a dk
    over the polar grid, wide enough that the excluded spectral tail is below
    quad.tail_tol of the cutoff mass.
    """
    return _pair(probe, quad, profile)


def difference_pairing(
    profile: LameProfile,
    m: int,
    probe: ProbeSpec,
    quad: QuadratureSettings = DEFAULT_QUAD,
) -> PairingResult:
    """pairing(profile) - pairing(truncated profile), on one shared grid.

    The shared grid (same polar nodes, same radial table nodes) makes the
    correlated part of the quadrature error cancel, which matters because the
    m-th order signal is O(N^-m) relative to each term.
    """
    if m < 1:
        raise ValueError("difference pairing requires m >= 1 (m = 0 is pairing)")
    if m > profile.max_derivative_order:
        raise ValueError(
            f"profile carries derivatives to order {profile.max_derivative_order}, got m = {m}"
        )
    return _pair(probe, quad, profile, _truncation_for(profile, m))


def _pair(probe: ProbeSpec, quad: QuadratureSettings, profile: LameProfile,
          truncated: LameProfile | None = None) -> PairingResult:
    """Contract the table rows of ``profile`` (minus those of ``truncated``) on the probe's grid."""
    grid = polar_grid(probe.N, probe.rho_tilde, probe.cutoff, quad)
    k_max = float(grid.r.max())
    rows = _get_table(profile, k_max, quad).rows(grid.r)
    if truncated is not None:
        rows = rows - _get_table(truncated, k_max, quad).rows(grid.r)
    value = complex(grid.contract(rows, probe.a, probe.omega))
    return PairingResult(value, probe, quad.tail_tol * abs(value))


def _truncation_for(profile: LameProfile, m: int) -> LameProfile:
    cache = getattr(profile, "_truncation_cache", None)
    if cache is None:
        cache = {}
        setattr(profile, "_truncation_cache", cache)
    if m not in cache:
        cache[m] = taylor_truncate(profile, m).result
    return cache[m]


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
