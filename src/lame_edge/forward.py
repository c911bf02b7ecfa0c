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
radial nodes of one or more profiles, all on one step sequence, with an
in-house DOP853 (:func:`_dop853`) that accepts a step on
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
[0, 1], from certified Chebyshev points in s (none for a constant profile).
Symbols are built only by :func:`_resolve`, for the memo, which holds them by
request (the profiles' contents and derivative orders, and the tolerance);
every ladder reads them through one door, :func:`warm_tables`. A request's
group is its profiles (one, or the calibration's three) with each distinct
admissible Taylor truncation of theirs, whatever the ladder's order,
integrated as one batch per Chebyshev round; so all ladders of a profile, its
order-m differences included, share one integration, and a symbol's value
depends only on the request.
Its references, one radius of :class:`RadialDtnTable` rotated and the
orthonormalized subspace march on the full 6x3 system, are in
:mod:`lame_edge.oracles`, which the run path never loads.

Pairings never assemble the 3x3 symbol: with b = R(theta)^T a and
rows = (M11, M22, M33, Im M13), a^H M(k) a = rows(|k|) . C(a) f(theta), where
f = (1, cos, sin, cos 2., sin 2.)(theta) and C(a) f = (|b1|^2, |b2|^2, |a3|^2,
-2 Im(conj(b1) a3)). In the offset angle phi = theta - theta0 the polar grid's
weights W(r, phi) do not depend on the probe direction, so with a' =
R(theta0)^T a and the angular moments F = W @ f(phi)^T a pairing is
sum(rows * (F @ C(a')^T)) = <C(a'), G>: one 20-term dot product with the moment
form G = rows^T F, built once per (grid, symbols); a battery of probes on a
group of profiles looks up each member's N grids and stacks their forms once,
and contracts every probe with them in one product. W is even in phi, so the
grid holds phi in [0, pi] with mirrored weights, and its sin moments are 0.
The rows at the grid's radii are one barycentric product, whose weights the
grid keeps per Chebyshev point count.
"""

from __future__ import annotations

import math
import time
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ansatz import ProbeSpec, gauss_legendre
from .elastic import LameProfile, NumericalDiagnostic, taylor_truncate, validate_admissibility
from .stroh import impedance_basis

__all__ = [
    "EFOLDS", "ForwardError", "H_MAX", "QuadratureSettings", "RadialDtnTable", "RadialSymbol",
    "difference_pairing", "form_counts", "interpolation_counts", "ladder_pairings", "pairing",
    "polar_grid", "symbol_memo", "warm_tables",
]


class ForwardError(NumericalDiagnostic):
    """Forward-solver diagnostic (stiff segment, admissibility, tail)."""


H_MAX, EFOLDS = 2.0, 14.0  # the Riccati flow starts at depth min(H_MAX, EFOLDS / |k|)
# (Z_lam, Z_mu)(e1) of stroh.impedance_basis as reduced rows, shape (2, 4)
Z_ROWS_E1 = np.array([[B[0, 0].real, B[1, 1].real, B[2, 2].real, B[0, 2].imag]
                      for B in impedance_basis((1.0, 0.0))])
Z_ROWS_E1.setflags(write=False)


def _impedance_rows(lam, mu) -> np.ndarray:
    """Rows of Z(lam, mu) at e1, trailing axis 4, for moduli of one shape."""
    lam, mu = np.asarray(lam, dtype=float)[..., None], np.asarray(mu, dtype=float)[..., None]
    return mu / (lam + 3.0 * mu) * (lam * Z_ROWS_E1[0] + mu * Z_ROWS_E1[1])


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
_SURFACE_STEPS = 2.0  # the steps whose errors reach t1 nearly undamped, sharing tol


def _node_norm(x: np.ndarray) -> float:
    """Largest per-node RMS of x, components on axis 0 and nodes on axis 1."""
    return float(np.sqrt(np.max(np.mean(x * x, axis=0))))


def _dop853(coefficients, flow, t0: float, t1: float, y0: np.ndarray, tol: float,
            rate: np.ndarray, stage: np.ndarray) -> tuple[np.ndarray, int, int, int, int]:
    """y(t1) for y' = f(t, y), split into depth coefficients and an in-place flow.

    ``coefficients(taus)`` returns the depth-only coefficients at the 1-D
    array of times ``taus``, stacked on a leading axis; ``flow(y, C, i, out)``
    writes f(taus[i], y) into ``out`` from the i-th of them, so the flow itself
    touches only the state. Each attempted step asks for its coefficients
    once, at all 12 stage times t + C[1:12] h and at t_new (exactly: the
    first-same-as-last evaluation that starts the next step), and takes
    h (A; B) once: each stage state is y + (h A[s, :s]) @ K[:s] in one
    preallocated buffer, ``stage`` (C-contiguous, shape of y0), so
    a flow that keeps its state there reads each stage in place. The
    increment is summed before it meets y, so y is rounded once per stage.

    ``y0`` has shape (m, n): m components of each of n uncoupled nodes, and
    ``rate`` (shape (n,)) is a lower bound on the rate at which each node's
    linearised flow contracts toward t1, with eigenvalues at most double.
    Each node's error is DOP853's combined 5th/3rd-order estimate over its
    own components (atol = rtol = tol), weighted by 2 exp(-x) at
    x = rate/2 |t1 - t_new|: an error present at t_new reaches t1 damped by
    exp(-2x) times a quadratic in x (the double eigenvalue's Jordan block),
    which stays below a small constant times exp(-x) (2.5 for the Riccati
    core). The error at t1 is the sum of what every step leaves there, and
    the last two steps leave nearly all of theirs (a step at the cap below
    spans x of about 1.6), so the steps next to t1 are held to tol/2 and
    deeper ones only as far as their error reaches t1. A step is accepted
    when the largest weighted error is below 1, so no node is diluted by the
    rest; the next step is sized for the larger weight one step nearer t1,
    so the weight's growth does not make it fail. Every step is also capped
    at half of DOP853's real stability interval over max(rate): on a flow too smooth
    for the error estimate to limit the step, rounding offsets are then
    damped, not amplified. Step control and
    the initial step follow Hairer, Norsett & Wanner (II.4; stability, IV.2).
    Returns y(t1), the accepted and rejected step counts, the number of flow
    evaluations and the number of accepted steps whose size the cap set.

    Every array of the step loop is allocated once per integration, with the
    views each stage reads: the stages K, y and the attempt's y_new with their
    magnitudes (y_new and |y_new| become y and |y| on acceptance, so |y| is
    not recomputed), the two error estimates, their per-node sums and three
    more per-node vectors. An attempt writes into them instead of allocating
    temporaries.
    """
    y = np.array(y0, dtype=float, order="C")  # the reshaped buffers below are views
    K = np.empty((12,) + y.shape)
    Kf = K.reshape(12, -1)
    stage_f = stage.reshape(-1)
    taus, hAB = np.empty(12), np.empty_like(_DOP_AB)  # each attempt's times and h (A; B)
    stages = [(s - 1, hAB[s, :s], Kf[:s], K[s]) for s in range(1, 12)]
    y_new, abs_new, abs_y = np.empty((3,) + y.shape)  # y_new, |y_new| become y, |y| on accept
    E = np.empty((2,) + y.shape)  # the 5th- and 3rd-order error estimates
    E_f = E.reshape(2, -1)
    e53 = np.empty((2, y.shape[1]))  # their per-node sums of squares
    e5, e3 = e53
    local, weight, work = np.empty((3, y.shape[1]))
    direction, span = math.copysign(1.0, t1 - t0), abs(t1 - t0)
    flow(y, coefficients(np.array([t0])), 0, K[0])
    np.abs(y, out=abs_y)
    scale = tol + tol * abs_y
    d0, d1 = _node_norm(y / scale), _node_norm(K[0] / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    flow(y + direction * h0 * K[0], coefficients(np.array([t0 + direction * h0])), 0, K[1])
    d = max(d1, _node_norm((K[1] - K[0]) / scale) / h0)
    h_abs = min(100.0 * h0, span, max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.125)
    fastest, kappa = float(np.max(rate)), 0.5 * np.asarray(rate, dtype=float)
    neg_kappa = -kappa
    h_cap = 0.5 * _DOP_STABILITY / fastest if fastest > 0.0 else math.inf
    t, accepted, rejected, capped, retried, evaluations = t0, 0, 0, 0, False, 2
    while t != t1:
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = h_abs if h_abs >= min_step else min_step  # a NaN estimate too
        at_cap = h_abs >= h_cap
        h_abs = h_cap if at_cap else h_abs
        t_new = t1 if h_abs >= abs(t1 - t) else t + direction * h_abs
        h = t_new - t
        np.multiply(_DOP_C[1:12], h, out=taus[:11])
        taus[:11] += t
        taus[11] = t_new
        C = coefficients(taus)
        np.multiply(_DOP_AB, h, out=hAB)
        for i, hA, K_before, K_stage in stages:
            np.matmul(hA, K_before, out=stage_f)
            stage += y
            flow(stage, C, i, K_stage)
        evaluations += 11
        np.matmul(hAB[12], Kf, out=y_new.reshape(-1))
        y_new += y
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= tol
        scale += tol
        np.matmul(_DOP_E, Kf, out=E_f)
        E /= scale
        np.square(E, out=E)
        np.sum(E, axis=1, out=e53)
        np.multiply(e3, 0.01, out=work)  # local = |h| e5 / sqrt(max((e5 + 0.01 e3) m, 1e-300))
        work += e5
        work *= y.shape[0]
        np.maximum(work, 1e-300, out=work)
        np.sqrt(work, out=work)
        np.multiply(e5, abs(h), out=local)
        local /= work
        np.multiply(neg_kappa, abs(t1 - t_new), out=weight)
        np.exp(weight, out=weight)
        weight *= _SURFACE_STEPS
        err = float(np.multiply(weight, local, out=work).max())
        if not err < 1.0:  # NaN rejects too
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**-0.125)
            rejected, retried = rejected + 1, True
            if h_abs < min_step:
                raise ForwardError(f"Riccati integration: step size underflow at t = {t}")
            continue
        # the next step ends about |h| nearer t1, where its error weighs more
        np.multiply(kappa, abs(h), out=work)
        np.exp(work, out=work)
        work *= weight
        np.minimum(work, _SURFACE_STEPS, out=work)
        work *= local
        ahead = float(work.max())
        factor = _MAX_FACTOR if ahead == 0.0 else min(_MAX_FACTOR, _SAFETY * ahead**-0.125)
        h_abs *= min(1.0, factor) if retried else factor
        capped += at_cap and t_new != t1
        t, accepted, retried = t_new, accepted + 1, False
        y, y_new, abs_y, abs_new = y_new, y, abs_new, abs_y
        flow(y, C, 11, K[0])
        evaluations += 1
    return y, accepted, rejected, evaluations, capped


def _check_admissible(report) -> None:
    """Refuse a failed :func:`validate_admissibility` report."""
    if not report.passed:
        raise ForwardError(report.message())


def _radial_symbols(parts, tol: float) -> tuple[list[np.ndarray], int, int, int, int]:
    """The Riccati core: reduced M0(r) = M(r e1) for a batch of (profile, radii)
    parts on one step sequence, and the step counts.

    Returns rows (M11, M22, M33, Im M13) per part, shape (n, 4) for its n radii,
    and the counts of :func:`_dop853` (accepted and rejected steps, flow
    evaluations, capped steps). Each node runs from its
    truncation depth H(r) to the surface in tau = y3 / H, from 1 to 0, started
    from the frozen half-space impedance S = -rho Z(lam(H), mu(H)) of its part's
    profile. Nodes with
    r <= EFOLDS/H_MAX carry S (rho = r, physical depth, c = H_MAX);
    deeper-frequency nodes carry S / r (rho = 1, scaled depth t = r y3,
    c = EFOLDS). All nodes of all parts, 4 reals each, are one joint integration
    of c times the module docstring's flow at y3 = tau H, which is linear in the
    monomials (S11, S22, S33, b, S11^2, S22^2, S33^2, b^2, S11 b, S33 b, 1).
    Their coefficients depend on depth alone and are evaluated per step on
    the (stage, node) grid, in one array allocated once and laid out as
    (row, monomial, stage, node), so that each coefficient is one contiguous
    (stage, node) block (the flow reads stage i as the (4, 11, node) view):
    only the flow's 13 entries are written, the two depth-free ones once per
    integration, and the rest stay zero. Per integration there are two more
    arrays: the (stage, node) depths, moduli and their combinations, from which
    each step writes the entries with ``out=`` (-p and -q computed once each and
    copied to their other slots; the node factors -c, -2 c rho, -c rho and
    4 c rho^2 formed once, exact), and the monomials. When every part's
    profile is polynomial, lam and mu are one Horner rule each over per-node
    coefficient rows, zero-padded to the batch's top degree, which is bit for
    bit each part's own evaluation and allocates nothing; a batch with a
    callable profile calls each part's profile, whose evaluations allocate
    temporaries. The integrator writes each stage state straight into the
    monomials' first rows, so a flow evaluation builds the other monomials in
    place and contracts them once. Depths are H(r) = min(H_MAX, EFOLDS / r). A
    batch of one part is that part's own integration; parts integrated
    together share the step sequence, which the hardest node sets, so their
    integrator errors are correlated.

    Linearised at its fixed point -rho Z(lam, mu), the flow contracts toward
    the surface at the rate 2 c rho = 2 |k| H per unit tau for every (lam, mu),
    because the isotropic Stroh root is p = i; the root is double, and so is
    the eigenvalue. Where the fixed point drifts with depth faster than |k|,
    relative to its size, the state lags it and contracts more slowly, so each
    node hands :func:`_dop853` the rate 2 H max(|k| - L, 0), L the largest drift
    |dZ/dy3| / |Z| of its profile's frozen rows between the surface and its
    depth, from 257 samples on [0, H_MAX]. The integrator weights each node's
    error by the damping on the way up and caps every step inside DOP853's
    stability interval: a node meets ``tol`` at the surface, not at every depth.
    """
    nodes = np.concatenate([np.asarray(r, dtype=float) for _, r in parts])
    ends = np.cumsum([len(r) for _, r in parts])
    spans = [slice(a, b) for a, b in zip(np.r_[0, ends[:-1]], ends)]
    scaled = nodes > EFOLDS / H_MAX
    sigma = np.where(scaled, nodes, 1.0)  # the state is S / sigma
    rho = nodes / sigma
    H = np.where(scaled, EFOLDS / sigma, H_MAX)

    if all(profile.is_polynomial for profile, _ in parts):
        # one Horner rule per modulus over per-node coefficient rows, zero-padded
        # to the batch's top degree: bit for bit each part's own _polyval
        top = max(len(c) for profile, _ in parts for c in (profile.lam_coeffs, profile.mu_coeffs))
        horner = np.zeros((2, max(top, 2), nodes.size))
        for (profile, _), sl in zip(parts, spans):
            for rows, c in zip(horner, (profile.lam_coeffs, profile.mu_coeffs)):
                rows[:len(c), sl] = np.array(c)[:, None]

        def moduli(y3, lam, mu):  # the batch's moduli at its nodes' depths, node axis last
            for out, c in zip((lam, mu), horner):
                np.multiply(c[-1], y3, out=out)
                out += c[-2]
                for cj in c[-3::-1]:
                    out *= y3
                    out += cj
            return lam, mu
    else:
        def moduli(y3, lam, mu):  # each part's profile at its nodes' depths, node axis last
            for (profile, _), sl in zip(parts, spans):
                lam[..., sl] = profile.lam(y3[..., sl])  # a profile may answer with a scalar
                mu[..., sl] = profile.mu(y3[..., sl])
            return lam, mu

    y0 = -rho * _impedance_rows(*moduli(H, *np.empty((2, nodes.size)))).T
    c = H * sigma
    cr, cr2 = c * rho, c * rho**2
    two_cr = 2.0 * cr
    # L of the docstring: the largest drift of each part's frozen rows above each depth
    y3 = np.linspace(0.0, H_MAX, 257)
    lag = np.empty(nodes.size)
    for (profile, _), sl in zip(parts, spans):
        z = _impedance_rows(*np.broadcast_arrays(profile.lam(y3), profile.mu(y3), y3)[:2])
        size = np.abs(z).max(axis=1)
        drift = np.abs(np.diff(z, axis=0)).max(axis=1) / (np.minimum(size[1:], size[:-1]) * y3[1])
        lag[sl] = np.maximum.accumulate(drift)[np.searchsorted(y3, H[sl]) - 1]
    rate = 2.0 * H * np.maximum(nodes - lag, 0.0)
    # (row, monomial, stage, node): each coefficient is one contiguous (stage, node)
    # block, and _dop853 asks for at most 12 times
    buffer = np.zeros((4, 11, 12, nodes.size))
    by_stage = buffer.transpose(2, 0, 1, 3)
    buffer[2, 3], buffer[3, 0] = two_cr, cr  # the depth-free coefficients
    # depth, lam, mu, d = 1 / (lam + 2 mu), g and a product at each (stage, node)
    scratch = np.empty((6, 12, nodes.size))
    # negation and scaling by 4 commute with rounding: -c / mu = -(c / mu), (4 cr2) x = cr2 (4 x)
    neg_c, neg_cr, neg_two_cr, four_cr2 = -c, -cr, -two_cr, 4.0 * cr2

    def coefficients(taus):
        n = taus.size
        y3, lam, mu, d, g, w = scratch[:, :n]
        np.multiply(taus[:, None], H, out=y3)
        moduli(y3, lam, mu)
        np.multiply(mu, 2.0, out=d)
        d += lam
        np.divide(1.0, d, out=d)
        np.multiply(lam, d, out=g)
        # row k, monomial j holds dS_k's coefficient of monomial j (docstring order):
        # -p = -c / mu at (0, 4), (1, 5), (2, 7), (3, 8), -q = -c d at (0, 7), (2, 6), (3, 9)
        p = np.divide(neg_c, mu, out=buffer[0, 4, :n])
        buffer[1, 5, :n] = buffer[2, 7, :n] = buffer[3, 8, :n] = p
        q = np.multiply(neg_c, d, out=buffer[0, 7, :n])
        buffer[2, 6, :n] = buffer[3, 9, :n] = q
        np.multiply(neg_two_cr, g, out=buffer[0, 3, :n])
        np.add(lam, mu, out=w)  # P = 4 mu (lam + mu) d
        w *= mu
        w *= d
        np.multiply(four_cr2, w, out=buffer[0, 10, :n])
        np.multiply(cr2, mu, out=buffer[1, 10, :n])
        np.multiply(neg_cr, g, out=buffer[3, 2, :n])
        return by_stage[:n]

    monomials = np.ones((11, nodes.size))
    state = monomials[:4]  # the integrator's stage buffer
    squares, products, even, b = monomials[4:8], monomials[8:10], state[::2], state[3]

    def flow(y, C, i, out):
        if y is not state:
            np.copyto(state, y)
        np.multiply(state, state, out=squares)
        np.multiply(even, b, out=products)
        np.einsum("kmn,mn->kn", C[i], monomials, out=out)

    y, *counts = _dop853(coefficients, flow, 1.0, 0.0, y0, tol, rate, stage=state)
    rows = (-sigma * y).T
    return [rows[sl] for sl in spans], *counts


# ---------------------------------------------------------------------------
# radial symbols (isotropy + depth-only coefficients => M(k) = R M0(|k|) R^T)
# ---------------------------------------------------------------------------


class RadialDtnTable:
    """M0 of one profile at explicit radii in [0, k_max], from one joint Riccati
    solve: rows (M11, M22, M33, Im M13) ``reduced`` at ``nodes``, each within
    ``riccati_tol``, and ``steps`` (accepted, rejected, flow evaluations,
    steps set by the stability cap). No run builds one: it stays for perfbench,
    which traces it, until ROADMAP item 4, and for ``oracles.dtn_symbol``."""

    def __init__(self, profile: LameProfile, k_max: float, radii,
                 riccati_tol: float = 1e-10) -> None:
        self.nodes = np.asarray(radii, dtype=float)
        if self.nodes.min() < 0.0 or self.nodes.max() > k_max:
            raise ValueError(f"radii must lie in [0, k_max = {k_max}]")
        (self.reduced,), *steps = _radial_symbols([(profile, self.nodes)], riccati_tol)
        self.steps = tuple(steps)


_FIRST_POINTS, _MAX_POINTS = 48, 1296  # Chebyshev points in s: 48 * 3^k, k <= 3


class RadialSymbol:
    """M0(r) of one profile at every r >= 0: rows(r) = r Z0 + R(s), s = r / (r + 2).

    Z0 (``z0``) are the rows of Z(lam(0), mu(0)) at e1. The remainder R = M0 - r Z0 is
    bounded and smooth in s on [0, 1] (the algebraic map of the half-line; Boyd,
    Chebyshev and Fourier Spectral Methods, 2001, ch. 17), so it is held at
    first-kind Chebyshev points ``s`` and interpolated barycentrically (Berrut
    & Trefethen, SIAM Review 2004) with ``weights``. A constant profile has
    R = 0, and ``s``, ``weights`` and ``remainder`` None. Only :func:`_resolve`
    builds symbols, for :class:`SymbolMemo`; every array is read-only.
    """

    def __init__(self, z0: np.ndarray, s: np.ndarray | None = None,
                 weights: np.ndarray | None = None, remainder: np.ndarray | None = None) -> None:
        self.z0, self.s, self.weights, self.remainder = z0, s, weights, remainder

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


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _resolve(profiles, riccati_tol: float) -> tuple[list[RadialSymbol], list[tuple[int, ...]]]:
    """The :class:`RadialSymbol` of each of ``profiles`` (admissible on
    [0, H_MAX]), and the joint integrations, each (nodes of the whole batch,
    accepted, rejected, flow evaluations, capped steps).

    From 48 Chebyshev points in s the count triples (they nest: solved values
    are kept) until the trailing third of R's Chebyshev coefficients is below
    ``riccati_tol`` times max(max |R|, max |Z0|); one still above it at 1296
    points is refused. Each round integrates the unresolved profiles' new
    points as one batch of the Riccati core."""
    z0 = [_impedance_rows(float(p.lam(0.0)), float(p.mu(0.0))) for p in profiles]
    _read_only(*z0)
    symbols = [RadialSymbol(z) if p.is_polynomial and not any(p.lam_coeffs[1:] + p.mu_coeffs[1:])
               else None for z, p in zip(z0, profiles)]  # a constant's is exact
    pending = [(i, np.empty((0, 4))) for i, sym in enumerate(symbols) if sym is None]
    n, solves = _FIRST_POINTS, []
    while pending:
        theta = (2.0 * np.arange(n) + 1.0) * (math.pi / (2 * n))  # s ascending
        new = (np.arange(n) % 3 != 1) | (n == _FIRST_POINTS)  # the n / 3 solved ones are 1::3
        r = 2.0 * np.tan(0.5 * theta[new]) ** 2
        rows, *steps = _radial_symbols([(profiles[i], r) for i, _ in pending], riccati_tol)
        solves.append((r.size * len(pending), *steps))
        trailing = np.cos(np.outer(np.arange(n - n // 3, n), theta))
        s = np.sin(0.5 * theta) ** 2
        weights = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * np.sin(theta)
        _read_only(s, weights)
        unresolved = []
        for (i, solved), reduced in zip(pending, rows):
            R = np.empty((n, 4))
            R[new], R[~new] = reduced - r[:, None] * z0[i], solved
            tail = np.abs(trailing @ R * (2.0 / n)).max()
            scale = max(np.abs(R).max(), np.abs(z0[i]).max())
            if tail <= riccati_tol * scale:
                _read_only(R)
                symbols[i] = RadialSymbol(z0[i], s, weights, R)
            elif 3 * n > _MAX_POINTS:
                raise ForwardError(f"radial symbol not resolved by {n} Chebyshev points: tail "
                                   f"{tail / scale:.3g} of the row scale")
            else:
                unresolved.append((i, R))
        pending, n = unresolved, 3 * n
    return symbols, solves


class SymbolMemo:
    """Radial symbols by request: profiles requested together (a ladder's one,
    or the calibration's three) are one entry, keyed by their contents (the
    object for callables), ``max_derivative_order`` and ``riccati_tol``. It
    holds each profile's symbols by order: its own at 0, its truncation
    ``taylor_truncate(p, k)``'s at k, or that truncation's failed admissibility
    report. A miss decides each distinct member's admissibility once, the
    requested profiles' first (an inadmissible one is refused before any
    integration), and builds the profiles and each distinct admissible
    truncation as one group (:func:`_resolve`); a hit is one
    lookup. So values depend only on the request, not on what the memo held
    before. Least recently used entries are dropped past ``maxsize``. Over the process,
    ``counts`` sums the integrations (``riccati_solves``) and their step counts,
    ``accepted`` lists each integrated symbol's Chebyshev point count (48 3^k
    after k triplings, which integrated that many radii), and ``seconds`` is the
    time spent building them."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize, self._groups = maxsize, OrderedDict()
        self.counts = Counter(dict.fromkeys(("riccati_solves", "exact_constants", "memo_hits",
                                             "steps_accepted", "steps_rejected",
                                             "rhs_evaluations", "steps_capped"), 0))
        self.accepted: list[int] = []
        self.seconds = 0.0

    def group(self, profiles, riccati_tol: float) -> tuple[tuple, ...]:
        """Each of ``profiles``' symbols by order, built together."""
        key = (tuple([(p.content or p, p.max_derivative_order) for p in profiles]), riccati_tol)
        if key in self._groups:
            self._groups.move_to_end(key)
            self.counts["memo_hits"] += 1
            return self._groups[key]
        members = {p.content or p: p for p in profiles}
        for p in members.values():  # each distinct member is decided once, these first
            _check_admissible(validate_admissibility(p, H_MAX))
        values, ladders = {}, []  # by content: refused truncations' reports, then symbols
        for p in profiles:
            ladders.append([p.content or p])
            for k in range(1, p.max_derivative_order + 1):
                t = taylor_truncate(p, k)
                if t.content not in members and t.content not in values:
                    report = validate_admissibility(t, H_MAX)
                    if report.passed:
                        members[t.content] = t
                    else:
                        values[t.content] = report
                ladders[-1].append(t.content)
        t0 = time.perf_counter()
        symbols, solves = _resolve(tuple(members.values()), riccati_tol)
        self.seconds += time.perf_counter() - t0
        for _, accepted, rejected, evaluations, capped in solves:
            self.counts.update(riccati_solves=1, steps_accepted=accepted, steps_rejected=rejected,
                               rhs_evaluations=evaluations, steps_capped=capped)
        for symbol in symbols:
            if symbol.s is None:
                self.counts["exact_constants"] += 1
            else:
                self.accepted.append(symbol.s.size)
        values.update(zip(members, symbols))
        self._groups[key] = tuple(tuple([values[c] for c in ladder]) for ladder in ladders)
        if len(self._groups) > self.maxsize:
            self._groups.popitem(last=False)
        return self._groups[key]

    def clear(self) -> None:
        """Forget every symbol, so that a test counting solves starts from none."""
        self._groups.clear()


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
class PolarGrid:
    """Polar frequency grid centered at k = 0 with cutoff spectral weights.

    The symbol M(k) = R(theta) M0(|k|) R(theta)^T is smooth in polar
    coordinates but has a conical kink at k = 0 in Cartesian ones; at desk
    scale the probe's spectral support straddles the origin, so a tensor grid
    converges slowly while the polar grid converges spectrally. The weights
    W(r, phi) (measure, squared cutoff transform, probe normalization) are
    kept as their angular moments F = W @ f(phi)^T, shape (nr, 5). The
    barycentric data of :meth:`rows` are kept per Chebyshev point count, and
    the forms of :meth:`form` per symbols, freed with the grid or the symbols.
    """

    r: np.ndarray
    moments: np.ndarray
    interpolations: dict = field(default_factory=dict, repr=False, compare=False)
    forms: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                             repr=False, compare=False)
    difference_forms: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False)

    def rows(self, symbol: RadialSymbol) -> np.ndarray:
        """``symbol.rows(r)`` at the grid's radii; counted in :data:`interpolation_counts`."""
        if symbol.s is None:
            return symbol.rows(self.r)
        n = symbol.s.size
        interpolation_counts["reused" if n in self.interpolations else "built"] += 1
        if n not in self.interpolations:
            self.interpolations[n] = symbol.interpolation(self.r)
            _read_only(*self.interpolations[n])
        return symbol.rows(self.r, self.interpolations[n])

    def form(self, symbols: tuple[RadialSymbol, ...]) -> np.ndarray:
        """G = rows^T F of ``symbols[0]`` (minus ``symbols[1]``, subtracted row by
        row first), shape (4, 5), built once; kept under weak keys on the symbol
        objects, not their ids, which a later symbol may reuse; see :data:`form_counts`."""
        forms = self.forms
        if len(symbols) > 1:
            forms = self.difference_forms.get(symbols[0])
            if forms is None:
                forms = self.difference_forms[symbols[0]] = weakref.WeakKeyDictionary()
        G = forms.get(symbols[-1])
        form_counts["built" if G is None else "reused"] += 1
        if G is None:
            rows = self.rows(symbols[0])
            if len(symbols) > 1:
                rows = rows - self.rows(symbols[1])
            G = forms[symbols[-1]] = rows.T @ self.moments
            G.setflags(write=False)
        return G

    @staticmethod
    def contract(forms: np.ndarray, probes) -> np.ndarray:
        """<C(a'), G> = sum of W * rows(r) . Phi(theta0 + phi) for each probe
        (a, omega) of ``probes`` and each moment form G = rows^T F of ``forms``,
        shape (N, ..., 4, 5): shape (probe, N, ...), in one product."""
        C = np.array([_probe_coefficients(a, omega) for a, omega in probes])
        C = C.reshape((len(C),) + (1,) * (forms.ndim - 2) + (4, 5))
        return np.sum(forms[None] * C, axis=(-2, -1))


def _probe_coefficients(a, omega) -> list[list[float]]:
    """C(a') of a probe as nested lists (module docstring), a' = R(theta0)^T a
    for theta0 the angle of omega; each component of a' is the full row sum of
    the rotation, zero terms included, as the product R @ a forms it, so zeros
    keep its signs. From Python numbers: for 20 entries, plain arithmetic costs
    a fraction of numpy's per-scalar calls."""
    theta0 = math.atan2(omega[1], omega[0])
    c, s = math.cos(theta0), math.sin(theta0)
    a = np.asarray(a, dtype=complex).tolist()
    a0, a1, a2 = [r0 * a[0] + r1 * a[1] + r2 * a[2]
                  for r0, r1, r2 in ((c, s, 0.0), (-s, c, 0.0), (0.0, 0.0, 1.0))]
    n0, n1 = abs(a0) ** 2, abs(a1) ** 2
    h, d = 0.5 * (n0 + n1), 0.5 * (n0 - n1)
    x = (a0.conjugate() * a1).real
    u, v = (a0.conjugate() * a2).imag, (a1.conjugate() * a2).imag
    return [[h, 0.0, 0.0, d, x], [h, 0.0, 0.0, -d, -x],
            [abs(a2) ** 2, 0.0, 0.0, 0.0, 0.0], [0.0, -2.0 * u, -2.0 * v, 0.0, 0.0]]


# over the process: PolarGrid.rows data per (grid, point count), forms per (grid, symbols)
interpolation_counts = Counter(built=0, reused=0)
form_counts = Counter(built=0, reused=0)


@lru_cache(maxsize=64)
def polar_grid(N: int, rho_tilde: int, cutoff, quad: QuadratureSettings) -> PolarGrid:
    """Direction-free polar quadrature grid, memoised (read-only arrays).

    Radial Gauss-Legendre nodes cover [max(0, N - spread), N + spread] with
    spread = W N^{1-rho}; the angular rule is the trapezoid rule on the full
    circle while the spectral support contains the origin, otherwise
    Gauss-Legendre on the subtended wedge. Both are symmetric, so only phi in
    [0, pi] is evaluated, each node with its mirror's weight.
    Cutoffs key the memo by identity. A run's ladders share one cutoff, so
    the 64 entries hold every grid of a run with up to 64 (N, rho_tilde) pairs.
    A grid whose squared radii (r + N)^2 overflow is refused (ForwardError):
    past that cutoff width its weights would drop the spectrum unseen.
    The weights need only kappa^2 = N^{2 rho - 2} |k - N e1|^2: a grid allocates
    one (radius, angle) array, which holds kappa^2 and then |eta_hat|^2 over a
    constant (:meth:`~lame_edge.ansatz.CutoffProfile.fourier_power`). Its
    moments take the angular weights folded into the harmonics and, per
    radius, one vector of the constant, the measure and the probe
    normalization.
    """
    rho = 1.0 / rho_tilde
    W = cutoff.spectral_halfwidth(quad.tail_tol)
    spread = W * N ** (1.0 - rho)
    r_lo, r_hi = max(0.0, N - spread), N + spread
    if not (r_hi + N) * (r_hi + N) < math.inf:  # bounds every r^2 + N^2 - 2 N r cos(phi)
        raise ForwardError(
            f"cutoff width sigma = {getattr(cutoff, 'sigma', None)} takes the N = {N}, "
            f"rho_tilde = {rho_tilde} pairing grid to radius {r_hi:.3g}, whose squared "
            f"wavenumbers overflow a double")
    x, w = gauss_legendre(2 * quad.nodes)
    r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
    wr = 0.5 * (r_hi - r_lo) * w

    n = quad.nodes  # half the angular nodes
    if spread >= N:
        phi = math.pi * np.arange(n + 1) / n  # 0 and pi are their own mirrors
        wt = 2.0 * math.pi / n * np.r_[0.5, np.ones(n - 1), 0.5]
    else:
        half = 1.05 * math.asin(min(1.0, spread / N))
        xt, wwt = gauss_legendre(2 * n)
        phi = half * xt[n:]
        wt = 2.0 * half * wwt[n:]

    cos_phi = np.cos(phi)
    # kappa^2 = N^{2 rho - 2} (r^2 + N^2 - 2 N r cos phi), then |eta_hat|^2 / constant
    power = np.multiply.outer(2.0 * float(N) * r, cos_phi)
    np.subtract((r**2 + float(N) ** 2)[:, None], power, out=power)
    power *= N ** (2.0 * rho - 2.0)
    constant = cutoff.fourier_power(power)
    moments = power @ (wt[:, None] * _harmonics(cos_phi, np.sin(phi)))
    moments *= (constant * N ** (2.0 * rho - 3.0) / (4.0 * math.pi**2) * wr * r)[:, None]
    moments[:, [2, 4]] = 0.0  # odd in phi: the mirrored nodes cancel them
    _read_only(r, moments)
    return PolarGrid(r, moments)


def warm_tables(profiles, quad: QuadratureSettings = DEFAULT_QUAD,
                m: int = 0) -> list[tuple[RadialSymbol, ...]]:
    """The symbols of an order-m ladder of each of ``profiles`` (one group): the
    profile's and, for m >= 1, its order-m truncation's. They are read from
    the group's one memo entry (:class:`SymbolMemo`), which does not depend on
    m, so values do not depend on evaluation order or history, and every
    ladder of a profile, whatever its order, shares them. m is checked against
    each profile's ``max_derivative_order`` before the lookup; an order-m
    ladder whose truncation is inadmissible is refused."""
    profiles = tuple(profiles)
    for p in profiles:
        if not 0 <= m <= p.max_derivative_order:
            raise ValueError(f"profile carries derivatives to order {p.max_derivative_order}, "
                             f"got m = {m}")
    out = []
    for symbols in symbol_memo.group(profiles, quad.riccati_tol):
        if not isinstance(symbols[m], RadialSymbol):
            _check_admissible(symbols[m])
        out.append((symbols[0], symbols[m]) if m else symbols[:1])
    return out


def pairing(profile: LameProfile, probe: ProbeSpec,
            quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """<Lambda_C phi^N, conj(phi^N)> via the tangential-Fourier identity.

    value = (2 pi)^-2 N^{2 rho - 3} int |eta_hat(kappa(k))|^2 a^H M(k) a dk
    over the polar grid, wide enough that the excluded spectral tail is below
    quad.tail_tol of the cutoff mass; real, as M(k) is Hermitian. Runs call
    :func:`ladder_pairings`; this stays for perfbench until ROADMAP item 4.
    """
    return float(ladder_pairings((profile,), 0, (probe,), (probe.N,), probe.rho_tilde,
                                 probe.cutoff, quad)[0, 0, 0])


def difference_pairing(profile: LameProfile, probe: ProbeSpec,
                       quad: QuadratureSettings = DEFAULT_QUAD) -> float:
    """pairing(profile) - pairing(order-m truncated profile) at the probe's
    order m >= 1, on one shared grid.

    The shared nodes (same polar grid, same radial radii) make the correlated
    part of the quadrature error cancel, which matters because the m-th order
    signal is O(N^-m) relative to each term. Like :func:`pairing`, it stays
    for perfbench until ROADMAP item 4.
    """
    if probe.m < 1:
        raise ValueError("difference pairing requires m >= 1 (m = 0 is pairing)")
    return float(ladder_pairings((profile,), probe.m, (probe,), (probe.N,), probe.rho_tilde,
                                 probe.cutoff, quad)[0, 0, 0])


def ladder_pairings(profiles, m: int, probes, N_values, rho_tilde: int, cutoff,
                    quad: QuadratureSettings = DEFAULT_QUAD) -> np.ndarray:
    """:func:`pairing` (m = 0) or :func:`difference_pairing` (m >= 1) values of
    each of ``profiles`` (one group, :func:`warm_tables`) for each of ``probes``
    (only their a and omega are read) at each N of ``N_values``, on the grids
    of the battery's one ``rho_tilde`` and ``cutoff``, real, shape (profile,
    probe, N): each member's N grids are looked up and its moment forms
    stacked, and every probe is contracted with all of them in one product."""
    forms = np.stack([[polar_grid(int(n), rho_tilde, cutoff, quad).form(symbols)
                       for n in N_values] for symbols in warm_tables(profiles, quad, m)])
    return PolarGrid.contract(forms, [(p.a, p.omega) for p in probes]).swapaxes(0, 1)

