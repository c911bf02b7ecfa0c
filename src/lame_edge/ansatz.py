"""Oscillating boundary probes: the cutoffs, the probe specification and its datum.

A probe is phi^N(y') = N^{1/2-rho} eta(N^{1-rho} y') exp(i N y'.omega) a with a
smooth cutoff eta normalized to unit L2 mass, so the probe itself carries L2
mass |a|^2 / N. Of the probe machinery the run path needs only this module;
the interior extension, the corrector cascade, is :mod:`lame_edge.cascade`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .stroh import _as_tangent

__all__ = ["BumpCutoff", "GaussianCutoff", "ProbeSpec", "boundary_datum", "gauss_legendre"]


# the first ten positive zeros j_{0,k} of the Bessel function J0
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
             27.493479132040253, 30.634606468431976)


def _legendre_pair(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n, P_n - P_{n-1}) at x = 1 - t by the three-term recurrence written for
    the differences, (k+1) D_{k+1} = k D_k - (2k+1) t P_k, so that near x = 1
    nothing cancels: every term carries t, which is exact to rounding there."""
    d = -t
    p = 1.0 + d
    tp = np.empty_like(t)
    for k in range(1, n):
        np.multiply(t, p, out=tp)
        tp *= (2 * k + 1) / (k + 1)
        d *= k / (k + 1)
        d -= tp
        p += d
    return p, d


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1], computed once per n (read-only).

    Newton's iteration on P_n(cos theta) in the angle theta (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013), for the nodes in (0, 1) and mirrored:
    started from Tricomi's asymptotic nodes and, for the ten nearest 1, where
    Tricomi's is off by up to 7e-4 (the first) and 8e-6 (the rest) at n = 192,
    from the Bessel-zero asymptotic theta_k = psi + (psi cot psi - 1) /
    (8 psi rho^2), psi = j_{0,k} / rho, rho = n + 1/2.
    P_n comes from :func:`_legendre_pair` in t = 1 - cos theta = 2 sin^2(theta/2),
    so theta and the weights 2 / (dP_n/dtheta)^2 keep their relative accuracy
    at the ends, where the companion eigenproblem of
    ``numpy.polynomial.legendre.leggauss`` loses it. The iteration stops once a
    step delta is below 1e-9 of theta (it converges quadratically, with
    constant about 1/2), which from these starts is the first step for every
    n >= 96. The weights need no further evaluation: the last derivative is
    carried to the updated node by Legendre's equation, P'' = -cot theta P' -
    n(n+1) P with P = -delta P', to second order: dP/dtheta(theta + delta) =
    dP/dtheta(theta) (1 - delta cot theta + n(n+1) delta^2 / 2).
    """
    k = np.arange(1, n // 2 + 1)
    phi = (4 * k - 1) * (math.pi / (4 * n + 2))
    theta = np.arccos((1.0 - (n - 1) / (8 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384 * n**4))
                      * np.cos(phi))
    rho = n + 0.5
    psi = np.array(_J0_ZEROS[:theta.size]) / rho
    theta[:psi.size] = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho**2)
    for _ in range(8):
        t = 2.0 * np.sin(0.5 * theta) ** 2
        p, d = _legendre_pair(n, t)
        slope = n * (t * p - d) / np.sin(theta)  # -dP_n/dtheta
        step = p / slope
        slope *= 1.0 - step / np.tan(theta) + (0.5 * n * (n + 1)) * step**2
        theta += step
        if np.all(np.abs(step) <= 1e-9 * theta):
            break
    x, w = np.cos(theta), 2.0 / slope**2
    if n % 2:  # the middle node 0, with P_{n-1}(0) = (-1)^j (2j-1)!!/(2j)!!, n = 2j + 1
        middle = math.prod(-(2 * i - 1) / (2 * i) for i in range(1, n // 2 + 1))
        x, w = np.r_[x, 0.0], np.r_[w, 2.0 / (n * middle) ** 2]
    x = np.r_[-x, x[::-1][n % 2:]]
    w = np.r_[w, w[::-1][n % 2:]]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------


class CutoffProfile:
    """Smooth cutoff eta on R^2 with unit L2 mass and analytic derivatives.

    Subclasses provide ``_derivative_factory(beta)`` returning a vectorized
    callable for d^beta eta, the radial Fourier transform ``fourier_radial(k)``,
    and ``spectral_halfwidth(tail_tol)``, the |k| that captures all but that
    fraction of the |eta_hat|^2 mass.
    """

    def __init__(self) -> None:
        self._deriv_cache: dict[tuple[int, int], Callable] = {}

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.derivative((0, 0))(pts)

    def fourier_power(self, k2: np.ndarray) -> float:
        """|eta_hat|^2 at the wavenumbers sqrt(k2), in place: overwrites the float
        array ``k2`` (negative rounding residue read as 0) with |eta_hat|^2 / c
        and returns the constant c, here 1: |fourier_radial(sqrt(k2))|^2."""
        np.maximum(k2, 0.0, out=k2)
        np.sqrt(k2, out=k2)
        k2[...] = self.fourier_radial(k2)
        np.square(k2, out=k2)
        return 1.0

    def derivative(self, beta: tuple[int, int]) -> Callable[[np.ndarray], np.ndarray]:
        beta = (int(beta[0]), int(beta[1]))
        if beta not in self._deriv_cache:
            self._deriv_cache[beta] = self._derivative_factory(beta)
        return self._deriv_cache[beta]

    def l2_mass(self, n: int = 800) -> float:
        """Quadrature check of the normalization integral of eta^2: the tests
        hold it to 1, and :func:`lame_edge.forward.limit_quadrature` scales by it."""
        x, w = gauss_legendre(n)
        r = 0.5 * (x + 1.0) * self.support_radius
        wr = 0.5 * self.support_radius * w
        pts = np.column_stack([r, np.zeros_like(r)])
        vals = self.value(pts)
        return float(2.0 * np.pi * np.sum(wr * r * vals**2))

    support_radius: float = 1.0


class GaussianCutoff(CutoffProfile):
    """Gaussian surrogate cutoff, L2-normalized, default sigma = 1/3.

    Not compactly supported: eta(|z'| = 1)/eta(0) = exp(-1/(2 sigma^2))
    (about 1.1e-2 at sigma = 1/3) and the L2 mass outside the unit disc is
    exp(-1/sigma^2) (about 1.2e-4). Used where compact support is immaterial
    and a closed-form Fourier transform pays: the pairing quadrature.
    """

    def __init__(self, sigma: float = 1.0 / 3.0) -> None:
        super().__init__()
        self.sigma = float(sigma)
        self.amplitude = 1.0 / (self.sigma * math.sqrt(math.pi))
        # effective radius only used for quadrature bounds
        self.support_radius = 8.0 * self.sigma

    def _derivative_factory(self, beta):
        s2 = math.sqrt(2.0) * self.sigma
        try:
            scale_x, scale_y = ((-1.0 / s2) ** b for b in beta)
        except OverflowError:
            from .elastic import NumericalDiagnostic

            raise NumericalDiagnostic(
                f"cutoff width sigma = {self.sigma}: the factor (-1/(sqrt(2) sigma))^"
                f"{max(beta)} of its derivative {beta} overflows a double") from None

        def herm(order: int):
            c = np.zeros(order + 1)
            c[order] = 1.0
            return c

        hx, hy = herm(beta[0]), herm(beta[1])

        def fn(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            gx = np.polynomial.hermite.hermval(x / s2, hx) * scale_x
            gy = np.polynomial.hermite.hermval(y / s2, hy) * scale_y
            return self.amplitude * gx * gy * np.exp(-(x**2 + y**2) / (2.0 * self.sigma**2))

        return fn

    def fourier_radial(self, k):
        # A exp(-sigma^2 k^2 / 2), A = amplitude 2 pi sigma^2, in one array
        k = np.asarray(k, dtype=float)
        v = np.square(k, out=np.empty(k.shape))
        v *= -(self.sigma**2)
        v /= 2.0
        np.exp(v, out=v)
        v *= self.amplitude * 2.0 * np.pi * self.sigma**2
        return v[()]  # a scalar k gives a scalar

    def fourier_power(self, k2: np.ndarray) -> float:
        """|eta_hat|^2 = A^2 exp(-sigma^2 k^2) in closed form: ``k2`` becomes
        exp(-sigma^2 k2) in place, and A^2 is returned."""
        k2 *= -(self.sigma**2)
        np.exp(k2, out=k2)
        return (self.amplitude * 2.0 * np.pi * self.sigma**2) ** 2

    def spectral_halfwidth(self, tail_tol: float) -> float:
        # fraction of |eta_hat|^2 mass beyond radius W is exp(-sigma^2 W^2)
        return math.sqrt(-math.log(tail_tol)) / self.sigma


def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = gauss_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


class BumpCutoff(CutoffProfile):
    """Mollifier bump exp(-s/(1-|z'|^2)) on the open unit disc, L2-normalized.

    The classic mollifier (s = 1) exceeds 1 by about 7% once its L2 mass is
    normalized; the sharpness s = 0.7 keeps 0 <= eta <= 1, unit L2 mass and
    unit-disc support simultaneously. Derivatives are closed forms, a
    polynomial in z' and 1/(1-|z'|^2) times the bump, built once per
    multi-index and evaluated only strictly inside the disc (exactly zero
    outside). The Fourier transform is the cosine transform of the Abel
    projection, eta_hat(k) = 2 int_0^1 cos(k x) A(x) dx with
    A(x) = 2 int_0^sqrt(1-x^2) eta(sqrt(x^2 + y^2)) dy, both on Gauss-Legendre
    rules: 150 nodes in y; in x, 80 for |k| <= 200 and 150 above (within 2e-14
    of eta_hat(0) for |k| <= 400).
    """

    sharpness = 0.7
    _K_SPLIT, _OUTER = 200.0, (80, 150)  # outer nodes for |k| <= _K_SPLIT and above
    _K_SCAN, _N_SCAN = 400.0, 2048  # trapezoid grid of the spectral tail scan

    def __init__(self) -> None:
        super().__init__()
        # L2 normalization constant, radially exact quadrature
        r, wr = _unit_rule(600)
        mass = 2.0 * np.pi * np.sum(wr * r * np.exp(-self.sharpness / (1.0 - r**2)) ** 2)
        self.amplitude = 1.0 / math.sqrt(mass)
        # Abel projection at the outer nodes t of [0, 1], each on its half-chord h
        y, wy = _unit_rule(150)
        self._cosine_rules = []
        for n in self._OUTER:
            t, wt = _unit_rule(n)
            h = np.sqrt(1.0 - t**2)
            pts = np.stack(np.broadcast_arrays(t[:, None], h[:, None] * y[None, :]), axis=-1)
            abel = 2.0 * np.sum(h[:, None] * wy[None, :] * self.value(pts), axis=1)
            self._cosine_rules.append((t, 2.0 * wt * abel))

    def _derivative_factory(self, beta):
        # eta = amp h(q) with h = exp(-s u), u = 1/(1 - q), q = x^2 + y^2, so
        # h^(n) = P_n(u) h with P_0 = 1, P_{n+1} = u^2 (P_n' - s P_n); x and y enter
        # separably: d_x^a g(x^2) = sum_k a!/(k! (a-2k)!) (2x)^(a-2k) g^(a-k)(x^2)
        pp, s, amp = np.polynomial.polynomial, self.sharpness, self.amplitude
        P = [np.array([1.0])]
        for _ in range(sum(beta)):
            P.append(pp.polymulx(pp.polymulx(pp.polysub(pp.polyder(P[-1]), s * P[-1]))))

        def chain(a):
            return [(k, math.factorial(a) / (math.factorial(k) * math.factorial(a - 2 * k)))
                    for k in range(a // 2 + 1)]

        terms = [(ck * cj, beta[0] - 2 * k, beta[1] - 2 * j, P[sum(beta) - k - j])
                 for k, ck in chain(beta[0]) for j, cj in chain(beta[1])]

        def fn(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            x_, y_ = pts[..., 0], pts[..., 1]
            r2 = x_**2 + y_**2
            out = np.zeros_like(r2)
            mask = r2 < 1.0 - 1e-12
            if np.any(mask):
                x2, y2, u = 2.0 * x_[mask], 2.0 * y_[mask], 1.0 / (1.0 - r2[mask])
                poly = sum(c * x2**ex * y2**ey * pp.polyval(u, Pn) for c, ex, ey, Pn in terms)
                out[mask] = amp * poly * np.exp(-s * u)
            return out

        return fn

    def fourier_radial(self, k):
        # in blocks of 4096 wavenumbers, so that the (k, x) phases stay ~5 MB
        k = np.asarray(k, dtype=float)
        flat, out = k.ravel(), np.empty(k.size)
        for i in range(0, flat.size, 4096):
            part = flat[i:i + 4096]
            high = np.abs(part) > self._K_SPLIT
            for sel, (x, w) in zip((~high, high), self._cosine_rules):
                out[i:i + 4096][sel] = np.cos(np.multiply.outer(part[sel], x)) @ w
        return out.reshape(k.shape)

    def spectral_halfwidth(self, tail_tol: float) -> float:
        k = np.linspace(0.0, self._K_SCAN, self._N_SCAN)
        dens = np.abs(self.fourier_radial(k)) ** 2 * k
        cum = np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(k))
        frac = 1.0 - cum / cum[-1]
        idx = np.searchsorted(-frac, -tail_tol)
        if idx >= len(k) - 1:
            raise ValueError(f"spectrum scanned to k = {self._K_SCAN} too short for tail {tail_tol}")
        return float(k[idx + 1])


# ---------------------------------------------------------------------------
# probe specification
# ---------------------------------------------------------------------------


def smallness_ok(m: int, rho_tilde: int, p: float) -> bool:
    rho = 1.0 / rho_tilde
    return rho < p and (1.0 - rho) * (m + p) >= m + rho


@dataclass(frozen=True)
class ProbeSpec:
    """Probe (a, omega', N, rho, m, cutoff) defining phi^N and all exponents."""

    a: np.ndarray
    omega: np.ndarray
    N: int
    rho_tilde: int
    m: int
    cutoff: CutoffProfile
    holder_exponent: float = 0.9

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=complex).ravel()
        if a.shape != (3,):
            raise ValueError("amplitude a must be a 3-vector")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "omega", _as_tangent(self.omega))
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.rho_tilde < 2:
            raise ValueError("rho_tilde must be an integer >= 2")
        if not smallness_ok(self.m, self.rho_tilde, self.holder_exponent):
            raise ValueError(
                f"smallness condition fails for m={self.m}, rho=1/{self.rho_tilde}, "
                f"p={self.holder_exponent}"
            )

    @property
    def rho(self) -> float:
        return 1.0 / self.rho_tilde

    @property
    def n_correctors(self) -> int:
        """m / rho, the depth of the corrector stack."""
        return self.m * self.rho_tilde

    @property
    def support_radius(self) -> float:
        """Support radius N^(rho-1) of the probe (compact cutoffs), the scale on
        which the tests check :func:`boundary_datum` and the ansatz."""
        return self.N ** (self.rho - 1.0)

    @staticmethod
    def auto_rho_tilde(m: int, p: float = 0.9) -> int:
        """rho_tilde = 4 when admissible, else the smallest admissible one."""
        if smallness_ok(m, 4, p):
            return 4
        for rt in range(2, 64):
            if smallness_ok(m, rt, p):
                return rt
        raise ValueError(f"no admissible rho_tilde for m={m}, p={p}")


def boundary_datum(probe: ProbeSpec) -> Callable[[np.ndarray], np.ndarray]:
    """phi^N(y') = N^{1/2-rho} eta(N^{1-rho} y') exp(i N y'.omega') a.

    Oracle: the ansatz's trace at y3 = 0 must equal it, and its mass and
    support are checked against the probe normalization."""
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
