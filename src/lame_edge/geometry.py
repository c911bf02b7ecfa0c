"""Boundary normal coordinates and curved-boundary tensor algebra.

Surfaces are graphs x3 = h(x') in adapted coordinates (h(0) = 0, grad h(0) = 0)
with the elastic body above the graph; the chart maps x to y = (y', y3) where
y3 is the distance along inward normals and y' labels the foot point, so
F(x0) = 0, grad F(x0) = I, g33 = 1 and g_a3 = 0. No curved-domain forward
solve happens here: the module validates the transformation identities and
evaluates the curvature-corrected first-order limit formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elastic import tensor_components
from .stroh import acoustic_bracket, closed_form_response

__all__ = [
    "BoundaryChart",
    "ChartError",
    "FlatPatch",
    "GraphPatch",
    "ParaboloidPatch",
    "PushedTensor",
    "SpherePatch",
    "akp",
    "build_chart",
    "first_order_nonflat",
    "push_forward",
]


class ChartError(RuntimeError):
    """Chart construction failed or a point lies outside it (focal point, out of patch)."""


class GraphPatch:
    """Boundary surface x3 = h(x') with analytic derivatives."""

    def __init__(
        self,
        h: Callable[[np.ndarray], float],
        grad: Callable[[np.ndarray], np.ndarray],
        hess: Callable[[np.ndarray], np.ndarray],
        radius: float = 1.0,
    ) -> None:
        self.h = h
        self.grad = grad
        self.hess = hess
        self.radius = float(radius)  # patch radius in x'
        if abs(float(h(np.zeros(2)))) > 1e-14 or np.linalg.norm(grad(np.zeros(2))) > 1e-14:
            raise ChartError("surface must be in adapted coordinates: h(0)=0, grad h(0)=0")


class FlatPatch(GraphPatch):
    def __init__(self, radius: float = 1.0) -> None:
        super().__init__(
            lambda u: 0.0,
            lambda u: np.zeros(2),
            lambda u: np.zeros((2, 2)),
            radius=radius,
        )


class SpherePatch(GraphPatch):
    """Sphere of radius R tangent to the plane at the origin, body inside."""

    def __init__(self, R: float = 2.0) -> None:
        R = float(R)

        def h(u):
            return R - math.sqrt(R**2 - float(u @ u))

        def grad(u):
            s = math.sqrt(R**2 - float(u @ u))
            return np.asarray(u, dtype=float) / s

        def hess(u):
            u = np.asarray(u, dtype=float)
            s = math.sqrt(R**2 - float(u @ u))
            return np.eye(2) / s + np.outer(u, u) / s**3

        super().__init__(h, grad, hess, radius=0.6 * R)
        self.R = R


class ParaboloidPatch(GraphPatch):
    """Paraboloid x3 = (c1 x1^2 + c2 x2^2)/2."""

    def __init__(self, c1: float = 1.0, c2: float = 1.0, radius: float = 1.0) -> None:
        c = np.array([float(c1), float(c2)])

        def h(u):
            return 0.5 * float(c[0] * u[0] ** 2 + c[1] * u[1] ** 2)

        def grad(u):
            return c * np.asarray(u, dtype=float)

        def hess(u):
            return np.diag(c)

        super().__init__(h, grad, hess, radius=radius)


@dataclass
class BoundaryChart:
    """Boundary normal coordinates around the tangency point, the origin."""

    surface: GraphPatch
    depth: float

    def _normal(self, u: np.ndarray) -> np.ndarray:
        g = self.surface.grad(u)
        v = np.array([-g[0], -g[1], 1.0])
        return v / np.linalg.norm(v)

    def _dnormal(self, u: np.ndarray) -> np.ndarray:
        """Columns d n / d u_a, from the surface Hessian."""
        g = self.surface.grad(u)
        H = self.surface.hess(u)
        v = np.array([-g[0], -g[1], 1.0])
        nv = np.linalg.norm(v)
        dv = np.zeros((3, 2))
        dv[0, :] = -H[0, :]
        dv[1, :] = -H[1, :]
        out = np.zeros((3, 2))
        for a in range(2):
            out[:, a] = dv[:, a] / nv - v * float(v @ dv[:, a]) / nv**3
        return out

    def from_normal(self, y: np.ndarray) -> np.ndarray:
        """x = X(y') + y3 n(y').

        The chart map itself: the tests check :meth:`jacobian` against its
        central differences, and the flat chart against the identity."""
        y = np.asarray(y, dtype=float)
        u, y3 = y[:2], y[2]
        X = np.array([u[0], u[1], float(self.surface.h(u))])
        return X + y3 * self._normal(u)

    def _forward_jacobian(self, y: np.ndarray) -> np.ndarray:
        """D Phi(y), columns = d x / d(y1, y2, y3)."""
        y = np.asarray(y, dtype=float)
        u, y3 = y[:2], y[2]
        g = self.surface.grad(u)
        dn = self._dnormal(u)
        D = np.zeros((3, 3))
        for a in range(2):
            D[:, a] = np.array([1.0 if a == 0 else 0.0, 1.0 if a == 1 else 0.0, g[a]])
            D[:, a] += y3 * dn[:, a]
        D[:, 2] = self._normal(u)
        return D

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """J = grad F at the point with normal coordinates y."""
        return np.linalg.inv(self._forward_jacobian(np.asarray(y, dtype=float)))

    def metric(self, y: np.ndarray) -> np.ndarray:
        J = self.jacobian(y)
        return J @ J.T

    def jacobian_depth_derivative(self) -> np.ndarray:
        """d J / d y3 at the tangency point: the surface shape operator.

        J(0) = I, so dJ/dy3|0 = -(d/dy3 D Phi)(0), whose only nonzero block
        is minus the column derivatives of the normal, i.e. +Hess h(0).
        """
        H = self.surface.hess(np.zeros(2))
        out = np.zeros((3, 3))
        out[:2, :2] = H
        return out


def build_chart(surface: GraphPatch, depth: float = 0.5) -> BoundaryChart:
    """Chart of boundary normal coordinates valid to the requested depth.

    Rejects depths at which inward normal lines cross (focal points), with
    the critical depth in the message.
    """
    # principal-curvature scan over the patch
    kappa_max = 0.0
    for r in np.linspace(0.0, surface.radius, 12):
        for th in np.linspace(0.0, 2.0 * np.pi, 13)[:-1]:
            u = r * np.array([np.cos(th), np.sin(th)])
            H = np.asarray(surface.hess(u), dtype=float)
            kappa_max = max(kappa_max, float(np.abs(np.linalg.eigvalsh(H)).max()))
    if kappa_max > 0.0 and depth >= 1.0 / kappa_max:
        raise ChartError(
            f"normal lines cross within depth {depth}: critical depth "
            f"{1.0 / kappa_max:.6g}"
        )
    return BoundaryChart(surface, float(depth))


@dataclass(frozen=True)
class PushedTensor:
    """Push-forward components C~_iqkp(y) with block extraction."""

    components: np.ndarray  # axes (i, q, k, p)
    jacobian: np.ndarray
    lam: float
    mu: float

    def t_block(self) -> np.ndarray:
        return self.components[:, 2, :, 2]

    def r_block(self, zeta_prime) -> np.ndarray:
        z = np.asarray(zeta_prime, dtype=float).ravel()[:2]
        return np.einsum("ikp,p->ik", self.components[:, 2, :, :2], z)

    def q_block(self, zeta_prime) -> np.ndarray:
        z = np.asarray(zeta_prime, dtype=float).ravel()[:2]
        return np.einsum("iqkp,q,p->ik", self.components[:, :2, :, :2], z, z)

    def reference_blocks(self, zeta_prime) -> dict[str, np.ndarray]:
        """Congruence identities: T~ = J T. J^T etc. with the pulled-back
        covectors nu = J^T e3 and omega~ = J^T (zeta', 0)."""
        J = self.jacobian
        nu = J.T @ np.array([0.0, 0.0, 1.0])
        z = np.asarray(zeta_prime, dtype=float).ravel()[:2]
        om = J.T @ np.array([z[0], z[1], 0.0])
        Td = acoustic_bracket(self.lam, self.mu, nu, nu)
        Rd = acoustic_bracket(self.lam, self.mu, nu, om)
        Qd = acoustic_bracket(self.lam, self.mu, om, om)
        return {
            "T": J @ Td @ J.T,
            "R": J @ Rd @ J.T,
            "Q": J @ Qd @ J.T,
            "nu": nu,
            "omega": om,
        }


def push_forward(lam: float, mu: float, chart: BoundaryChart, y) -> PushedTensor:
    """Push-forward C~_iqkp(y) = J_ia J_qj J_kc J_pl C_ajcl at x = F^{-1}(y).

    All four slots transform (displacement components are pulled back along
    with the covectors); this is the convention under which the congruence
    identities T~ = J T. J^T etc. hold. Dropping the two displacement-side
    factors would break those identities for any curved chart.
    """
    y = np.asarray(y, dtype=float)
    if y[2] < 0.0 or y[2] > chart.depth or np.hypot(y[0], y[1]) > chart.surface.radius:
        raise ChartError(f"point {y} outside chart validity")
    J = chart.jacobian(y)
    C = tensor_components(lam, mu)
    comp = np.einsum("ia,qj,kc,pl,ajcl->iqkp", J, J, J, J, C, optimize=True)
    return PushedTensor(comp, J, lam, mu)


def akp(a, omega) -> np.ndarray:
    """Rank-one gradient-factor tensor A_kp = a_k v_p with v = (i omega', -1).

    The flat-case gradient factor (i omega', -1) x a, so tr A =
    i sum omega_i a_i - a_3.
    """
    a = np.asarray(a, dtype=complex).ravel()
    w = np.asarray(omega, dtype=float).ravel()
    return np.outer(a, np.array([1j * w[0], 1j * w[1], -1.0], dtype=complex))


def first_order_nonflat(
    chart: BoundaryChart,
    lam0: float,
    mu0: float,
    dlam: float,
    dmu: float,
    a,
    omega,
    variant: str = "plus_one",
) -> complex:
    """First-order limit formula with the chart-curvature correction.

    Result = flat-case order-1 terms + (1/2) sum over the curvature terms of
    the depth derivative of the pushed-forward tensor,

        (1/2) sum_{beta+gamma=1} C_ijkl d3^beta(J_pl) d3^gamma(J_qj) A_kp A_iq,

    evaluated at the tangency point (where J = I and dJ/dy3 is the shape
    operator). The coefficient-derivative term of the product rule is the
    flat-case contribution itself and is represented by the flat terms, so a
    flat chart reduces exactly to the closed-form response.
    """
    A = akp(a, omega)
    flat = closed_form_response(a, omega, 1, dlam, dmu, variant)
    C0 = tensor_components(lam0, mu0)
    J1 = chart.jacobian_depth_derivative()
    corr = 0.5 * (
        np.einsum("ijkl,pl,kp,ij->", C0, J1, A, A)
        + np.einsum("ijkl,qj,kl,iq->", C0, J1, A, A)
    )
    return complex(flat + corr)
