"""Isotropic elastic tensor algebra, admissibility checks and depth profiles.

All moduli are treated as dimensionless. Profiles depend on depth y3 >= 0 only;
tangentially varying coefficients are out of scope for the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AdmissibilityError",
    "AdmissibilityReport",
    "DisplacementJet",
    "LameProfile",
    "TruncatedProfile",
    "check_admissible",
    "energy_density",
    "isotropic_components",
    "taylor_truncate",
    "tensor_components",
    "validate_admissibility",
]


class AdmissibilityError(ValueError):
    """Raised when (lambda, mu) violate mu > 0 or 3*lambda + 2*mu > 0."""


def check_admissible(lam: float, mu: float) -> None:
    """Reject inadmissible moduli, naming the violated condition."""
    if not mu > 0.0:
        raise AdmissibilityError(f"shear modulus must be positive: mu = {mu}")
    if not 3.0 * lam + 2.0 * mu > 0.0:
        raise AdmissibilityError(
            f"bulk condition violated: 3*lambda + 2*mu = {3.0 * lam + 2.0 * mu}"
        )


def isotropic_components(lam, mu) -> np.ndarray:
    """C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk), unchecked.

    Linear in (lam, mu), so it also takes modulus derivatives, which need not
    be admissible.
    """
    d = np.eye(3)
    return (
        lam * np.einsum("ij,kl->ijkl", d, d)
        + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )


def tensor_components(lam: float, mu: float) -> np.ndarray:
    """:func:`isotropic_components` of admissible moduli (checked): a (3, 3, 3, 3)
    float array with both minor and major symmetries exact."""
    check_admissible(lam, mu)
    return isotropic_components(lam, mu)


@dataclass(frozen=True)
class DisplacementJet:
    """Gradient of a displacement field at a point (complex allowed), with its
    strain and divergence computed once."""

    gradient: np.ndarray  # (3, 3), entry [k, l] = d u_k / d y_l
    strain: np.ndarray = field(init=False, repr=False)
    div: complex = field(init=False, repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.gradient, dtype=complex)
        if g.shape != (3, 3):
            raise ValueError(f"gradient must be 3x3, got {g.shape}")
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "strain", 0.5 * (g + g.T))
        object.__setattr__(self, "div", complex(g[0, 0] + g[1, 1] + g[2, 2]))


def energy_density(lam, mu, ju: DisplacementJet, jv: DisplacementJet) -> complex:
    """Sesquilinear energy density lam div(u) conj(div v) + 2 mu eps(u):conj(eps(v)),
    unchecked: linear in (lam, mu), so it also takes modulus derivatives."""
    return complex(lam * ju.div * jv.div.conjugate()
                   + 2.0 * mu * np.vdot(jv.strain, ju.strain))


class LameProfile:
    """Depth-dependent Lame moduli lambda(y3), mu(y3) with exact derivatives.

    The canonical representation is a pair of polynomials in y3 (ascending
    coefficients); closed-form profiles are supported in-process through
    callables f(y3, order) returning the order-th derivative.

    Parameters
    ----------
    lam, mu : callable
        f(y3, order) -> value; y3 may be an array of any shape, and the
        callable must act elementwise on it (a scalar value broadcasts).
    max_derivative_order : int
        m >= 0; derivatives up to this order must evaluate at y3 = 0.
    holder_exponent : float
        p in (0, 1), metadata used by probe validation.
    lam_coeffs, mu_coeffs : optional ascending coefficient lists when the
        profile is polynomial (the on-disk form).
    """

    def __init__(
        self,
        lam: Callable[[np.ndarray, int], np.ndarray],
        mu: Callable[[np.ndarray, int], np.ndarray],
        max_derivative_order: int = 2,
        holder_exponent: float = 0.9,
        lam_coeffs: Sequence[float] | None = None,
        mu_coeffs: Sequence[float] | None = None,
        name: str = "profile",
    ) -> None:
        if max_derivative_order < 0:
            raise ValueError("max_derivative_order must be >= 0")
        if not 0.0 < holder_exponent < 1.0:
            raise ValueError("holder_exponent must lie in (0, 1)")
        self._lam = lam
        self._mu = mu
        self.max_derivative_order = int(max_derivative_order)
        self.holder_exponent = float(holder_exponent)
        self.lam_coeffs = None if lam_coeffs is None else [float(c) for c in lam_coeffs]
        self.mu_coeffs = None if mu_coeffs is None else [float(c) for c in mu_coeffs]
        self.name = name
        # derivatives up to m must evaluate at the surface
        for order in range(self.max_derivative_order + 1):
            float(np.asarray(self._lam(np.asarray(0.0), order)))
            float(np.asarray(self._mu(np.asarray(0.0), order)))

    @staticmethod
    def from_polynomial(
        lam_coeffs: Sequence[float],
        mu_coeffs: Sequence[float],
        max_derivative_order: int = 2,
        holder_exponent: float = 0.9,
        name: str = "profile",
    ) -> "LameProfile":
        """Profile from ascending polynomial coefficients in y3 (Horner evaluation)."""
        return LameProfile(
            _horner(lam_coeffs),
            _horner(mu_coeffs),
            max_derivative_order,
            holder_exponent,
            lam_coeffs=list(lam_coeffs),
            mu_coeffs=list(mu_coeffs),
            name=name,
        )

    @staticmethod
    def constant(lam: float, mu: float, name: str = "homogeneous") -> "LameProfile":
        return LameProfile.from_polynomial([lam], [mu], name=name)

    @property
    def is_polynomial(self) -> bool:
        return self.lam_coeffs is not None and self.mu_coeffs is not None

    def lam(self, y3, order: int = 0):
        return self._lam(np.asarray(y3, dtype=float), order)

    def mu(self, y3, order: int = 0):
        return self._mu(np.asarray(y3, dtype=float), order)

    def taylor_coefficients(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """(lam_b, mu_b) with f(y3) ~ sum_b f_b y3^b up to the given order."""
        fact = 1.0
        lam_b, mu_b = [], []
        for b in range(order + 1):
            if b > 0:
                fact *= b
            lam_b.append(float(self.lam(0.0, b)) / fact)
            mu_b.append(float(self.mu(0.0, b)) / fact)
        return np.array(lam_b), np.array(mu_b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LameProfile({self.name}, m={self.max_derivative_order})"


def _horner(coeffs: Sequence[float]) -> Callable[[np.ndarray, int], np.ndarray]:
    """f(y3, order): d^order of the polynomial, Horner as in polyval (bit-identical)."""
    c0 = tuple(float(c) for c in coeffs)

    def f(y3, order=0):
        c = np.polynomial.polynomial.polyder(c0, order) if order else c0
        v = c[-1] + y3 * 0
        for ci in c[-2::-1]:
            v = ci + v * y3
        return v

    return f


@dataclass(frozen=True)
class TruncatedProfile:
    """Degree-(m-1) Taylor truncation of a profile at the surface."""

    base: LameProfile
    order: int
    result: LameProfile


def taylor_truncate(profile: LameProfile, m: int) -> TruncatedProfile:
    """Replace lambda, mu by their degree-(m-1) Taylor polynomials at y3 = 0.

    Exact for polynomial inputs of degree < m; idempotent at fixed m.
    """
    if m < 1:
        raise ValueError("truncation order m must be >= 1")
    if m - 1 > profile.max_derivative_order:
        raise ValueError(
            f"profile provides derivatives up to order {profile.max_derivative_order}, "
            f"truncation at m = {m} needs order {m - 1}"
        )
    lam_b, mu_b = profile.taylor_coefficients(m - 1)
    result = LameProfile.from_polynomial(
        lam_b,
        mu_b,
        max_derivative_order=profile.max_derivative_order,
        holder_exponent=profile.holder_exponent,
        name=f"{profile.name}|trunc{m}",
    )
    return TruncatedProfile(base=profile, order=m, result=result)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Minima of mu and 3*lambda + 2*mu on [0, H].

    Exact for polynomial profiles (``n_samples`` = 0); otherwise taken over
    ``n_samples`` equispaced samples.
    """

    H: float
    n_samples: int
    min_mu: float
    min_bulk: float  # min of 3*lambda + 2*mu
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", self.min_mu > 0.0 and self.min_bulk > 0.0)


def _polynomial_min(p: np.polynomial.Polynomial, H: float) -> float:
    """Exact minimum of p on [0, H]: endpoints and critical points.

    Critical points are the roots of p' without its negligible leading terms
    (below rounding of p' on [0, H]), whose companion matrix would overflow;
    every root is evaluated, on the full p, at its real part clipped into
    [0, H]. The extra points lie in the interval, so they cannot hide the minimum.
    """
    d = p.deriv().coef
    size = np.abs(d) * H ** np.arange(d.size)
    keep = np.flatnonzero(size > np.finfo(float).eps * size.max())  # empty if p' = 0
    roots = np.polynomial.Polynomial(d[:keep[-1] + 1]).roots().real if keep.size else []
    y = np.concatenate([[0.0, H], np.clip(roots, 0.0, H)])
    return float(p(y).min())


def validate_admissibility(
    profile: LameProfile, H: float, n_samples: int = 1024
) -> AdmissibilityReport:
    """Check mu > 0 and 3*lambda + 2*mu > 0 on [0, H].

    Decided exactly for polynomial profiles (``n_samples`` is then unused);
    other profiles are sampled densely.
    """
    if H <= 0.0:
        raise ValueError("H must be positive")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if profile.is_polynomial:
        lam = np.polynomial.Polynomial(profile.lam_coeffs)
        mu = np.polynomial.Polynomial(profile.mu_coeffs)
        return AdmissibilityReport(
            H=float(H),
            n_samples=0,
            min_mu=_polynomial_min(mu, H),
            min_bulk=_polynomial_min(3.0 * lam + 2.0 * mu, H),
        )
    y = np.linspace(0.0, H, n_samples)
    lam = np.asarray(profile.lam(y), dtype=float)
    mu = np.asarray(profile.mu(y), dtype=float)
    return AdmissibilityReport(
        H=float(H),
        n_samples=int(n_samples),
        min_mu=float(mu.min()),
        min_bulk=float((3.0 * lam + 2.0 * mu).min()),
    )
