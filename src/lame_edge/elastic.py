"""Isotropic elastic tensor algebra, admissibility checks and depth profiles.

All moduli are treated as dimensionless. Profiles depend on depth y3 >= 0 only;
tangentially varying coefficients are out of scope for the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "AdmissibilityError",
    "AdmissibilityReport",
    "LameProfile",
    "NumericalDiagnostic",
    "check_admissible",
    "energy_density",
    "isotropic_components",
    "taylor_truncate",
    "tensor_components",
    "validate_admissibility",
]


class AdmissibilityError(ValueError):
    """Raised when (lambda, mu) violate mu > 0 or 3*lambda + 2*mu > 0."""


class NumericalDiagnostic(RuntimeError):
    """A computation failed its own accuracy test; the CLI prints it on one line, exit 4."""


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


def energy_density(lam, mu, gu, gv) -> complex:
    """Sesquilinear energy density lam div(u) conj(div v) + 2 mu eps(u):conj(eps(v))
    of the displacement gradients ``gu``, ``gv`` at a point (3x3, entry [k, l] =
    d u_k / d y_l, complex allowed), with eps = (g + g^T)/2 and div the trace;
    unchecked: linear in (lam, mu), so it also takes modulus derivatives."""
    gu, gv = np.asarray(gu, dtype=complex), np.asarray(gv, dtype=complex)
    if gu.shape != (3, 3) or gv.shape != (3, 3):
        raise ValueError(f"gradients must be 3x3, got {gu.shape} and {gv.shape}")
    div_u, div_v = (complex(g[0, 0] + g[1, 1] + g[2, 2]) for g in (gu, gv))
    return complex(lam * div_u * div_v.conjugate()
                   + 2.0 * mu * np.vdot(0.5 * (gv + gv.T), 0.5 * (gu + gu.T)))


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
        # the memo key: the coefficients without trailing zeros (None for callables)
        self.content = None if not self.is_polynomial else tuple(
            tuple(np.trim_zeros(np.array(c), "b")) for c in (self.lam_coeffs, self.mu_coeffs))
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
    ) -> "LameProfile":
        """Profile from ascending polynomial coefficients in y3 (Horner evaluation)."""
        return LameProfile(
            _horner(lam_coeffs),
            _horner(mu_coeffs),
            max_derivative_order,
            holder_exponent,
            lam_coeffs=list(lam_coeffs),
            mu_coeffs=list(mu_coeffs),
        )

    @staticmethod
    def constant(lam: float, mu: float) -> "LameProfile":
        """The homogeneous medium: its symbol is |k| Z(lam, mu) exactly, the
        case on which the tests check the half-space oracles."""
        return LameProfile.from_polynomial([lam], [mu])

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


# numpy.polynomial's power-series steps in plain numpy, bit-identical, so that
# profiles and their admissibility do not load that package


def _polyval(c, y):
    """c[0] + c[1] y + ... at y by Horner's rule, bit for bit numpy's polyval at
    finite y: from degree 1 on it starts at c[-2] + c[-1] y, one step after
    numpy's c[-1] + y * 0, a zero that changes c[-1] only if it is -0.0 (and the
    value only if c[-2] is -0.0 too)."""
    if len(c) == 1:
        return c[0] + y * 0
    v = c[-2] + c[-1] * y
    for ci in c[-3::-1]:
        v = ci + v * y
    return v


def _polyder(c, order: int = 1) -> np.ndarray:
    """Coefficients of the order-th derivative, as numpy's polyder (j c[j])."""
    c = np.array(c, dtype=float, ndmin=1)
    if order >= c.size:
        return c[:1] * 0
    for _ in range(order):
        c = np.arange(1, c.size) * c[1:]
    return c


def _trimseq(c: np.ndarray) -> np.ndarray:
    """c without trailing zeros, at least its first coefficient (numpy's trimseq)."""
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if nonzero.size else c[:1]


def _polyadd(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Sum of two trimmed coefficient arrays, trimmed (numpy's polyadd)."""
    longer, shorter = (c1.copy(), c2) if c1.size > c2.size else (c2.copy(), c1)
    longer[:shorter.size] += shorter
    return _trimseq(longer)


def _polyroots(c: np.ndarray) -> np.ndarray:
    """Roots of c, whose last coefficient is nonzero, in any order: numpy's
    polyroots, the eigenvalues of its companion matrix."""
    if c.size < 2:
        return np.empty(0)
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    n = c.size - 1
    companion = np.zeros((n, n))
    companion.reshape(-1)[n::n + 1] = 1.0
    companion[:, -1] -= c[:-1] / c[-1]
    return np.linalg.eigvals(companion)


def _horner(coeffs: Sequence[float]) -> Callable[[np.ndarray, int], np.ndarray]:
    """f(y3, order): d^order of the polynomial by Horner's rule; each order's
    coefficients are derived once."""
    derivatives = {0: tuple(float(c) for c in coeffs)}

    def f(y3, order=0):
        if order not in derivatives:
            derivatives[order] = _polyder(derivatives[0], order)
        return _polyval(derivatives[order], y3)

    return f


def taylor_truncate(profile: LameProfile, m: int) -> LameProfile:
    """Replace lambda, mu by their degree-(m-1) Taylor polynomials at y3 = 0.

    Exact for polynomial inputs of degree < m; idempotent at fixed m. Each
    call returns a new profile.
    """
    if m < 1:
        raise ValueError("truncation order m must be >= 1")
    if m - 1 > profile.max_derivative_order:
        raise ValueError(
            f"profile provides derivatives up to order {profile.max_derivative_order}, "
            f"truncation at m = {m} needs order {m - 1}"
        )
    lam_b, mu_b = profile.taylor_coefficients(m - 1)
    return LameProfile.from_polynomial(
        lam_b,
        mu_b,
        max_derivative_order=profile.max_derivative_order,
        holder_exponent=profile.holder_exponent,
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Minima of mu and 3*lambda + 2*mu on [0, H]: exact for polynomial
    profiles, otherwise over equispaced samples (see :func:`validate_admissibility`)."""

    H: float
    min_mu: float
    min_bulk: float  # min of 3*lambda + 2*mu

    @property
    def passed(self) -> bool:
        return self.min_mu > 0.0 and self.min_bulk > 0.0

    def message(self, name: str = "profile") -> str:
        """The one-line refusal of ``name`` when the report has not passed."""
        return (f"{name} inadmissible on [0, {self.H:g}]: min mu = {self.min_mu:.4g}, "
                f"min 3*lambda + 2*mu = {self.min_bulk:.4g}")


def _polynomial_min(c: np.ndarray, H: float) -> float:
    """Exact minimum on [0, H] of the polynomial with ascending coefficients c:
    endpoints and critical points.

    Critical points are the roots of p' without its negligible leading terms
    (below rounding of p' on [0, H]), whose companion matrix would overflow;
    every root is evaluated, on the full p, at its real part clipped into
    [0, H]. The extra points lie in the interval, so they cannot hide the minimum.
    """
    d = _polyder(c)
    size = np.abs(d) * H ** np.arange(d.size)
    keep = np.flatnonzero(size > np.finfo(float).eps * size.max())  # empty if p' = 0
    roots = _polyroots(d[:keep[-1] + 1]).real if keep.size else []
    y = np.concatenate([[0.0, H], np.clip(roots, 0.0, H)])
    return float(_polyval(c, y).min())


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
        lam, mu = (np.array(c, dtype=float) for c in (profile.lam_coeffs, profile.mu_coeffs))
        return AdmissibilityReport(
            H=float(H),
            min_mu=_polynomial_min(mu, H),
            min_bulk=_polynomial_min(
                _polyadd(_trimseq(3.0 * _trimseq(lam)), _trimseq(2.0 * _trimseq(mu))), H),
        )
    y = np.linspace(0.0, H, n_samples)
    lam = np.asarray(profile.lam(y), dtype=float)
    mu = np.asarray(profile.mu(y), dtype=float)
    return AdmissibilityReport(
        H=float(H),
        min_mu=float(mu.min()),
        min_bulk=float((3.0 * lam + 2.0 * mu).min()),
    )
