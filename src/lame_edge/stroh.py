"""Six-dimensional first-order formalism at a boundary point.

State vector convention: W = [u; w] with w = <e3,e3> D3 u + <e3,omega> u,
D3 = -i d/dz3, so that w = -i * (traction density taken in the +e3 direction).
With this convention the first-order matrix

    K = [[ -T^{-1} A,            T^{-1}      ],
         [ -Q + A^T T^{-1} A,   -A^T T^{-1} ]],

T = <e3,e3>, A = <e3,omega>, Q = <omega,omega>, has eigenvalues +-i, each with
algebraic multiplicity 3 and geometric multiplicity 2, for every admissible
isotropic medium. (The sign of the top-right block is forced by this spectrum;
see the eigen tests.)

Every function returns plain values: :func:`stroh_matrix` the 6x6 K itself,
:func:`eigen_jordan` the +i chain (q1, q2, q3) with its residual norms (the -i
chain is its conjugate).

The paper's printed closed forms sit here too: the order-0 impedance Z with its
two iota variants, and the order-m limit table with its two VARIANTS.
"""

from __future__ import annotations

import numpy as np

from .elastic import NumericalDiagnostic, check_admissible

__all__ = [
    "ChainError",
    "characteristic_det",
    "characteristic_det_factored",
    "closed_form_response",
    "eigen_jordan",
    "first_order_matrix",
    "impedance",
    "impedance_basis",
    "quadratic_form",
    "reference_chain",
    "sigma_basis",
]

_E3 = np.array([0.0, 0.0, 1.0])


class ChainError(NumericalDiagnostic):
    """Jordan-chain construction failed a rank test; carries the computed ranks."""


def _as_tangent(omega) -> np.ndarray:
    """Accept a 2- or 3-vector; return a unit tangent (w1, w2, 0)."""
    w = np.asarray(omega, dtype=float).ravel()
    if w.size == 2:
        w = np.array([w[0], w[1], 0.0])
    if w.shape != (3,):
        raise ValueError("omega must be a 2- or 3-vector")
    if abs(w[2]) > 1e-14:
        raise ValueError(f"omega must be tangential (omega_3 = 0), got {w}")
    n = np.linalg.norm(w)
    if not abs(n - 1.0) <= 1e-12:  # np.isclose(n, 1, rtol=0, atol=1e-12), 100x faster
        raise ValueError(f"omega must be a unit vector, |omega| = {n}")
    return w


def acoustic_bracket(lam, mu, xi, zeta) -> np.ndarray:
    """3x3 matrix <xi,zeta>_ik = sum_jl C_ijkl xi_j zeta_l (closed form).

    ``lam`` and ``mu`` may be arrays; the bracket then carries their shape as
    leading axes, shape (..., 3, 3).
    """
    lam = np.asarray(lam, dtype=float)[..., None, None]
    mu = np.asarray(mu, dtype=float)[..., None, None]
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    return (
        lam * np.outer(xi, zeta)
        + mu * np.dot(xi, zeta) * np.eye(3)
        + mu * np.outer(zeta, xi)
    )


def _taq(lam, mu, omega: np.ndarray):
    """T = <e3,e3>, A = <e3,omega>, Q = <omega,omega> for a unit tangent omega,
    broadcast over modulus arrays as :func:`acoustic_bracket` is."""
    return (acoustic_bracket(lam, mu, _E3, _E3), acoustic_bracket(lam, mu, _E3, omega),
            acoustic_bracket(lam, mu, omega, omega))


def first_order_matrix(T: np.ndarray, A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The 6x6 K of the module docstring from its blocks; T must be diagonal.

    Broadcasts over leading axes: blocks of shape (..., 3, 3) give (..., 6, 6).
    """
    i = np.arange(3)
    Ti = np.zeros_like(T)
    Ti[..., i, i] = 1.0 / T[..., i, i]
    At = np.swapaxes(A, -1, -2)
    K = np.zeros(T.shape[:-2] + (6, 6), dtype=complex)
    K[..., :3, :3] = -Ti @ A
    K[..., :3, 3:] = Ti
    K[..., 3:, :3] = -Q + At @ Ti @ A
    K[..., 3:, 3:] = -At @ Ti
    return K


def stroh_matrix(lam: float, mu: float, omega) -> np.ndarray:
    """The 6x6 K of an admissible medium and unit tangent omega."""
    check_admissible(lam, mu)
    return first_order_matrix(*_taq(lam, mu, _as_tangent(omega)))


def characteristic_det(lam: float, mu: float, omega, sigma: complex) -> complex:
    """det[T s^2 + (A + A^T) s + Q] for the quadratic pencil at s = sigma.

    Oracle of criterion 1: assembled from the brackets, it must equal
    :func:`characteristic_det_factored`, whose roots +-i give K its spectrum."""
    check_admissible(lam, mu)
    w = _as_tangent(omega)
    T, A, Q = _taq(lam, mu, w)
    P = T * sigma**2 + (A + A.T) * sigma + Q
    return complex(np.linalg.det(P))


def characteristic_det_factored(lam: float, mu: float, sigma: complex) -> complex:
    """mu^2 (lam + 2 mu) (1 + sigma^2)^3, the closed factorization of the pencil
    (criterion 1 checks :func:`characteristic_det` against it)."""
    return mu**2 * (lam + 2.0 * mu) * (1.0 + sigma**2) ** 3


def sigma_basis(lam: float, mu: float, omega) -> np.ndarray:
    """Columns sigma_1, sigma_2, sigma_3 spanning the boundary values of the
    decaying solution family:

        sigma_1 = (w2, -w1, 0), sigma_2 = (w1, w2, i),
        sigma_3 = (0, 0, -(lam + 3 mu)/(lam + mu)).
    """
    check_admissible(lam, mu)
    w = _as_tangent(omega)
    s = (lam + 3.0 * mu) / (lam + mu)
    return np.array(
        [[w[1], w[0], 0.0], [-w[0], w[1], 0.0], [0.0, 1.0j, -s]], dtype=complex
    )


def reference_chain(lam: float, mu: float, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Explicit chain (q1, q2, q3) of the +i generalized eigenspace.

    q1, q2 are genuine eigenvectors, q3 the generalized vector with
    K q3 - i q3 = q2. Tops are sigma_1, sigma_2, sigma_3; bottoms are
    -i * (traction density) of the corresponding decaying solutions:

        q1 = (sigma_1;  i mu sigma_1)
        q2 = (sigma_2;  2 i mu sigma_2)
        q3 = (sigma_3;  -2 mu^2/(lam+mu) w', -i 2 mu (lam+2mu)/(lam+mu))
    """
    check_admissible(lam, mu)
    w = _as_tangent(omega)
    S = sigma_basis(lam, mu, omega)
    s1, s2, s3 = S[:, 0], S[:, 1], S[:, 2]
    q1 = np.concatenate([s1, 1.0j * mu * s1])
    q2 = np.concatenate([s2, 2.0j * mu * s2])
    c = mu / (lam + mu)
    bottom3 = np.array(
        [-2.0 * mu * c * w[0], -2.0 * mu * c * w[1], -2.0j * mu * (lam + 2.0 * mu) / (lam + mu)],
        dtype=complex,
    )
    q3 = np.concatenate([s3, bottom3])
    return q1, q2, q3


def eigen_jordan(lam: float, mu: float, omega, rank_tol: float = 1e-8
                 ) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[str, float]]:
    """Null-space construction of the +i chain of K = :func:`stroh_matrix`:
    ((q1, q2, q3), residuals), with K q_{1,2} = i q_{1,2} and K q3 - i q3 = q2,
    and the norms of those three residuals. The -i chain is the entrywise
    conjugate.

    The spectrum is known exactly (+-i), so eigenvectors are extracted as the
    null space of (K - iI) and the generalized vector from null((K - iI)^2),
    avoiding general-purpose defective eigensolvers. Gauge: eigenvectors are
    rotated onto the reference tops sigma_1, sigma_2 when possible and the
    generalized vector has its eigenvector components projected out, then is
    scaled to unit displacement norm against sigma_3.
    """
    Km = stroh_matrix(lam, mu, omega)
    scale = np.linalg.norm(Km)
    B = Km - 1.0j * np.eye(6)
    u, s, vh = np.linalg.svd(B)
    rank1 = int(np.sum(s > rank_tol * scale))
    null1 = vh[rank1:].conj().T  # columns span null(K - iI)
    u2, s2, vh2 = np.linalg.svd(B @ B)
    rank2 = int(np.sum(s2 > rank_tol * scale**2))
    null2 = vh2[rank2:].conj().T
    if null1.shape[1] != 2 or null2.shape[1] != 3:
        raise ChainError(
            f"unexpected generalized eigenspace dimensions: dim null(K - iI) = "
            f"{null1.shape[1]}, dim null((K - iI)^2) = {null2.shape[1]} "
            f"(singular values {s} / {s2})"
        )

    # gauge-fix eigenvectors against the reference tops
    ref1, ref2, ref3 = reference_chain(lam, mu, omega)
    coef = np.linalg.lstsq(null1, np.column_stack([ref1, ref2]), rcond=None)[0]
    q1 = null1 @ coef[:, 0]
    q2 = null1 @ coef[:, 1]
    # generalized vector: the component of null2 outside null1, normalized so
    # the chain lands exactly on q2
    P = null1 @ null1.conj().T
    cand = null2 - P @ null2
    idx = int(np.argmax(np.linalg.norm(cand, axis=0)))
    g = cand[:, idx]
    chain_image = B @ g
    alpha = np.vdot(q2, chain_image) / np.vdot(q2, q2)
    if abs(alpha) < rank_tol:
        raise ChainError("generalized vector maps to zero along q2; chain not resolved")
    q3 = g / alpha
    # fix the remaining gauge (adding eigenvectors to q3) against the reference
    coef3 = np.linalg.lstsq(null1, ref3 - q3, rcond=None)[0]
    q3 = q3 + null1 @ coef3

    res = {
        "q1": float(np.linalg.norm(Km @ q1 - 1.0j * q1)),
        "q2": float(np.linalg.norm(Km @ q2 - 1.0j * q2)),
        "chain": float(np.linalg.norm(Km @ q3 - 1.0j * q3 - q2)),
    }
    return (q1, q2, q3), res


def impedance_basis(omega, variant: str = "iota_squared") -> tuple[np.ndarray, np.ndarray]:
    """(Z_lam, Z_mu) with Z = mu/(lam+3mu) (lam Z_lam + mu Z_mu) and iota = (w2, -w1, 0).

    Z_lam = 2I - iota iota^T, Z_mu = 4I - iota iota^T + 2i [iota]_x (cross-product
    matrix). iota_squared is the variant the forward oracle validates;
    iota_linear puts iota_i for iota_i^2 on the diagonal."""
    if variant not in ("iota_squared", "iota_linear"):
        raise ValueError(f"unknown impedance variant: {variant!r}")
    w = _as_tangent(omega)
    iota = np.array([w[1], -w[0], 0.0])
    outer = np.outer(iota, iota)
    np.fill_diagonal(outer, iota**2 if variant == "iota_squared" else iota)
    return 2.0 * np.eye(3) - outer, 4.0 * np.eye(3) - outer + 2.0j * np.cross(np.eye(3), iota)


def impedance(lam: float, mu: float, omega, variant: str = "iota_squared") -> np.ndarray:
    """Surface impedance tensor Z (3x3, Hermitian); see :func:`impedance_basis`."""
    check_admissible(lam, mu)
    Z_lam, Z_mu = impedance_basis(omega, variant)
    return mu / (lam + 3.0 * mu) * (lam * Z_lam + mu * Z_mu)


VARIANTS = ("plus_one", "plus_a3_squared")  # the closed-form order-m tables


def closed_form_response(a, omega, m: int, dlam: float, dmu: float, variant: str) -> complex:
    """Printed order-m limit formula, evaluated literally (squares, not |.|^2).

    variant selects the trailing bracket term: 1 (``plus_one``) or a3^2
    (``plus_a3_squared``). ``a`` must be a 3-vector and ``omega`` a unit
    tangent, as for :func:`impedance`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    a = np.asarray(a, dtype=complex).ravel()
    if a.shape != (3,):
        raise ValueError("amplitude a must be a 3-vector")
    w = _as_tangent(omega)
    lam_factor = (1j * (a[0] * w[0] + a[1] * w[1]) - a[2]) ** 2
    shear = sum(
        ((a[i] * w[j] + a[j] * w[i]) / 2.0) ** 2 for i in range(2) for j in range(2)
    )
    mixed = 2.0 * sum(((1j * a[2] * w[i] - a[i]) / 2.0) ** 2 for i in range(2))
    tail = 1.0 if variant == "plus_one" else a[2] ** 2
    return complex(
        dlam * lam_factor / 2.0 ** (m + 1) + dmu * (shear + mixed + tail) / 2.0**m
    )


def quadratic_form(Z: np.ndarray, a) -> float:
    """Real Hermitian form a^H Z a = sum_ij conj(a_i) Z_ij a_j, the pairing's limit.

    Oracle: the order-0 limit that the tests and the benchmark's reference
    check pairings, ladders and the order-0 solve against."""
    a = np.asarray(a, dtype=complex).ravel()
    val = complex(np.vdot(a, np.asarray(Z) @ a))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ValueError(f"quadratic form not real: {val}")
    return val.real
