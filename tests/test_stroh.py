import numpy as np
import pytest

from lame_edge.stroh import (
    _taq,
    acoustic_bracket,
    characteristic_det,
    characteristic_det_factored,
    eigen_jordan,
    first_order_matrix,
    impedance,
    quadratic_form,
    reference_chain,
    sigma_basis,
    stroh_matrix,
)

E1 = (1.0, 0.0, 0.0)
E3 = np.array([0.0, 0.0, 1.0])


def random_admissible(rng):
    mu = rng.uniform(0.2, 3.0)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.05, 3.0)
    th = rng.uniform(0.0, 2.0 * np.pi)
    return lam, mu, np.array([np.cos(th), np.sin(th), 0.0])


class TestAcousticBlocks:
    def test_normal_normal(self):
        assert np.allclose(acoustic_bracket(1.5, 0.7, E3, E3), np.diag([0.7, 0.7, 1.5 + 1.4]))

    def test_normal_tangent(self):
        bracket = acoustic_bracket(1.0, 1.0, E3, np.array([1.0, 0.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 2] = 1.0  # mu
        expected[2, 0] = 1.0  # lambda
        assert np.allclose(bracket, expected)

    def test_tangent_tangent(self):
        e1 = np.array([1.0, 0, 0])
        assert np.allclose(acoustic_bracket(2.0, 0.5, e1, e1), np.diag([3.0, 0.5, 0.5]))

    def test_transpose_relation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam, mu, _ = random_admissible(rng)
            xi, zeta = rng.standard_normal(3), rng.standard_normal(3)
            assert np.allclose(
                acoustic_bracket(lam, mu, xi, zeta).T,
                acoustic_bracket(lam, mu, zeta, xi),
            )

    def test_self_bracket_spd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam, mu, _ = random_admissible(rng)
            xi = rng.standard_normal(3)
            xi /= np.linalg.norm(xi)
            ev = np.linalg.eigvalsh(acoustic_bracket(lam, mu, xi, xi))
            assert ev.min() > 0.0

    def test_bracket_matches_full_contraction(self):
        from lame_edge.elastic import tensor_components

        rng = np.random.default_rng(5)
        for _ in range(20):
            lam, mu, _ = random_admissible(rng)
            xi, zeta = rng.standard_normal(3), rng.standard_normal(3)
            direct = np.einsum("ijkl,j,l->ik", tensor_components(lam, mu), xi, zeta)
            assert np.allclose(acoustic_bracket(lam, mu, xi, zeta), direct, atol=1e-13)


class TestStrohMatrix:
    def test_block_structure(self):
        K = stroh_matrix(1.0, 1.0, E1).matrix
        T = acoustic_bracket(1.0, 1.0, E3, E3)
        A = acoustic_bracket(1.0, 1.0, E3, np.array(E1))
        Q = acoustic_bracket(1.0, 1.0, np.array(E1), np.array(E1))
        Ti = np.linalg.inv(T)
        assert np.allclose(K[:3, :3], -Ti @ A)
        # traction-normalized state: the decaying-spectrum requirement fixes
        # the top-right block to +T^{-1} (eigenvalues below)
        assert np.allclose(K[:3, 3:], np.diag([1.0, 1.0, 1.0 / 3.0]))
        assert np.allclose(K[3:, :3], -Q + A.T @ Ti @ A)
        assert np.allclose(K[3:, 3:], -A.T @ Ti)

    def test_spectrum_is_pm_i(self):
        # defective eigenvalues from a general solver split by O(sqrt(eps));
        # the exact spectrum is certified by the factorization/chain tests
        rng = np.random.default_rng(6)
        for _ in range(30):
            lam, mu, om = random_admissible(rng)
            K = stroh_matrix(lam, mu, om).matrix
            ev = np.sort_complex(np.linalg.eigvals(K))
            assert np.allclose(ev.real, 0.0, atol=1e-6)
            assert np.allclose(np.sort(ev.imag), [-1, -1, -1, 1, 1, 1], atol=1e-6)

    def test_degenerate_geometric_multiplicity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lam, mu, om = random_admissible(rng)
            K = stroh_matrix(lam, mu, om).matrix
            s = np.linalg.svd(K - 1j * np.eye(6), compute_uv=False)
            assert np.sum(s < 1e-8 * s[0]) == 2

    def test_axis_swap_equivariance(self):
        K1 = stroh_matrix(1.0, 1.0, E1).matrix
        K2 = stroh_matrix(1.0, 1.0, (0.0, 1.0, 0.0)).matrix
        S = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        P = np.block([[S, np.zeros((3, 3))], [np.zeros((3, 3)), S]])
        assert np.allclose(K2, P @ K1 @ P, atol=1e-13)

    def test_blocks_broadcast_over_moduli(self):
        rng = np.random.default_rng(11)
        _, _, om = random_admissible(rng)
        media = [random_admissible(rng)[:2] for _ in range(6)]
        lam, mu = (np.reshape(v, (2, 3)) for v in zip(*media))
        K = first_order_matrix(*_taq(lam, mu, om))
        assert K.shape == (2, 3, 6, 6)
        for Ki, (l, m) in zip(K.reshape(6, 6, 6), media):
            assert np.allclose(Ki, stroh_matrix(l, m, om).matrix, rtol=1e-15, atol=1e-15)

    def test_requires_unit_tangent(self):
        with pytest.raises(ValueError):
            stroh_matrix(1.0, 1.0, (1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            stroh_matrix(1.0, 1.0, (0.0, 0.0, 1.0))


class TestCharacteristicDet:
    def test_at_zero(self):
        val = characteristic_det(1.0, 1.0, E1, 0.0)
        assert val == pytest.approx(3.0)
        assert characteristic_det_factored(1.0, 1.0, 0.0) == pytest.approx(3.0)

    def test_roots(self):
        for sigma in (1j, -1j):
            assert abs(characteristic_det(1.0, 1.0, E1, sigma)) < 1e-12

    def test_specific_value(self):
        # mu^2 (lam + 2 mu) (1 + (2i)^2)^3 = 0.25 * 3 * (-27) = -20.25
        rng = np.random.default_rng(8)
        th = rng.uniform(0, 2 * np.pi)
        om = (np.cos(th), np.sin(th), 0.0)
        val = characteristic_det(2.0, 0.5, om, 2.0j)
        assert val == pytest.approx(-20.25, rel=1e-12)

    def test_factorization_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            lam, mu, om = random_admissible(rng)
            sigma = rng.standard_normal() + 1j * rng.standard_normal()
            lhs = characteristic_det(lam, mu, om, sigma)
            rhs = characteristic_det_factored(lam, mu, sigma)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(sigma) ** 6)


class TestJordanChain:
    def test_reference_chain_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam, mu, om = random_admissible(rng)
            K = stroh_matrix(lam, mu, om).matrix
            q1, q2, q3 = reference_chain(lam, mu, om)
            scale = np.linalg.norm(K)
            assert np.linalg.norm(K @ q1 - 1j * q1) <= 1e-10 * scale
            assert np.linalg.norm(K @ q2 - 1j * q2) <= 1e-10 * scale
            assert np.linalg.norm(K @ q3 - 1j * q3 - q2) <= 1e-10 * scale

    def test_eigen_jordan_residuals_and_conjugacy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lam, mu, om = random_admissible(rng)
            K = stroh_matrix(lam, mu, om)
            spec = eigen_jordan(K)
            scale = np.linalg.norm(K.matrix)
            assert max(spec.residuals.values()) <= 1e-10 * scale
            for plus, minus in zip(spec.plus_family, spec.minus_family):
                assert np.allclose(minus, np.conj(plus))
            # minus family solves the conjugate eigenproblem
            m1 = spec.minus_family[0]
            assert np.linalg.norm(K.matrix @ m1 + 1j * m1) <= 1e-9 * scale

    def test_gauge_matches_reference_tops(self):
        spec = eigen_jordan(stroh_matrix(1.0, 1.0, E1))
        q1, q2, q3 = reference_chain(1.0, 1.0, E1)
        assert np.allclose(spec.plus_family[0], q1, atol=1e-9)
        assert np.allclose(spec.plus_family[1], q2, atol=1e-9)
        assert np.allclose(spec.plus_family[2], q3, atol=1e-9)

    def test_chain_map(self):
        spec = eigen_jordan(stroh_matrix(2.0, 1.0, E1))
        assert spec.chain_map["q3"] == "q2"

    def test_inconclusive_rank_raises_with_dimensions(self):
        from lame_edge.stroh import ChainError

        with pytest.raises(ChainError, match="eigenspace dimensions"):
            eigen_jordan(stroh_matrix(2.0, 1.0, E1), rank_tol=10.0)


class TestImpedance:
    def test_entries_reference_direction(self):
        Z = impedance(1.0, 1.0, E1).matrix
        assert Z[0, 0] == pytest.approx(1.5)
        assert Z[2, 2] == pytest.approx(1.5)
        assert Z[0, 2] == pytest.approx(-0.5j)
        assert Z[1, 1] == pytest.approx(1.0)
        Zl = impedance(1.0, 1.0, E1, variant="iota_linear").matrix
        assert Zl[1, 1] == pytest.approx(2.0)
        assert Zl[0, 0] == pytest.approx(1.5)  # iota_1 = 0: variant-independent

    def test_hermitian_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lam, mu, om = random_admissible(rng)
            Z = impedance(lam, mu, om).matrix
            assert np.allclose(Z, Z.conj().T)
            assert np.linalg.eigvalsh(Z).min() > 0.0

    def test_direction_reversal_conjugates(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            lam, mu, om = random_admissible(rng)
            Z = impedance(lam, mu, om).matrix
            Zr = impedance(lam, mu, -om).matrix
            assert np.allclose(Zr, np.conj(Z), atol=1e-13)

    def test_quadratic_form_values(self):
        Z = impedance(1.0, 1.0, E1)
        assert quadratic_form(Z, (0.0, 0.0, 1.0)) == pytest.approx(1.5)
        assert quadratic_form(Z, (0.0, 0.0, 0.0)) == pytest.approx(0.0)
        assert quadratic_form(Z, (1.0, 0.0, 1.0j)) == pytest.approx(4.0)

    def test_quadratic_form_real_over_complex_args(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            lam, mu, om = random_admissible(rng)
            Z = impedance(lam, mu, om)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val = quadratic_form(Z, a)  # raises if imaginary part too large
            assert isinstance(val, float)


class TestSigmaBasis:
    def test_columns(self):
        S = sigma_basis(1.0, 1.0, E1)
        assert np.allclose(S[:, 0], [0.0, -1.0, 0.0])
        assert np.allclose(S[:, 1], [1.0, 0.0, 1.0j])
        assert np.allclose(S[:, 2], [0.0, 0.0, -2.0])
