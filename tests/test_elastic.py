import numpy as np
import pytest

from lame_edge.elastic import (
    AdmissibilityError,
    DisplacementJet,
    LameProfile,
    energy_density,
    taylor_truncate,
    tensor_components,
    validate_admissibility,
)


def random_admissible(rng):
    mu = rng.uniform(0.2, 3.0)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.05, 3.0)
    return lam, mu


class TestTensorComponents:
    def test_reference_entries(self):
        C = tensor_components(2.0, 1.0)
        assert C[0, 0, 0, 0] == 4.0
        assert C[0, 0, 1, 1] == 2.0
        assert C[0, 1, 0, 1] == 1.0

    def test_pure_shear(self):
        C = tensor_components(0.0, 1.0)
        d = np.eye(3)
        expected = np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d)
        assert np.array_equal(C, expected)
        assert C[0, 0, 1, 1] == 0.0

    def test_rejects_inadmissible(self):
        with pytest.raises(AdmissibilityError, match="3\\*lambda"):
            tensor_components(-1.0, 1.0)
        with pytest.raises(AdmissibilityError, match="shear"):
            tensor_components(1.0, 0.0)

    def test_symmetries_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            lam, mu = random_admissible(rng)
            C = tensor_components(lam, mu)
            assert np.array_equal(C, C.transpose(2, 3, 0, 1))  # major
            assert np.array_equal(C, C.transpose(1, 0, 2, 3))  # minor


# symmetric strains, orthonormal in the Frobenius product (Voigt order 11, 22, 33, 23, 13, 12)
I3 = np.eye(3)
STRAIN_BASIS = [np.diag(e) for e in I3] + [
    (np.outer(I3[i], I3[j]) + np.outer(I3[j], I3[i])) / np.sqrt(2.0)
    for i, j in ((1, 2), (0, 2), (0, 1))]


class TestEnergyDensity:
    def test_voigt_convexity_constant(self):
        # the energy's Gram matrix on symmetric strains has smallest eigenvalue
        # min(2 mu, 3 lam + 2 mu): the sharp strong-convexity constant
        jets = [DisplacementJet(E) for E in STRAIN_BASIS]
        rng = np.random.default_rng(12)
        for _ in range(200):
            lam, mu = random_admissible(rng)
            G = np.array([[energy_density(lam, mu, ju, jv).real for ju in jets] for jv in jets])
            ev = np.linalg.eigvalsh(G)
            assert ev.min() > 0.0
            assert np.isclose(ev.min(), min(2.0 * mu, 3.0 * lam + 2.0 * mu), rtol=1e-12)

    def test_identity_gradient(self):
        j = DisplacementJet(np.eye(3))
        assert energy_density(2.0, 1.0, j, j) == pytest.approx(24.0)

    def test_rigid_rotation_has_no_energy(self):
        A = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
        j = DisplacementJet(A)
        assert energy_density(1.0, 1.0, j, j) == pytest.approx(0.0, abs=1e-14)

    def test_real_nonnegative_on_complex_jets(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            j = DisplacementJet(g)
            e = energy_density(1.3, 0.8, j, j)
            assert abs(e.imag) <= 1e-13 * max(1.0, abs(e.real))
            assert e.real >= -1e-13


class TestProfiles:
    def test_truncation_constant(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.0])
        res = taylor_truncate(prof, 1).result
        y = np.linspace(0.0, 1.0, 7)
        assert np.allclose(res.lam(y), 1.0)

    def test_truncation_exact_for_low_degree(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [1.0, 0.2])
        res = taylor_truncate(prof, 2).result
        y = np.linspace(0.0, 1.0, 11)
        assert np.allclose(res.lam(y), 1.0 + 0.3 * y, atol=1e-15)
        assert np.allclose(res.mu(y), prof.mu(y), atol=1e-15)

    def test_truncation_remainder_bound_exp(self):
        prof = LameProfile(
            lambda y, o=0: np.exp(y),
            lambda y, o=0: np.ones_like(np.asarray(y, dtype=float)) + 0 * y,
            max_derivative_order=3,
        )
        res = taylor_truncate(prof, 2).result
        y = np.linspace(0.0, 0.1, 101)
        err = np.abs(np.exp(y) - res.lam(y)).max()
        assert err <= 0.1**2 * np.e / 2.0

    def test_truncation_idempotent(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1, 0.05], [1.0, 0.2, -0.1])
        first = taylor_truncate(prof, 2).result
        second = taylor_truncate(first, 2).result
        assert first.lam_coeffs == second.lam_coeffs
        assert first.mu_coeffs == second.mu_coeffs

    def test_truncation_order_guard(self):
        prof = LameProfile.from_polynomial([1.0], [1.0], max_derivative_order=1)
        with pytest.raises(ValueError, match="derivatives"):
            taylor_truncate(prof, 3)

    def test_admissibility_constant(self):
        rep = validate_admissibility(LameProfile.constant(1.0, 1.0), H=1.0)
        assert rep.passed
        assert rep.min_mu == pytest.approx(1.0)
        assert rep.min_bulk == pytest.approx(5.0)

    def test_admissibility_sign_change(self):
        prof = LameProfile.from_polynomial([1.0], [1.0, -2.0])
        rep = validate_admissibility(prof, H=1.0)
        assert not rep.passed
        assert rep.min_mu < 0.0

    def test_admissibility_near_boundary(self):
        rep = validate_admissibility(LameProfile.constant(-0.6, 1.0), H=1.0)
        assert rep.passed
        assert rep.min_bulk == pytest.approx(0.2)

    def test_admissibility_exact_between_samples(self):
        # mu = 1e4 (y - 1)^2 - 1e-3 dips below zero only within 3.2e-4 of
        # y = 1, the midpoint between samples 255 and 256 of 512 on [0, 2]
        prof = LameProfile.from_polynomial([1.0], [1e4 - 1e-3, -2e4, 1e4])
        y = np.linspace(0.0, 2.0, 512)
        assert prof.mu(y).min() > 0.0
        rep = validate_admissibility(prof, H=2.0, n_samples=512)
        assert rep.n_samples == 0 and not rep.passed
        assert rep.min_mu == pytest.approx(-1e-3, rel=1e-6)
        assert rep.min_bulk == pytest.approx(3.0 - 2e-3, rel=1e-12)

    def test_admissibility_sampled_for_callables(self):
        prof = LameProfile(lambda y, order=0: 1.0 + 0.0 * y, lambda y, order=0: 1.0 + y)
        rep = validate_admissibility(prof, H=1.0, n_samples=11)
        assert rep.passed and rep.n_samples == 11
        assert rep.min_bulk == pytest.approx(5.0)

    def test_surface_derivatives(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [2.0, 0.2])
        assert float(prof.lam(0.0, 1)) == pytest.approx(0.3)
        assert float(prof.lam(0.0, 2)) == pytest.approx(0.2)
        assert float(prof.mu(0.0, 1)) == pytest.approx(0.2)
        lam_b, mu_b = prof.taylor_coefficients(2)
        assert np.allclose(lam_b, [1.0, 0.3, 0.1])
        assert np.allclose(mu_b, [2.0, 0.2, 0.0])
