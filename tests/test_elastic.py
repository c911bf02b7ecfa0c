import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lame_edge.elastic import (
    AdmissibilityError,
    LameProfile,
    _polyval,
    energy_density,
    taylor_truncate,
    tensor_components,
    validate_admissibility,
)


REPO = Path(__file__).resolve().parent.parent


def numpy_polynomial_min(p, H):
    """The minimum of a numpy.polynomial.Polynomial on [0, H], by endpoints and
    the roots of p' without its negligible leading terms, in that package."""
    d = p.deriv().coef
    size = np.abs(d) * H ** np.arange(d.size)
    keep = np.flatnonzero(size > np.finfo(float).eps * size.max())
    roots = np.polynomial.Polynomial(d[:keep[-1] + 1]).roots().real if keep.size else []
    return float(p(np.concatenate([[0.0, H], np.clip(roots, 0.0, H)])).min())


# degrees 0 to 4, then up to two trailing zeros; a subnormal leading
# coefficient is left out: numpy's companion matrix cannot take it either
coefficients = st.lists(st.floats(-3.0, 3.0, allow_subnormal=False) | st.just(0.0),
                        min_size=1, max_size=5)


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
        rng = np.random.default_rng(12)
        for _ in range(200):
            lam, mu = random_admissible(rng)
            G = np.array([[energy_density(lam, mu, gu, gv).real for gu in STRAIN_BASIS]
                          for gv in STRAIN_BASIS])
            ev = np.linalg.eigvalsh(G)
            assert ev.min() > 0.0
            assert np.isclose(ev.min(), min(2.0 * mu, 3.0 * lam + 2.0 * mu), rtol=1e-12)

    def test_identity_gradient(self):
        g = np.eye(3)
        assert energy_density(2.0, 1.0, g, g) == pytest.approx(24.0)

    def test_rigid_rotation_has_no_energy(self):
        A = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
        assert energy_density(1.0, 1.0, A, A) == pytest.approx(0.0, abs=1e-14)

    def test_real_nonnegative_on_complex_jets(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            e = energy_density(1.3, 0.8, g, g)
            assert abs(e.imag) <= 1e-13 * max(1.0, abs(e.real))
            assert e.real >= -1e-13

    def test_gradients_must_be_3x3(self):
        with pytest.raises(ValueError, match="3x3"):
            energy_density(1.0, 1.0, np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="3x3"):
            energy_density(1.0, 1.0, np.ones(9), np.eye(3))


class TestProfiles:
    def test_truncation_constant(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.0])
        res = taylor_truncate(prof, 1)
        y = np.linspace(0.0, 1.0, 7)
        assert np.allclose(res.lam(y), 1.0)

    def test_truncation_exact_for_low_degree(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [1.0, 0.2])
        res = taylor_truncate(prof, 2)
        y = np.linspace(0.0, 1.0, 11)
        assert np.allclose(res.lam(y), 1.0 + 0.3 * y, atol=1e-15)
        assert np.allclose(res.mu(y), prof.mu(y), atol=1e-15)

    def test_truncation_remainder_bound_exp(self):
        prof = LameProfile(
            lambda y, o=0: np.exp(y),
            lambda y, o=0: np.ones_like(np.asarray(y, dtype=float)) + 0 * y,
            max_derivative_order=3,
        )
        res = taylor_truncate(prof, 2)
        y = np.linspace(0.0, 0.1, 101)
        err = np.abs(np.exp(y) - res.lam(y)).max()
        assert err <= 0.1**2 * np.e / 2.0

    def test_truncation_idempotent(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1, 0.05], [1.0, 0.2, -0.1])
        first = taylor_truncate(prof, 2)
        second = taylor_truncate(first, 2)
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
        assert not rep.passed
        assert rep.min_mu == pytest.approx(-1e-3, rel=1e-6)
        assert rep.min_bulk == pytest.approx(3.0 - 2e-3, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(lam=coefficients, mu=coefficients, zeros=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           H=st.floats(0.1, 4.0))
    @example(lam=[1.0], mu=[2.0], zeros=(0, 0), H=2.0)  # constants
    @example(lam=[0.0], mu=[0.0], zeros=(2, 1), H=1.0)  # zero, with trailing zeros
    @example(lam=[1.0, -1.5, 0.0, 0.5], mu=[1.0, 0.0, -2.0], zeros=(1, 2), H=2.0)
    def test_polynomial_minima_match_numpy_polynomial(self, lam, mu, zeros, H):
        # the plain-numpy decision equals numpy.polynomial's, value for value
        lam, mu = lam + [0.0] * zeros[0], mu + [0.0] * zeros[1]
        rep = validate_admissibility(LameProfile.from_polynomial(lam, mu), H)
        P = np.polynomial.Polynomial
        assert rep.min_mu == numpy_polynomial_min(P(mu), H)
        assert rep.min_bulk == numpy_polynomial_min(3.0 * P(lam) + 2.0 * P(mu), H)

    @settings(max_examples=300, deadline=None)
    @given(c=st.integers(0, 4).flatmap(lambda degree: st.lists(
               st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-8, 1e3)),
               min_size=degree + 1, max_size=degree + 1)),
           kind=st.sampled_from(["scalar", "0-d", "2-D"]),
           y=st.lists(st.floats(-4.0, 4.0), min_size=6, max_size=6))
    def test_polyval_bits_match_numpy(self, c, kind, y):
        # profiles evaluate with the plain Horner rule, bit for bit numpy.polynomial's
        from numpy.polynomial.polynomial import polyval

        c = [sign * size for sign, size in c]
        y = {"scalar": y[0], "0-d": np.array(y[0]), "2-D": np.array(y).reshape(2, 3)}[kind]
        ours, theirs = np.asarray(_polyval(c, y)), np.asarray(polyval(y, c))
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()

    def test_run_path_leaves_numpy_polynomial_unloaded(self):
        # config, profile, admissibility and the reconstruct run use numpy's core only
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from lame_edge import cli; "
                "from lame_edge.reconstruct import reconstruct_profile; "
                "cfg = cli.load_config(sys.argv[2]); "
                "reconstruct_profile(cli.profile_from_config(cfg), cfg['order'], cfg['ladder'], "
                "battery=cli.battery_from_config(cfg), cutoff=cli.cutoff_from_config(cfg), "
                "rho_tilde=cfg.get('rho_tilde'), quad=cli.quad_from_config(cfg)); "
                "print([m for m in sys.modules if m.startswith('numpy.polynomial')])")
        out = subprocess.run([sys.executable, "-c", code, str(REPO / "src"),
                              str(REPO / "configs" / "gradient.json")],
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"

    def test_admissibility_sampled_for_callables(self):
        prof = LameProfile(lambda y, order=0: 1.0 + 0.0 * y, lambda y, order=0: 1.0 + y)
        rep = validate_admissibility(prof, H=1.0, n_samples=11)
        assert rep.passed
        assert rep.min_bulk == pytest.approx(5.0)

    def test_surface_derivatives(self):
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [2.0, 0.2])
        assert float(prof.lam(0.0, 1)) == pytest.approx(0.3)
        assert float(prof.lam(0.0, 2)) == pytest.approx(0.2)
        assert float(prof.mu(0.0, 1)) == pytest.approx(0.2)
        lam_b, mu_b = prof.taylor_coefficients(2)
        assert np.allclose(lam_b, [1.0, 0.3, 0.1])
        assert np.allclose(mu_b, [2.0, 0.2, 0.0])
