import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lame_edge.ansatz import (
    AnsatzSolution,
    BumpCutoff,
    GaussianCutoff,
    ProbeSpec,
    _apply_operator_fd,
    boundary_datum,
    build_correctors,
    evaluate_ansatz,
    leading_profile,
    residual_decay,
    sigma_expand,
    smallness_ok,
)
from lame_edge.elastic import LameProfile, isotropic_components
from lame_edge.stroh import sigma_basis

E1 = (1.0, 0.0, 0.0)
A_E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


@pytest.fixture(scope="module")
def bump():
    return BumpCutoff()


@pytest.fixture(scope="module")
def gauss():
    return GaussianCutoff()


GRID = [(0.1, 0.2, 0.4), (0.35, -0.15, 1.3), (0.0, 0.0, 2.6), (0.5, 0.24, 0.8)]


def degrees(P):
    """z3 degrees d with a nonzero coefficient in the corrector array P[d, b1, b2, :]."""
    return np.flatnonzero(np.any(P != 0.0, axis=(1, 2, 3))).tolist()


def betas(P):
    """Cutoff multi-indices (b1, b2) with a nonzero coefficient in P."""
    return list(zip(*np.nonzero(np.any(P != 0.0, axis=(0, 3)))))


class TestCutoffs:
    def test_unit_l2_mass(self, bump, gauss):
        assert abs(bump.l2_mass() - 1.0) < 1e-8
        assert abs(gauss.l2_mass() - 1.0) < 1e-8

    def test_bump_range_and_support(self, bump):
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [0.999, 0.0], [1.0, 0.0], [1.4, 0.2]])
        v = bump.value(pts)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert v[3] == 0.0 and v[4] == 0.0

    @pytest.mark.parametrize("beta", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 3),
                                      (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    def test_derivatives_match_finite_differences(self, bump, gauss, beta):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.55, 0.55, (6, 2))
        h = 1e-5
        for cut in (bump, gauss):
            lower = (beta[0] - 1, beta[1]) if beta[0] else (beta[0], beta[1] - 1)
            axis = np.array([h, 0.0]) if beta[0] else np.array([0.0, h])
            fd = (cut.derivative(lower)(pts + axis) - cut.derivative(lower)(pts - axis)) / (2 * h)
            an = cut.derivative(beta)(pts)
            assert np.abs(fd - an).max() < 1e-6 * max(1.0, np.abs(an).max())

    def test_bump_derivatives_leave_sympy_unloaded(self):
        # every multi-index of order <= 4 (the bump cascade's) is a closed form
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
                "from lame_edge.ansatz import BumpCutoff; b = BumpCutoff(); "
                "[b.derivative((a, n - a))(np.zeros((1, 2))) "
                "for n in range(5) for a in range(n + 1)]; "
                "print([m for m in sys.modules if m == 'sympy' or m.startswith('sympy.')])")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_gaussian_fourier_mass_and_tail(self, gauss):
        W = gauss.spectral_halfwidth(1e-8)
        k = np.linspace(0.0, 2 * W, 4001)
        dens = np.abs(gauss.fourier_radial(k)) ** 2 * k / (4 * np.pi**2) * 2 * np.pi
        total = np.trapezoid(dens, k)
        assert abs(total - 1.0) < 1e-6
        tail = np.trapezoid(np.where(k >= W, dens, 0.0), k)
        assert tail <= 2e-8

    def test_bump_fourier_tail_scan(self, bump):
        W = bump.spectral_halfwidth(1e-6)
        assert 10.0 < W < 200.0

    def test_bump_fourier_matches_hankel_reference(self, bump):
        # eta_hat(k) = 2 pi int_0^1 r eta(r) J0(k r) dr on a 600-node radial rule,
        # J0(z) = (2 pi)^-1 int_0^2pi cos(z sin t) dt by the periodic trapezoid rule
        x, w = np.polynomial.legendre.leggauss(600)
        r, wr = 0.5 * (x + 1.0), 0.5 * w
        eta = bump.value(np.column_stack([r, np.zeros_like(r)]))
        theta = 2.0 * np.pi * np.arange(512) / 512
        k = np.array([0.0, 1.0, 7.5, 50.0, 103.0, 200.0, 200.5, 250.0, 400.0])
        j0 = np.cos(np.multiply.outer(np.outer(k, r), np.sin(theta))).mean(axis=-1)
        reference = 2.0 * np.pi * (j0 * (wr * r * eta)).sum(axis=1)
        assert np.abs(bump.fourier_radial(k) - reference).max() <= 1e-12 * reference[0]
        assert bump.fourier_radial(k.reshape(3, 3)).shape == (3, 3)

    def test_bump_spectral_halfwidths_pinned(self, bump):
        # the tail scan's grid points, as found from the former Hankel table
        assert bump.spectral_halfwidth(1e-8) == 94.57743038593063
        assert bump.spectral_halfwidth(1e-6) == 52.56472887151929


class TestProbeSpec:
    def test_smallness_condition_enforced(self, gauss):
        # (1 - 1/2)(1 + 0.9) = 0.95 < 1.5: rejected
        with pytest.raises(ValueError, match="smallness"):
            ProbeSpec(A_E3, E1, 8, 2, 1, gauss)
        ProbeSpec(A_E3, E1, 8, 4, 1, gauss)  # (0.75)(1.9) = 1.425 >= 1.25

    def test_omega_unit_to_rounding(self, gauss):
        # the direction rule of stroh._as_tangent, which reconstruct_profile applies
        with pytest.raises(ValueError, match="unit vector"):
            ProbeSpec(A_E3, (1.0 + 1e-7, 0.0), 16, 4, 0, gauss)
        for t in np.linspace(0.0, 2.0 * np.pi, 13):
            probe = ProbeSpec(A_E3, (np.cos(t), np.sin(t)), 16, 4, 0, gauss)
            assert probe.omega[2] == 0.0

    def test_auto_rho_tilde(self):
        assert ProbeSpec.auto_rho_tilde(0) == 4
        assert ProbeSpec.auto_rho_tilde(1) == 4
        assert ProbeSpec.auto_rho_tilde(2) == 5
        assert smallness_ok(2, 5, 0.9) and not smallness_ok(2, 4, 0.9)

    def test_boundary_datum_mass(self, gauss):
        a = np.array([0.4, -0.2 + 0.3j, 1.0])
        probe = ProbeSpec(a, E1, 16, 4, 0, gauss)
        phi = boundary_datum(probe)
        L = 1.5 * probe.support_radius * gauss.support_radius
        n = 400
        x = np.linspace(-L, L, n)
        X, Y = np.meshgrid(x, x)
        vals = phi(np.stack([X, Y], axis=-1))
        mass = np.sum(np.abs(vals) ** 2) * (x[1] - x[0]) ** 2
        assert mass == pytest.approx(np.linalg.norm(a) ** 2 / probe.N, rel=1e-6)

    def test_boundary_datum_zero_amplitude(self, gauss):
        probe = ProbeSpec(np.zeros(3), E1, 16, 4, 0, gauss)
        vals = boundary_datum(probe)(np.array([[0.0, 0.0], [0.01, 0.0]]))
        assert np.all(vals == 0.0)

    def test_boundary_datum_support(self, bump):
        probe = ProbeSpec(A_E3, E1, 16, 4, 0, bump)
        r = probe.support_radius
        pts = np.array([[r, 0.0], [0.0, 1.5 * r], [2.0 * r, 0.1 * r]])
        assert np.all(boundary_datum(probe)(pts) == 0.0)


class TestSigmaExpand:
    def test_basis_vector(self):
        S = sigma_basis(1.0, 1.0, E1)
        c = sigma_expand(S[:, 0], 1.0, 1.0, E1)
        assert np.allclose(c, (1.0, 0.0, 0.0), atol=1e-14)

    def test_e3_coefficients(self):
        c = sigma_expand((0.0, 0.0, 1.0), 1.0, 1.0, E1)
        assert np.allclose(c, (0.0, 0.0, -0.5), atol=1e-14)

    def test_random_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = rng.uniform(0.2, 3.0)
            lam = rng.uniform(-2 * mu / 3 + 0.05, 3.0)
            th = rng.uniform(0, 2 * np.pi)
            om = (np.cos(th), np.sin(th), 0.0)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            c = sigma_expand(a, lam, mu, om)
            S = sigma_basis(lam, mu, om)
            assert np.linalg.norm(S @ np.array(c) - a) <= 1e-12 * np.linalg.norm(a)


class TestLeadingProfile:
    def test_pure_shear_amplitude_has_no_corrector(self, gauss):
        S = sigma_basis(1.0, 1.0, E1)
        probe = ProbeSpec(S[:, 0], E1, 16, 4, 0, gauss)
        sol = leading_profile(probe, 1.0, 1.0)
        assert degrees(sol.stack[0]) == [0]

    def test_e3_corrector_coefficient(self, gauss):
        # c3 = -1/2 so the depth-linear term is +i c3 z3 sigma2 = -(i/2) z3 sigma2
        probe = ProbeSpec(A_E3, E1, 16, 4, 0, gauss)
        sol = leading_profile(probe, 1.0, 1.0)
        S = sigma_basis(1.0, 1.0, E1)
        assert np.allclose(sol.stack[0][1, 0, 0], -0.5j * S[:, 1], atol=1e-14)

    def test_annihilated_by_frozen_operator(self, gauss):
        rng = np.random.default_rng(3)
        for _ in range(5):
            mu = rng.uniform(0.3, 2.0)
            lam = rng.uniform(-2 * mu / 3 + 0.05, 2.0)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            probe = ProbeSpec(a, E1, 16, 4, 0, gauss)
            sol = leading_profile(probe, lam, mu)
            assert sol.cascade_residual(0, GRID) <= 1e-10


class TestCascade:
    def test_degree_bound_and_zero_trace(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(A_E3, E1, 16, 4, 1, gauss)
        sol = build_correctors(probe, prof)
        assert len(sol.stack) == probe.n_correctors + 1
        for n, P in enumerate(sol.stack):
            assert max(degrees(P)) <= n + 1
            if n >= 1:
                assert 0 not in degrees(P)  # V^n(z', 0) = 0

    def test_cascade_residuals_pointwise(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(A_E3, E1, 16, 4, 1, gauss)
        sol = build_correctors(probe, prof)
        for n in range(len(sol.stack)):
            assert sol.cascade_residual(n, GRID) <= 1e-10

    def test_first_corrector_needs_cutoff_gradients(self, gauss):
        # V^1 coefficients all involve eta derivatives, so V^1 vanishes
        # wherever the cutoff is locally constant
        prof = LameProfile.constant(1.0, 1.0)
        S = sigma_basis(1.0, 1.0, E1)
        probe = ProbeSpec(S[:, 0], E1, 16, 4, 1, gauss)
        sol = build_correctors(probe, prof)
        for beta in betas(sol.stack[1]):
            assert beta[0] + beta[1] >= 1

    def test_bump_cascade(self, bump):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(A_E3, E1, 16, 4, 1, bump)
        sol = build_correctors(probe, prof)
        assert sol.cascade_residual(4, GRID) <= 1e-10


class TestEvaluation:
    def test_trace_equals_boundary_datum(self, gauss):
        # identical by construction; tolerance covers multiplication-order ulps
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0.3, -0.1j, 1.0]), E1, 32, 4, 1, gauss)
        sol = build_correctors(probe, prof)
        yp = np.array([[0.0, 0.0], [0.003, -0.001], [0.01, 0.02]])
        y = np.column_stack([yp, np.zeros(3)])
        tr = sol.evaluate(y)
        bd = boundary_datum(probe)(yp)
        assert np.abs(tr - bd).max() <= 1e-15 * np.abs(bd).max()

    def test_zero_outside_support(self, bump):
        probe = ProbeSpec(A_E3, E1, 32, 4, 0, bump)
        sol = leading_profile(probe, 1.0, 1.0)
        r = probe.support_radius
        y = np.array([[2.0 * r, 0.0, 0.01], [0.0, 1.2 * r, 0.3]])
        assert np.all(sol.evaluate(y) == 0.0)

    def test_envelope_bound(self, gauss):
        probe = ProbeSpec(A_E3, E1, 64, 4, 1, gauss)
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        sol = build_correctors(probe, prof)
        rng = np.random.default_rng(4)
        N, rho = probe.N, probe.rho
        deg = max(max(degrees(P)) for P in sol.stack)
        for _ in range(100):
            yp = rng.uniform(-0.5, 0.5, 2) * N ** (rho - 1.0)
            y3 = rng.uniform(0.0, 4.0) / N
            val = np.linalg.norm(sol.evaluate(np.array([*yp, y3])))
            z3 = N * y3
            bound = 20.0 * N ** (0.5 - rho) * (1.0 + z3**deg) * np.exp(-z3)
            assert val <= bound

    def test_decay_in_depth(self, gauss):
        probe = ProbeSpec(A_E3, E1, 16, 4, 0, gauss)
        sol = leading_profile(probe, 1.0, 1.0)
        vals = [np.linalg.norm(sol.evaluate(np.array([0.0, 0.0, z / 16]))) for z in (2.0, 6.0, 12.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3 * vals[0]

    def test_rebind_guard(self, gauss):
        probe = ProbeSpec(A_E3, E1, 16, 4, 0, gauss)
        sol = leading_profile(probe, 1.0, 1.0)
        other = ProbeSpec(np.array([1.0, 0, 0]), E1, 16, 4, 0, gauss)
        with pytest.raises(ValueError, match="different probe"):
            evaluate_ansatz(sol, other, np.zeros(3))
        rebound = evaluate_ansatz(sol, probe.with_N(32), np.array([0.0, 0.0, 0.0]))
        assert rebound.shape == (3,)


class TestOperatorFD:
    def test_exact_on_quadratic_fields(self):
        # the 5-point stencils are exact on quadratics, so the finite-difference
        # div(C grad u) matches C_ijkl d_j d_l u_k + (d3 C)_i3kl d_l u_k to roundoff
        rng = np.random.default_rng(11)
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [1.0, 0.2, -0.05])
        A = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def u(y):
            return np.einsum("kjl,...j,...l->...k", A, y, y) + y @ b.T

        centers = rng.uniform(0.0, 0.5, (7, 3))
        steps = np.array([0.01, 0.02, 0.005])
        got = _apply_operator_fd(prof, u, centers, steps)
        for y, Lu in zip(centers, got):
            hess = np.einsum("kjl->jlk", A + A.transpose(0, 2, 1))
            grad = np.einsum("kjl,j->lk", A + A.transpose(0, 2, 1), y) + b.T
            C = isotropic_components(prof.lam(y[2]), prof.mu(y[2]))
            dC = isotropic_components(prof.lam(y[2], 1), prof.mu(y[2], 1))
            want = np.einsum("ijkl,jlk->i", C, hess) + np.einsum("ikl,lk->i", dC[:, 2], grad)
            assert np.abs(Lu - want).max() <= 1e-9 * np.abs(want).max()


class TestResidualDecay:
    def test_homogeneous_order0_slope(self, gauss):
        prof = LameProfile.constant(1.0, 1.0)
        probes = [ProbeSpec(A_E3, E1, n, 4, 0, gauss) for n in (16, 32, 64, 128)]
        fit = residual_decay(probes, prof)
        assert fit.fd_disagreement < 0.05
        assert abs(fit.slope - 1.75) <= 0.2

    def test_order2_slope_below_zero(self, gauss):
        # the bound 2 - m - rho is negative from m = 2 on: the norms fall over
        # the ladder, so the leading exponent is negative with both terms positive
        prof = LameProfile.from_polynomial([1.0, 0.3, 0.1], [1.0, 0.2, 0.05])
        probes = [ProbeSpec(A_E3, E1, n, 5, 2, gauss) for n in (16, 32, 64, 128, 256)]
        fit = residual_decay(probes, prof)
        assert fit.raw_slope < 0.0
        assert fit.slope < 0.0
        assert min(fit.coefficients) > 0.0

    def test_l2_gradient_scaling(self, gauss):
        # || y3^b grad Phi^N ||_{L2(Omega_N)} ~ N^{-b} under unit-mass probes
        prof = LameProfile.constant(1.0, 1.0)
        probe0 = ProbeSpec(A_E3, E1, 16, 4, 0, gauss)
        sol = leading_profile(probe0, 1.0, 1.0)

        def l2_norm(N, b):
            probe = probe0.with_N(N)
            s = AnsatzSolution(probe, 1.0, 1.0, sol.c_sigma, sol.stack, sol.operators)
            rho = probe.rho
            L = probe.support_radius * gauss.support_radius
            xs = np.linspace(-L, L, 48)
            z3 = np.linspace(1e-4, 1.0 / np.sqrt(N), 120)
            X, Y, D = np.meshgrid(xs, xs, z3, indexing="ij")
            pts = np.stack([X, Y, D], axis=-1)
            h = 1e-6 / N
            dphi = (s.evaluate(pts + [0, 0, h]) - s.evaluate(pts - [0, 0, h])) / (2 * h)
            w = (xs[1] - xs[0]) ** 2 * (z3[1] - z3[0])
            integrand = (D**b * np.linalg.norm(dphi, axis=-1)) ** 2
            return np.sqrt(np.sum(integrand) * w)

        for b in (0, 1):
            norms = [l2_norm(N, b) for N in (16, 32, 64, 128)]
            slope = np.polyfit(np.log([16, 32, 64, 128]), np.log(norms), 1)[0]
            assert abs(slope - (-b)) < 0.1
