import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lame_edge.ansatz import BumpCutoff, GaussianCutoff, ProbeSpec
from lame_edge.elastic import LameProfile, validate_admissibility
from lame_edge.forward import (
    DEFAULT_FRAME,
    _assemble,
    _dop853,
    _radial_symbols,
    _form_coefficients,
    _harmonics,
    ForwardError,
    QuadratureSettings,
    RadialDtnTable,
    RadialSymbol,
    Z_ROWS_E1,
    depth_stroh,
    difference_pairing,
    dtn_symbol,
    dtn_symbol_march,
    half_space_impedance,
    interpolation_counts,
    limit_quadrature,
    pairing,
    polar_grid,
    symbol_memo,
    warm_tables,
)
from lame_edge.reconstruct import ProbeTemplate, run_ladder
from lame_edge.stroh import impedance, stroh_matrix

E1 = (1.0, 0.0, 0.0)


def random_admissible(rng):
    mu = rng.uniform(0.3, 2.5)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.1, 2.5)
    return lam, mu


def random_profile(rng, name="rand"):
    # gentle slopes keep admissibility on [0, H_max]
    lam0, mu0 = random_admissible(rng)
    lam0 = abs(lam0) + 0.2
    s1 = rng.uniform(-0.1, 0.3)
    s2 = rng.uniform(-0.05, 0.3)
    return LameProfile.from_polynomial([lam0, s1], [mu0, s2], name=name)


class TestDepthStroh:
    def test_constant_profile_unit_k_matches_pointwise_matrix(self):
        prof = LameProfile.constant(1.3, 0.8)
        th = 0.7
        k = (np.cos(th), np.sin(th))
        K1 = depth_stroh(prof, 0.4, k)
        K2 = stroh_matrix(1.3, 0.8, (k[0], k[1], 0.0)).matrix
        assert np.allclose(K1, K2, atol=1e-14)

    def test_block_homogeneity_in_k(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        k = np.array([3.0, -1.0])
        c = 2.5
        K = depth_stroh(prof, 0.2, k)
        Kc = depth_stroh(prof, 0.2, c * k)
        assert np.allclose(Kc[:3, :3], c * K[:3, :3], atol=1e-13)
        assert np.allclose(Kc[:3, 3:], K[:3, 3:], atol=1e-13)
        assert np.allclose(Kc[3:, :3], c**2 * K[3:, :3], atol=1e-12)
        assert np.allclose(Kc[3:, 3:], c * K[3:, 3:], atol=1e-13)

    def test_coefficients_evaluated_at_depth(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.0])
        K = depth_stroh(prof, 1.0, (1.0, 0.0))
        K_ref = stroh_matrix(1.3, 1.0, E1).matrix
        assert np.allclose(K, K_ref, atol=1e-14)


class TestIntegrator:
    def test_linear_flow_and_nonfinite_refusal(self):
        rates = np.arange(1, 4)  # nodes with rates 1, 2, 3

        def decay(y, C, i, out):
            np.multiply(y, C[i], out=out)

        y, accepted, rejected, evaluations = _dop853(
            lambda taus: np.broadcast_to(-rates, (taus.size, 3)), decay,
            1.0, 0.0, np.ones((4, 3)), 1e-10)
        assert np.abs(y / np.exp(np.arange(1, 4)) - 1.0).max() <= 1e-9 and accepted > 0
        assert evaluations == 2 + 12 * accepted + 11 * rejected

        def blows_up(taus):  # a coefficient that turns infinite for tau <= 0.5
            return np.where(taus > 0.5, -1.0, np.inf)[:, None]

        with pytest.raises(ForwardError, match="step size"), np.errstate(invalid="ignore"):
            _dop853(blows_up, decay, 1.0, 0.0, np.ones((4, 3)), 1e-10)


def reference_terms(profile, nodes, tau, y):
    """The terms of c times the module docstring's flow at y3 = tau H, one
    list per row, written out plainly."""
    H_max, efolds = DEFAULT_FRAME.H_max, DEFAULT_FRAME.efolds
    scaled = nodes > efolds / H_max
    sigma = np.where(scaled, nodes, 1.0)
    rho = nodes / sigma
    H = np.where(scaled, efolds / sigma, H_max)
    c = H * sigma
    S11, S22, S33, b = y
    lam, mu = profile.lam(tau * H), profile.mu(tau * H)
    d = 1.0 / (lam + 2.0 * mu)
    p, q, g = c / mu, c * d, lam * d
    cr, cr2 = c * rho, c * rho**2
    return [
        [cr2 * (4.0 * mu * (lam + mu) * d), -2.0 * cr * g * b, -q * b**2, -p * S11**2],
        [cr2 * mu, -p * S22**2],
        [2.0 * cr * b, -p * b**2, -q * S33**2],
        [cr * S11, -cr * g * S33, -p * S11 * b, -q * S33 * b],
    ]


def kernel_of(profile, nodes):
    """The (coefficients, flow) pair the Riccati core hands to its integrator."""
    seen = {}

    def capture(coefficients, flow, t0, t1, y0, tol):
        seen.update(coefficients=coefficients, flow=flow)
        return y0, 0, 0, 0

    with mock.patch("lame_edge.forward._dop853", capture):
        _radial_symbols(profile, nodes, 1e-10)
    return seen["coefficients"], seen["flow"]


# an elementwise lam and a mu that returns a scalar, which the kernel broadcasts
WAVY = LameProfile(lambda y, o: 1.0 + 0.2 * np.sin(y) if o == 0 else 0.2 * np.cos(y),
                   lambda y, o: 1.5 if o == 0 else 0.0, max_derivative_order=1, name="wavy")


class TestRiccatiKernel:
    # subnormal coefficients are left out: validate_admissibility's root finder
    # cannot take a subnormal leading coefficient (LinAlgError)
    @settings(max_examples=40, deadline=None)
    @given(lam=st.lists(st.floats(-0.3, 0.3, allow_subnormal=False), min_size=3, max_size=3),
           mu=st.lists(st.floats(-0.3, 0.3, allow_subnormal=False), min_size=3, max_size=3),
           base=st.tuples(st.floats(-0.5, 2.0), st.floats(0.8, 3.0)),
           degree=st.integers(0, 3), callable_profile=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_flow_is_the_docstring_flow(self, lam, mu, base, degree, callable_profile, seed):
        # the kernel sums the terms in its own order, so each entry matches the
        # plain sum to rounding: 8 eps of the sum of the terms' magnitudes
        if callable_profile:
            profile = WAVY
        else:
            profile = LameProfile.from_polynomial([base[0]] + lam[:degree], [base[1]] + mu[:degree])
            assume(validate_admissibility(profile, DEFAULT_FRAME.H_max).passed)
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.uniform(0.0, 40.0, 9))  # both depth regimes
        taus = rng.uniform(0.0, 1.0, 12)
        coefficients, flow = kernel_of(profile, nodes)
        C = coefficients(taus)
        out = np.empty((4, nodes.size))
        for i, tau in enumerate(taus):
            y = rng.normal(size=(4, nodes.size))
            flow(y, C, i, out)
            terms = [np.array(row) for row in reference_terms(profile, nodes, tau, y)]
            reference = np.array([row.sum(axis=0) for row in terms])
            magnitude = np.array([np.abs(row).sum(axis=0) for row in terms])
            assert np.all(np.abs(out - reference) <= 8.0 * np.finfo(float).eps * magnitude)

    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (0.5203, 1.5608), (9.33, 1.0),
                                          (-0.4, 1.0), (3.0, 0.5), (20.0, 1.0)])
    def test_constant_profile_drift(self, lam, mu):
        # the flow is stationary on a constant profile, so M0 / r = Z0 exactly;
        # what the integrator's rounding makes of it is the noise in a nearly
        # constant profile's remainder. The radii are those of RadialSymbol's
        # first 48 Chebyshev points in [0.25, 1000], both depth regimes
        theta = (2.0 * np.arange(48) + 1.0) * (np.pi / 96)
        radii = 2.0 * np.tan(0.5 * theta) ** 2
        radii = radii[(radii >= 0.25) & (radii <= 1000.0)]
        z0 = mu / (lam + 3.0 * mu) * (lam * Z_ROWS_E1[0] + mu * Z_ROWS_E1[1])
        rows, *_ = _radial_symbols(LameProfile.constant(lam, mu), radii, 1e-10)
        assert np.abs(rows / radii[:, None] - z0).max() <= 2e-11 * np.abs(z0).max()

    @settings(max_examples=8, deadline=None)
    @given(t=st.floats(0.1, 10.0))
    def test_moduli_scaling(self, t):
        # Z(t lam, t mu) = t Z carries over to the symbol: S -> t S solves the
        # flow with (t lam, t mu); the integrator only meets it within tolerance
        tol, base = 1e-10, [[1.0, 0.3, -0.05], [1.0, 0.2, 0.04]]
        nodes = np.linspace(0.25, 40.0, 24)
        rows, *_ = _radial_symbols(LameProfile.from_polynomial(*base), nodes, tol)
        scaled, *_ = _radial_symbols(
            LameProfile.from_polynomial(*(t * np.array(base))), nodes, tol)
        err = np.abs(scaled - t * rows).max(axis=1) / np.abs(t * rows).max(axis=1)
        assert err.max() <= 4.0 * tol


class TestHalfSpaceImpedance:
    def test_matches_impedance_formula(self):
        M = half_space_impedance(1.0, 1.0, (1.0, 0.0))
        assert M[0, 0] == pytest.approx(1.5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            lam, mu = random_admissible(rng)
            th = rng.uniform(0, 2 * np.pi)
            k = 3.7 * np.array([np.cos(th), np.sin(th)])
            Z = impedance(lam, mu, (np.cos(th), np.sin(th), 0.0)).matrix
            assert np.allclose(half_space_impedance(lam, mu, k), 3.7 * Z, atol=1e-12)

    def test_homogeneous_degree_one(self):
        M1 = half_space_impedance(2.0, 1.0, (1.0, 2.0))
        M2 = half_space_impedance(2.0, 1.0, (3.0, 6.0))
        assert np.allclose(M2, 3.0 * M1, atol=1e-12)

    def test_hermitian_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam, mu = random_admissible(rng)
            M = half_space_impedance(lam, mu, (1.0, -0.4))
            assert np.allclose(M, M.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min() > 0.0


class TestDtnSymbol:
    def test_fixed_point_on_constant_profile(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam, mu = random_admissible(rng)
            k = rng.uniform(-6, 6, 2)
            if np.hypot(*k) < 0.3:
                k = np.array([1.0, 0.5])
            prof = LameProfile.constant(lam, mu)
            M = dtn_symbol(prof, k).matrix
            M_inf = half_space_impedance(lam, mu, k)
            assert np.abs(M - M_inf).max() <= 1e-8 * np.abs(M_inf).max()

    def test_hermitian_positive_variable_profile(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        sym = dtn_symbol(prof, (8.0, 0.0))
        assert sym.hermiticity_defect <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (sym.matrix + sym.matrix.conj().T)).min() > 0.0

    def test_riccati_vs_subspace_march(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            prof = random_profile(rng, f"rand{trial}")
            # log-uniform over both bands: physical depth (|k| <= efolds/H_max = 7)
            # and scaled depth
            kn = np.exp(rng.uniform(np.log(0.5), np.log(300.0)))
            th = rng.uniform(0, 2 * np.pi)
            k = kn * np.array([np.cos(th), np.sin(th)])
            M1 = dtn_symbol(prof, k).matrix
            M2 = dtn_symbol_march(prof, k, n_steps=900)
            assert np.abs(M1 - M2).max() <= 1e-6 * np.abs(M1).max()

    def test_zero_frequency(self):
        prof = LameProfile.constant(1.0, 1.0)
        assert np.all(dtn_symbol(prof, (0.0, 0.0)).matrix == 0.0)

    def test_inadmissible_profile_rejected(self):
        prof = LameProfile.from_polynomial([1.0], [1.0, -1.0])
        with pytest.raises(ForwardError, match="inadmissible"):
            dtn_symbol(prof, (3.0, 0.0))

    def test_truncation_depth_policy(self):
        assert DEFAULT_FRAME.depth((100.0, 0.0)) == pytest.approx(0.14)
        assert DEFAULT_FRAME.depth((1.0, 0.0)) == pytest.approx(2.0)
        assert np.dot(DEFAULT_FRAME.outward_normal, [0, 0, 1]) == -1.0


LADDER = (16, 32, 64, 128, 256)


RADII = np.linspace(0.0, 60.0, 241)
moduli = st.tuples(st.floats(0.2, 3.0), st.floats(-7.0, 1.5)).map(
    lambda x: (x[0] * (-2.0 / 3.0 + 10.0 ** x[1]), x[0])  # lam/mu down to -2/3 + 1e-7
)
slopes = st.floats(-0.4, 0.4)
STEEP = LameProfile(lambda y, o=0: 1.0 + 2.0 * np.exp(-20.0 * y),
                    lambda y, o=0: 1.0 + np.exp(-30.0 * y), name="steep")  # needs 144 points


class TestRadialTable:
    """The radial symbol: one certified Chebyshev interpolant per profile."""

    def test_table_matches_direct_solves(self):
        # the interpolant against one-node solves at the ladder's radii, both bands
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="grad")
        sym, = warm_tables(prof)
        radii = np.concatenate([polar_grid(n, 4, GaussianCutoff(), QuadratureSettings()).r
                                for n in LADDER])
        for r in radii[::40]:
            Md = dtn_symbol(prof, (r, 0.0)).matrix
            Mt = _assemble(sym.rows(r))
            assert np.abs(Md - Mt).max() <= 1e-8 * max(np.abs(Md).max(), 1e-3)

    def test_rotation_equivariance(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="grad")
        ks = ((30.0, 40.0), (-5.0, 2.0), (60.0, -80.0))
        sym = RadialSymbol(prof)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in ks:
            direct = dtn_symbol(prof, k).matrix
            fd = complex(np.einsum("ij,i,j->", direct, a.conj(), a))
            c, s = np.array(k) / np.hypot(*k)
            ft = sym.rows(np.hypot(*k)) @ _form_coefficients(a) @ _harmonics(c, s)
            assert abs(fd - ft) <= 1e-8 * abs(fd)

    def test_narrow_dip_between_samples_rejected(self):
        # mu < 0 only within 3.2e-4 of y3 = 1, the midpoint between samples 255
        # and 256 of a 512-point grid on [0, 2]; the exact check still sees it
        prof = LameProfile.from_polynomial([1.0], [1e4 - 1e-3, -2e4, 1e4])
        with pytest.raises(ForwardError, match="inadmissible"):
            RadialSymbol(prof)

    def test_nodes_sorted_and_distinct(self):
        # first-kind Chebyshev points in s, ascending in (0, 1); a refinement
        # triples them, and the solved points are every third of the new set
        sym = RadialSymbol(STEEP)
        assert [n for n, *_ in sym.solves] == [48, 96]
        assert sym.s.size == 144 and 0.0 < sym.s[0] and sym.s[-1] < 1.0
        assert np.all(np.diff(sym.s) > 0.0)
        np.testing.assert_allclose(sym.s[1::3], RadialSymbol(GRAD).s, rtol=1e-14)
        assert RadialSymbol(LameProfile.constant(1.0, 1.0)).s is None

    def test_table_build_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on first use, inside the first timed pass
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from lame_edge.elastic import LameProfile; "
                "from lame_edge.forward import warm_tables; "
                "prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2]); "
                "warm_tables(prof, m=1); "
                "print('numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_out_of_range_rejected(self):
        # a symbol whose Chebyshev tail stays above the tolerance at the cap is
        # refused, never accepted; a resolved one answers at every r >= 0; the
        # joint solve under it takes radii in [0, k_max] only
        with mock.patch("lame_edge.forward._MAX_POINTS", 48):
            with pytest.raises(ForwardError, match="not resolved"):
                RadialSymbol(STEEP)
        rows = RadialSymbol(GRAD).rows(np.array([0.0, 5.5, 50.0, 1e6]))
        assert np.all(np.isfinite(rows)) and np.abs(rows[0]).max() <= 1e-10
        with pytest.raises(ValueError, match="k_max"):
            RadialDtnTable(GRAD, 10.0, [1.0, 50.0])

    @settings(max_examples=12, deadline=None)
    @given(moduli, st.lists(slopes, min_size=6, max_size=6),
           st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=8))
    def test_interpolant_within_tolerance_of_direct_solves(self, lm, c, radii):
        # admissible polynomials of degree <= 3 at radii in [0, 5000]: per node,
        # relative to the row scale max(|rows(r)|, |Z0|)
        prof = LameProfile.from_polynomial([lm[0], *c[:3]], [lm[1], *c[3:]])
        assume(validate_admissibility(prof, DEFAULT_FRAME.H_max).passed)
        sym = RadialSymbol(prof)
        r = np.array(radii)
        direct, *_ = _radial_symbols(prof, r, 1e-12)
        rows = sym.rows(r)
        scale = np.maximum(np.abs(rows).max(axis=1), np.abs(sym.z0).max())
        assert np.all(np.abs(rows - direct).max(axis=1) <= 2e-10 * scale)


class TestReducedCore:
    """Structure of M0(r) = M(r e1): SH scalar plus Hermitian P-SV block."""

    @settings(max_examples=12, deadline=None)
    @given(moduli, slopes, slopes, slopes, slopes)
    def test_decoupled_hermitian_positive_definite(self, lm, l1, l2, m1, m2):
        lam0, mu0 = lm
        prof = LameProfile.from_polynomial([lam0, l1, l2], [mu0, m1, m2])
        assume(validate_admissibility(prof, DEFAULT_FRAME.H_max).passed)
        sym = RadialSymbol(prof)
        V = _assemble(sym.rows(RADII))
        assert sym.s is None or sym.s.max() > 48.0 / 50.0  # both bands: nodes beyond r = 48
        assert np.all(V[:, [0, 1, 1, 2], [1, 0, 2, 1]] == 0.0)
        assert np.all(np.diagonal(V, axis1=1, axis2=2).imag == 0.0)
        assert np.all(V[:, 0, 2] == -V[:, 2, 0])
        assert np.all(V[:, 0, 2].real == 0.0)
        assert np.linalg.eigvalsh(V[RADII > 0.0]).min() > 0.0

    @settings(max_examples=12, deadline=None)
    @given(moduli)
    def test_constant_profile_is_degree_one_impedance(self, lm):
        rows = RadialSymbol(LameProfile.constant(*lm)).rows(RADII)
        exact = RADII[:, None, None] * impedance(*lm, E1).matrix
        assert np.abs(_assemble(rows) - exact).max() <= 1e-9 * np.abs(exact).max()

    @pytest.mark.parametrize("lm", [(-1.8331, 2.75), (-0.66666, 1.0)])
    @pytest.mark.parametrize("ladder", [
        (LADDER, 4, 96), (LADDER, 5, 96), ((8, 16, 32, 64), 4, 48),  # m = 0/1, m = 2, CLI tests
        None,  # the stiffest physical-depth nodes among many benign ones
    ])
    def test_every_node_within_tolerance(self, lm, ladder):
        # through the integrator (the tables' exact constant path bypassed): the
        # error is controlled per node, so none exceeds the tolerance by the
        # dilution an RMS over all nodes allows
        tol = 1e-10
        if ladder is None:
            radii = np.r_[np.linspace(0.01, 1.0, 200), 6.99, 7.0, 7.01]
        else:
            Ns, rho_tilde, nodes = ladder
            radii = np.unique(np.concatenate(
                [polar_grid(n, rho_tilde, GAUSS, QuadratureSettings(nodes=nodes)).r for n in Ns]))
        rows, *_ = _radial_symbols(LameProfile.constant(*lm), radii, tol)
        exact = radii[:, None, None] * impedance(*lm, E1).matrix
        err = np.abs(_assemble(rows) - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
        assert err.max() <= 2.0 * tol


@pytest.fixture(scope="module")
def gauss():
    return GaussianCutoff()


class TestPairing:
    def test_zero_amplitude(self, gauss):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.zeros(3), E1, 32, 4, 0, gauss)
        assert pairing(prof, probe).value == 0.0

    def test_homogeneous_limit_direction(self, gauss):
        # raw value at N = 256 approaches the impedance form from above
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 256, 4, 0, gauss)
        val = pairing(prof, probe).value
        assert val.real > 1.5
        assert val.real < 1.5 * 1.25
        assert abs(val.imag) <= 1e-10 * val.real

    def test_equal_slot_real_positive(self, gauss):
        rng = np.random.default_rng(6)
        for trial in range(8):
            prof = random_profile(rng, f"pp{trial}")
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            th = rng.uniform(0, 2 * np.pi)
            probe = ProbeSpec(a, (np.cos(th), np.sin(th), 0.0), 32, 4, 0, gauss)
            res = pairing(prof, probe)
            assert res.value.real > 0.0
            assert abs(res.value.imag) <= 1e-8 * res.value.real

    def test_grid_refinement_stability(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="gridref")
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 0, gauss)
        v1 = pairing(prof, probe, QuadratureSettings(nodes=96)).value
        v2 = pairing(prof, probe, QuadratureSettings(nodes=192)).value
        assert abs(v1 - v2) <= 1e-6 * abs(v1)

    def test_table_refinement_stability(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="tabref")
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 0, gauss)
        v1 = pairing(prof, probe, QuadratureSettings()).value
        v2 = pairing(prof, probe, QuadratureSettings(riccati_tol=1e-12)).value
        assert abs(v1 - v2) <= 1e-9 * abs(v1)

    def test_bump_cutoff_pairing(self):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 32, 4, 0, BumpCutoff())
        res = pairing(prof, probe, QuadratureSettings(nodes=128, tail_tol=1e-6))
        assert res.value.real > 0.0
        assert abs(res.value.imag) <= 1e-8 * res.value.real


GRAD = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="grad-contract")
GAUSS = GaussianCutoff()
reals = st.floats(-3.0, 3.0)
complex_amplitudes = st.tuples(*[reals] * 6).map(
    lambda x: np.array(x[:3]) + 1j * np.array(x[3:]))


class TestReducedContraction:
    """a^H M a = rows . Phi, and pairings on the direction-free memoised grid."""

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[reals] * 4), complex_amplitudes, st.floats(-7.0, 7.0))
    def test_contraction_equals_assembled_form(self, rows, a, theta):
        rows = np.array(rows)
        c, s = np.cos(theta), np.sin(theta)
        b = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]) @ a  # R(theta)^T a
        full = np.vdot(b, _assemble(rows) @ b).real
        reduced = rows @ _form_coefficients(a) @ _harmonics(c, s)
        scale = np.abs(rows).sum() * np.vdot(a, a).real
        assert abs(reduced - full) <= 1e-13 * max(scale, 1e-300)

    @settings(max_examples=10, deadline=None)
    @given(complex_amplitudes, st.floats(0.0, 2.0 * np.pi), st.floats(-np.pi, np.pi),
           st.sampled_from([(32, 4), (4096, 3)]))  # full-circle and wedge grids
    def test_pairing_rotation_equivariant(self, a, theta, alpha, n_rt):
        N, rt = n_rt
        assume(np.vdot(a, a).real > 1e-3)
        c, s = np.cos(alpha), np.sin(alpha)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        omega = np.array([np.cos(theta), np.sin(theta), 0.0])
        v0 = pairing(GRAD, ProbeSpec(a, omega, N, rt, 0, GAUSS)).value
        v1 = pairing(GRAD, ProbeSpec(rot @ a, rot @ omega, N, rt, 0, GAUSS)).value
        assert abs(v1 - v0) <= 1e-12 * abs(v0)

    def test_grid_memo_keys_cutoffs_by_identity(self):
        quad = QuadratureSettings()
        g = polar_grid(64, 4, GAUSS, quad)
        assert polar_grid(64, 4, GAUSS, QuadratureSettings()) is g
        assert not g.moments.flags.writeable and not g.r.flags.writeable
        assert polar_grid(64, 4, GaussianCutoff(), quad) is not g

    def test_values_independent_of_grid_memo_history(self):
        first = pairing_bits(LADDER[:4], (4, 5))
        polar_grid.cache_clear()
        symbol_memo.clear()
        assert pairing_bits(LADDER[3::-1], (5, 4)) == first
        assert pairing_bits(LADDER[:4], (4, 5)) == first
        code = ("import json, sys; sys.path[:0] = sys.argv[1:]; import test_forward as t; "
                "print(json.dumps(t.pairing_bits(t.LADDER[3::-1], (5, 4))))")
        here = Path(__file__).resolve().parent
        fresh = subprocess.run([sys.executable, "-c", code, str(here), str(here.parent / "src")],
                               capture_output=True, text=True, check=True)
        assert json.loads(fresh.stdout) == first

    def test_ladder_bits_independent_of_cache_history(self):
        # a sweep-shaped run (2 profiles, orders 0 to 2, rho_tilde 4 and 5)
        # builds each of its 10 (N, rho_tilde) grids once, and its ladders are
        # the same bits with cold caches, warm ones and after both memos evict
        cutoff, template = GaussianCutoff(), ProbeTemplate.named("sigma1", (0.6, 0.8))
        profiles = [LameProfile.from_polynomial([1.5, 0.2, -0.05], [1.0, -0.1, 0.04]),
                    LameProfile.from_polynomial([1.3, -0.1, 0.08], [0.95, 0.15, -0.03])]

        def sweep():
            return [run_ladder(p, template, LADDER, m, cutoff=cutoff,
                               rho_tilde=4 if m < 2 else 5).values.tobytes()
                    for p in profiles for m in (0, 1, 2)]

        polar_grid.cache_clear()
        symbol_memo.clear()
        weights = interpolation_counts["built"]
        cold = sweep()
        # every symbol here has 48 Chebyshev points: one set of weights per grid
        assert polar_grid.cache_info().misses == interpolation_counts["built"] - weights == 10
        assert sweep() == cold
        for n in range(1, 65):  # 64 other grids, then 16 other (exact) symbols
            polar_grid(n, 4, cutoff, QuadratureSettings(nodes=4))
        for i in range(16):
            symbol_memo.symbol(LameProfile.constant(1.0 + i / 16, 1.0), 1e-10)
        assert sweep() == cold
        assert polar_grid.cache_info().misses == 10 + 64 + 10

    def test_ladders_of_one_profile_share_one_solve(self):
        # the rho_tilde = 4 and 5 ladders, and the order-1 ladder, of one profile
        # read one symbol: the memo keys it by content and tolerance alone
        prof = LameProfile.from_polynomial([1.1, 0.3], [0.9, 0.2])
        symbol_memo.clear()
        before = dict(symbol_memo.counts)
        for m, rt in ((0, 4), (0, 5), (1, 4)):
            run_ladder(prof, ProbeTemplate.named("e3", (1.0, 0.0)), LADDER, m,
                       cutoff=GAUSS, rho_tilde=rt)
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        assert (delta["riccati_solves"], delta["exact_constants"]) == (1, 1)
        assert delta["nodes"] == 48 and delta["memo_hits"] == 2


def pairing_bits(Ns, rho_tildes) -> dict:
    """Pairing and order-1 difference pairing of GRAD per rho_tilde and N,
    standalone and on the ladder's symbols, as exact hex strings."""
    a = np.array([0.4, -1.0j, 0.7])
    out = {}
    for rt in rho_tildes:
        symbols = [warm_tables(GRAD, m=m) for m in (0, 1)]
        for n in Ns:
            p = ProbeSpec(a, (0.6, 0.8, 0.0), n, rt, 1, GAUSS)
            values = (pairing(GRAD, p), difference_pairing(GRAD, 1, p),
                      pairing(GRAD, p, symbols=symbols[0]),
                      difference_pairing(GRAD, 1, p, symbols=symbols[1]))
            out[f"{rt}/{n}"] = [v.value.real.hex() + v.value.imag.hex() for v in values]
    return out


class TestDifferencePairing:
    def test_polynomial_below_order_gives_zero(self, gauss):
        prof = LameProfile.constant(1.3, 0.9)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 1, gauss)
        val = difference_pairing(prof, 1, probe).value
        assert abs(val) <= 1e-8

    def test_linear_profile_order2_gives_zero(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 5, 2, gauss)
        val = difference_pairing(prof, 2, probe).value
        assert abs(val) <= 1e-8

    def test_requires_positive_order(self, gauss):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 16, 4, 0, gauss)
        with pytest.raises(ValueError, match="m >= 1"):
            difference_pairing(prof, 0, probe)

    def test_gradient_limit_matches_family_energy(self, gauss):
        from lame_edge.reconstruct import leading_order_response

        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], name="grad-lim")
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 128, 4, 1, gauss)
        val = 128 * difference_pairing(prof, 1, probe).value.real
        predicted = leading_order_response((0, 0, 1.0), E1, 1, 0.3, 0.2, 1.0, 1.0)
        assert predicted == pytest.approx(0.30625)
        assert abs(val - predicted) <= 0.01 * predicted


class TestLimitQuadrature:
    @pytest.mark.parametrize("k_order,target", [(1, 0.25), (2, 0.25)])
    def test_monomials(self, k_order, target):
        val = limit_quadrature(lambda y: y**k_order, [0.0] * k_order, k_order, 256)
        assert val == pytest.approx(target, rel=0.02)

    def test_convergence_in_N(self):
        vals = [
            limit_quadrature(lambda y: np.sin(y), [0.0], 1, N) for N in (64, 256, 1024)
        ]
        errs = [abs(v - 0.25) for v in vals]
        assert errs[2] < errs[1] < errs[0]

    def test_cutoff_mass_factor(self):
        g = GaussianCutoff()
        v1 = limit_quadrature(lambda y: y, [0.0], 1, 256)
        v2 = limit_quadrature(lambda y: y, [0.0], 1, 256, cutoff=g)
        assert v2 == pytest.approx(v1, rel=1e-6)
