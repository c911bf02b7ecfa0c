import gc
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lame_edge.ansatz import BumpCutoff, GaussianCutoff, ProbeSpec, gauss_legendre
from lame_edge.elastic import LameProfile, taylor_truncate, validate_admissibility
from lame_edge.forward import (
    EFOLDS,
    H_MAX,
    _DOP_A,
    _DOP_B,
    _DOP_C,
    _DOP_STABILITY,
    _dop853,
    _radial_symbols,
    _resolve,
    _harmonics,
    _probe_coefficients,
    DEFAULT_QUAD,
    ForwardError,
    QuadratureSettings,
    RadialDtnTable,
    Z_ROWS_E1,
    difference_pairing,
    form_counts,
    interpolation_counts,
    pairing,
    polar_grid,
    symbol_memo,
    warm_tables,
)
from lame_edge.oracles import (_assemble, dtn_symbol, dtn_symbol_march, half_space_impedance,
                               limit_quadrature, truncation_depth)
from lame_edge.reconstruct import (_MIXED_DERIVATIVES, ProbeTemplate, _unit_profile,
                                   default_battery, run_ladder, serial_ladder_runner)
from lame_edge.stroh import impedance

E1 = (1.0, 0.0, 0.0)


def random_admissible(rng):
    mu = rng.uniform(0.3, 2.5)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.1, 2.5)
    return lam, mu


def random_profile(rng):
    # gentle slopes keep admissibility on [0, H_max]
    lam0, mu0 = random_admissible(rng)
    lam0 = abs(lam0) + 0.2
    s1 = rng.uniform(-0.1, 0.3)
    s2 = rng.uniform(-0.05, 0.3)
    return LameProfile.from_polynomial([lam0, s1], [mu0, s2])


class TestIntegrator:
    def test_linear_flow_and_nonfinite_refusal(self):
        rates = np.arange(1, 4)  # nodes with rates 1, 2, 3

        def decay(y, C, i, out):
            np.multiply(y, C[i], out=out)

        # a growing flow: no damping to weight by (rate 0) and no cap
        y, accepted, rejected, evaluations, capped = _dop853(
            lambda taus: np.broadcast_to(-rates, (taus.size, 3)), decay,
            1.0, 0.0, np.ones((4, 3)), 1e-10, np.zeros(3), np.empty((4, 3)))
        assert np.abs(y / np.exp(np.arange(1, 4)) - 1.0).max() <= 1e-9 and accepted > 0
        assert evaluations == 2 + 12 * accepted + 11 * rejected and capped == 0

        def blows_up(taus):  # a coefficient that turns infinite for tau <= 0.5
            return np.where(taus > 0.5, -1.0, np.inf)[:, None]

        with pytest.raises(ForwardError, match="step size"), np.errstate(invalid="ignore"):
            _dop853(blows_up, decay, 1.0, 0.0, np.ones((4, 3)), 1e-10, np.zeros(3),
                    np.empty((4, 3)))

    def test_damping_weights_and_stability_cap(self):
        # y' = rate (y - 1) contracts toward y = 1 at `rate` on the way to t = 0
        rates = np.array([5.0, 10.0, 20.0])
        steps = []

        def coefficients(taus):
            if taus.size == 12:  # an attempted step: t + C[1:12] h and t + h
                steps.append((taus[0] - taus[-1]) / (1.0 - _DOP_C[1]))
            return np.broadcast_to(rates, (taus.size, 3))

        def relax(y, C, i, out):
            np.multiply(y - 1.0, C[i], out=out)

        # an error that the flow damps is weighted by it: fewer steps, and the
        # surface value still within the tolerance
        exact = 1.0 + np.exp(-rates)
        unweighted, weighted = (_dop853(coefficients, relax, 1.0, 0.0, np.full((4, 3), 2.0),
                                        1e-10, r, np.empty((4, 3))) for r in (np.zeros(3), rates))
        assert weighted[1] < unweighted[1]
        assert np.abs(weighted[0] - exact).max() <= 1e-10
        # on the fixed point the error estimate is 0, so only the cap limits the
        # step: half of DOP853's stability interval over the largest rate
        steps.clear()
        y, accepted, rejected, evaluations, capped = _dop853(
            coefficients, relax, 1.0, 0.0, np.ones((4, 3)), 1e-10, rates, np.empty((4, 3)))
        cap = 0.5 * _DOP_STABILITY / rates.max()
        assert np.all(y == 1.0) and len(steps) == accepted
        assert max(steps) <= cap * (1.0 + 1e-12)
        assert capped == sum(math.isclose(h, cap, rel_tol=1e-12) for h in steps) >= 4


def reference_terms(profile, nodes, tau, y):
    """The terms of c times the module docstring's flow at y3 = tau H, one
    list per row, written out plainly."""
    H_max, efolds = H_MAX, EFOLDS
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
    """What the Riccati core hands to its integrator: coefficients, flow,
    initial state, rates and stage buffer, by name."""
    seen = {}

    def capture(coefficients, flow, t0, t1, y0, tol, rate, stage):
        seen.update(coefficients=coefficients, flow=flow, y0=y0, rate=rate, stage=stage)
        return y0, 0, 0, 0, 0

    with mock.patch("lame_edge.forward._dop853", capture):
        _radial_symbols([(profile, nodes)], 1e-10)
    return seen


# an elementwise lam and a mu that returns a scalar, which the kernel broadcasts
WAVY = LameProfile(lambda y, o: 1.0 + 0.2 * np.sin(y) if o == 0 else 0.2 * np.cos(y),
                   lambda y, o: 1.5 if o == 0 else 0.0, max_derivative_order=1)


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
            assume(validate_admissibility(profile, H_MAX).passed)
        rng = np.random.default_rng(seed)
        nodes = np.sort(rng.uniform(0.0, 40.0, 9))  # both depth regimes
        taus = rng.uniform(0.0, 1.0, 12)
        kernel = kernel_of(profile, nodes)
        C, flow = kernel["coefficients"](taus), kernel["flow"]
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
        # first 48 Chebyshev points in [0.25, 1000], both depth regimes, and
        # log-spaced ones up to 1e6. Steps inside the stability interval damp
        # the rounding offsets of the initial state, so the drift is rounding
        theta = (2.0 * np.arange(48) + 1.0) * (np.pi / 96)
        radii = 2.0 * np.tan(0.5 * theta) ** 2
        radii = np.r_[radii[(radii >= 0.25) & (radii <= 1000.0)], np.geomspace(0.25, 1e6, 25)]
        z0 = mu / (lam + 3.0 * mu) * (lam * Z_ROWS_E1[0] + mu * Z_ROWS_E1[1])
        (rows,), *_ = _radial_symbols([(LameProfile.constant(lam, mu), radii)], 1e-10)
        assert np.abs(rows / radii[:, None] - z0).max() <= 1e-13 * np.abs(z0).max()

    def test_stability_interval(self):
        # the cap's constant is where |R(z)| = 1 on the negative real axis, R the
        # stability function 1 + z B (I - z A)^-1 1 of the tableau; inside it |R| < 1
        def R(z):
            return 1.0 + z * _DOP_B @ np.linalg.solve(np.eye(12) - z * _DOP_A, np.ones(12))

        lo, hi = -7.0, -6.0  # |R(-7)| > 1 > |R(-6)|
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if abs(R(mid)) > 1.0 else (lo, mid)
        assert abs(hi + _DOP_STABILITY) <= 1e-3
        assert all(abs(R(z)) < 1.0 for z in np.linspace(-0.999 * _DOP_STABILITY, -0.01, 200))

    @pytest.mark.parametrize("lam", [-0.66, 1.0, 20.0, 1e4])
    def test_perturbation_reaches_surface_damped(self, lam):
        # the weighting's assumption: a perturbation delta of the state at tau0
        # reaches the surface at most 2.5 exp(-kappa tau0) |delta|, kappa = |k| H
        # (half the rate; |.| the Frobenius norm of the 3x3 symbol). The factor
        # is the double eigenvalue's: 1.0 at lam/mu = 1, 2.1 at 20 and 2.46 as
        # lam/mu grows without bound. Both depth regimes, every direction
        nodes = np.array([0.3, 2.0, 6.9, 7.2, 40.0, 1000.0])
        H = np.where(nodes > EFOLDS / H_MAX, EFOLDS / nodes, H_MAX)
        kernel = kernel_of(LameProfile.constant(lam, 1.0), nodes)
        kappa = nodes * H
        np.testing.assert_allclose(kernel["rate"], 2.0 * kappa, rtol=1e-14)
        fixed = kernel["y0"]  # the fixed point of a constant profile's flow
        w = np.array([1.0, 1.0, 1.0, math.sqrt(2.0)])  # b counts twice
        frobenius = (w[:, None] / w)[..., None]  # P in that norm: diag(w) P diag(w)^-1
        for tau0 in np.linspace(0.02, 0.6, 30):
            def surface(y):
                return _dop853(kernel["coefficients"], kernel["flow"], tau0, 0.0, y, 1e-13,
                               kernel["rate"], kernel["stage"])[0]

            base, delta = surface(fixed), 1e-5 * np.abs(fixed).max(axis=0)
            # the propagator's columns, one component perturbed at a time
            P = np.stack([(surface(fixed + delta * e[:, None]) - base) / delta
                          for e in np.eye(4)], axis=1)  # (4, 4, node)
            gain = np.linalg.norm(np.moveaxis(frobenius * P, -1, 0), 2, axis=(1, 2))
            assert np.all(gain <= 2.5 * np.exp(-kappa * tau0))

    @settings(max_examples=8, deadline=None)
    @given(t=st.floats(0.1, 10.0))
    def test_moduli_scaling(self, t):
        # Z(t lam, t mu) = t Z carries over to the symbol: S -> t S solves the
        # flow with (t lam, t mu); the integrator only meets it within tolerance
        tol, base = 1e-10, [[1.0, 0.3, -0.05], [1.0, 0.2, 0.04]]
        nodes = np.linspace(0.25, 40.0, 24)
        (rows,), *_ = _radial_symbols([(LameProfile.from_polynomial(*base), nodes)], tol)
        (scaled,), *_ = _radial_symbols(
            [(LameProfile.from_polynomial(*(t * np.array(base))), nodes)], tol)
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
            Z = impedance(lam, mu, (np.cos(th), np.sin(th), 0.0))
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
            M = dtn_symbol(prof, k)
            M_inf = half_space_impedance(lam, mu, k)
            assert np.abs(M - M_inf).max() <= 1e-8 * np.abs(M_inf).max()

    def test_hermitian_positive_variable_profile(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        M = dtn_symbol(prof, (8.0, 0.0))
        assert np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min() > 0.0

    def test_riccati_vs_subspace_march(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            prof = random_profile(rng)
            # log-uniform over both bands: physical depth (|k| <= efolds/H_max = 7)
            # and scaled depth
            kn = np.exp(rng.uniform(np.log(0.5), np.log(300.0)))
            th = rng.uniform(0, 2 * np.pi)
            k = kn * np.array([np.cos(th), np.sin(th)])
            M1 = dtn_symbol(prof, k)
            M2 = dtn_symbol_march(prof, k, n_steps=900)
            assert np.abs(M1 - M2).max() <= 1e-6 * np.abs(M1).max()

    def test_zero_frequency(self):
        prof = LameProfile.constant(1.0, 1.0)
        assert np.all(dtn_symbol(prof, (0.0, 0.0)) == 0.0)

    def test_inadmissible_profile_rejected(self):
        prof = LameProfile.from_polynomial([1.0], [1.0, -1.0])
        with pytest.raises(ForwardError, match="inadmissible"):
            dtn_symbol(prof, (3.0, 0.0))

    def test_truncation_depth_policy(self):
        assert truncation_depth((100.0, 0.0)) == pytest.approx(0.14)
        assert truncation_depth((1.0, 0.0)) == pytest.approx(2.0)


LADDER = (16, 32, 64, 128, 256)


RADII = np.linspace(0.0, 60.0, 241)
moduli = st.tuples(st.floats(0.2, 3.0), st.floats(-7.0, 1.5)).map(
    lambda x: (x[0] * (-2.0 / 3.0 + 10.0 ** x[1]), x[0])  # lam/mu down to -2/3 + 1e-7
)
slopes = st.floats(-0.4, 0.4)


def _exponential(c, rate):
    """1 + c exp(-rate y3) with its exact order-o derivatives."""
    return lambda y, o=0: float(o == 0) + c * (-rate) ** o * np.exp(-rate * y)


# needs 144 points; its order-2 truncation (3 - 40 y3, 2 - 30 y3) is inadmissible
STEEP = LameProfile(_exponential(2.0, 20.0), _exponential(1.0, 30.0))


def symbol_of(profile):
    """The profile's own symbol, as its ladders read it from the memo."""
    (symbol,), = warm_tables((profile,))
    return symbol


class TestRadialTable:
    """The radial symbol: one certified Chebyshev interpolant per profile."""

    def test_table_matches_direct_solves(self):
        # the interpolant against one-node solves at the ladder's radii, both bands
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        sym = symbol_of(prof)
        radii = np.concatenate([polar_grid(n, 4, GaussianCutoff(), QuadratureSettings()).r
                                for n in LADDER])
        for r in radii[::40]:
            Md = dtn_symbol(prof, (r, 0.0))
            Mt = _assemble(sym.rows(r))
            assert np.abs(Md - Mt).max() <= 1e-8 * max(np.abs(Md).max(), 1e-3)

    def test_rotation_equivariance(self):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        ks = ((30.0, 40.0), (-5.0, 2.0), (60.0, -80.0))
        sym = symbol_of(prof)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in ks:
            direct = dtn_symbol(prof, k)
            fd = complex(np.einsum("ij,i,j->", direct, a.conj(), a))
            c, s = np.array(k) / np.hypot(*k)
            ft = sym.rows(np.hypot(*k)) @ np.array(_probe_coefficients(a, E1)) @ _harmonics(c, s)
            assert abs(fd - ft) <= 1e-8 * abs(fd)

    def test_narrow_dip_between_samples_rejected(self):
        # mu < 0 only within 3.2e-4 of y3 = 1, the midpoint between samples 255
        # and 256 of a 512-point grid on [0, 2]; the exact check still sees it
        prof = LameProfile.from_polynomial([1.0], [1e4 - 1e-3, -2e4, 1e4])
        with pytest.raises(ForwardError, match="inadmissible"):
            symbol_of(prof)

    def test_nodes_sorted_and_distinct(self):
        # first-kind Chebyshev points in s, ascending in (0, 1); a refinement
        # triples them, and the solved points are every third of the new set
        (sym,), solves = _resolve((STEEP,), 1e-10)
        assert [n for n, *_ in solves] == [48, 96]
        assert sym.s.size == 144 and 0.0 < sym.s[0] and sym.s[-1] < 1.0
        assert np.all(np.diff(sym.s) > 0.0)
        np.testing.assert_allclose(sym.s[1::3], symbol_of(GRAD).s, rtol=1e-14)
        assert symbol_of(LameProfile.constant(1.0, 1.0)).s is None

    def test_steps_sized_for_the_weight_ahead(self):
        # the damping weights grow toward the surface: steps sized for the
        # weight at their own end failed every other attempt there (4 of 19)
        symbol_memo.clear()
        before = dict(symbol_memo.counts)
        symbol_of(GRAD)
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        assert (delta["riccati_solves"], delta["steps_accepted"], delta["steps_rejected"]) == (
            1, 16, 0)

    def test_table_build_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on first use, inside the first timed pass
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from lame_edge.elastic import LameProfile; "
                "from lame_edge.forward import warm_tables; "
                "prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2]); "
                "warm_tables((prof,), m=1); "
                "print('numpy.ma' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_out_of_range_rejected(self):
        # a symbol whose Chebyshev tail stays above the tolerance at the cap is
        # refused, never accepted; a resolved one answers at every r >= 0; the
        # joint solve under it takes radii in [0, k_max] only
        symbol_memo.clear()
        with mock.patch("lame_edge.forward._MAX_POINTS", 48):
            with pytest.raises(ForwardError, match="not resolved"):
                symbol_of(STEEP)
        rows = symbol_of(GRAD).rows(np.array([0.0, 5.5, 50.0, 1e6]))
        assert np.all(np.isfinite(rows)) and np.abs(rows[0]).max() <= 1e-10
        with pytest.raises(ValueError, match="k_max"):
            RadialDtnTable(GRAD, 10.0, [1.0, 50.0])

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-8, 1e-6, 1e-5, 3e-5, 1e-4])
    def test_weak_gradient_resolved_at_48_points(self, c):
        # lam = 1 + c y: the remainder R = M0 - r Z0 is small, so any drift of
        # the integrated r Z0 shows in its Chebyshev tail and forces refinement
        prof = LameProfile.from_polynomial([1.0, c], [1.0])
        symbol_memo.clear()
        before = symbol_memo.counts["riccati_solves"]
        sym = symbol_of(prof)
        assert sym.s.size == 48 and symbol_memo.counts["riccati_solves"] == before + 1
        radii = np.array([0.5, 3.0, 6.9, 7.5, 40.0, 300.0, 5000.0])
        rows = sym.rows(radii)
        direct = np.array([dtn_symbol(prof, (r, 0.0)) for r in radii])
        scale = np.maximum(np.abs(rows).max(axis=1), np.abs(sym.z0).max())
        assert np.all(np.abs(_assemble(rows) - direct).max(axis=(1, 2)) <= 2e-10 * scale)

    @settings(max_examples=12, deadline=None)
    @given(moduli, st.lists(slopes, min_size=6, max_size=6),
           st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=8))
    def test_interpolant_within_tolerance_of_direct_solves(self, lm, c, radii):
        # admissible polynomials of degree <= 3 at radii in [0, 5000]: per node,
        # relative to the row scale max(|rows(r)|, |Z0|)
        prof = LameProfile.from_polynomial([lm[0], *c[:3]], [lm[1], *c[3:]])
        assume(validate_admissibility(prof, H_MAX).passed)
        sym = symbol_of(prof)
        r = np.array(radii)
        (direct,), *_ = _radial_symbols([(prof, r)], 1e-12)
        rows = sym.rows(r)
        scale = np.maximum(np.abs(rows).max(axis=1), np.abs(sym.z0).max())
        assert np.all(np.abs(rows - direct).max(axis=1) <= 2e-10 * scale)


class TestReducedCore:
    """Structure of M0(r) = M(r e1): SH scalar plus Hermitian P-SV block."""

    @settings(max_examples=12, deadline=None)
    @given(moduli, slopes, slopes, slopes, slopes)
    # draws that were refused (remainder tail above tolerance at 1296 points)
    # while step control let rounding offsets drift near 0.1 riccati_tol
    @example(lm=(0.5202526666666668, 1.560758), l1=0.0, l2=0.0, m1=0.0, m2=1.2e-47)
    @example(lm=(9.333333333333334, 1.0), l1=0.0, l2=0.0, m1=0.0, m2=4.145499387373135e-129)
    @example(lm=(0.16666666666666669, 0.5), l1=1.192092896e-07, l2=0.0, m1=0.0, m2=0.0)
    def test_decoupled_hermitian_positive_definite(self, lm, l1, l2, m1, m2):
        lam0, mu0 = lm
        prof = LameProfile.from_polynomial([lam0, l1, l2], [mu0, m1, m2])
        assume(validate_admissibility(prof, H_MAX).passed)
        sym = symbol_of(prof)
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
        rows = symbol_of(LameProfile.constant(*lm)).rows(RADII)
        exact = RADII[:, None, None] * impedance(*lm, E1)
        assert np.abs(_assemble(rows) - exact).max() <= 1e-9 * np.abs(exact).max()

    @settings(max_examples=12, deadline=None)
    @given(moduli, st.lists(slopes, min_size=4, max_size=4))
    # mu falls to 2.5e-4 at H_max: the frozen impedance drifts faster than |k|
    # there, and the state lags it (the rate the weights assume is lowered)
    @example(lm=(2.8158391035615677, 0.292980963069884),
             c=[0.01745492548237504, 0.28197404993181874, 0.39751831171588736, -0.2719408613206077])
    # gently graded mu: two steps next to the surface left 1.05e-11 there when
    # each was held to the whole tolerance
    @example(lm=(0.5416666666666667, 1.625), c=[0.0, 0.0, 0.0546875, 0.0])
    def test_every_node_within_tolerance_at_the_surface(self, lm, c):
        # admissible quadratics against a tol-1e-13 solve, per node and relative
        # to its row scale, at the Chebyshev radii of a 144-point symbol (both
        # depth regimes) and radii up to 5000: 0.1 riccati_tol, though deep
        # errors are weighted by their damping
        prof = LameProfile.from_polynomial([lm[0], *c[:2]], [lm[1], *c[2:]])
        assume(validate_admissibility(prof, H_MAX).passed)
        assert surface_error(prof) <= 0.1 * 1e-10

    @pytest.mark.parametrize("prof", [WAVY, STEEP] + [LameProfile.from_polynomial(
        [r, 0.3 * (1.0 + abs(r)), -0.1], [1.0, 0.2, 0.1]) for r in (-0.66, 1.0, 20.0, 200.0)],
        ids=["wavy", "steep", "lam0=-0.66", "lam0=1.0", "lam0=20.0", "lam0=200.0"])
    def test_every_node_within_tolerance_at_the_surface_examples(self, prof):
        assert surface_error(prof) <= 0.1 * 1e-10

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
        (rows,), *_ = _radial_symbols([(LameProfile.constant(*lm), radii)], tol)
        exact = radii[:, None, None] * impedance(*lm, E1)
        err = np.abs(_assemble(rows) - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
        assert err.max() <= 2.0 * tol


def surface_error(profile, tol=1e-10) -> float:
    """Largest per-node error of the core at ``tol`` against a tol-1e-13 solve,
    relative to the node's row scale."""
    theta = (2.0 * np.arange(144) + 1.0) * (np.pi / 288)
    radii = np.r_[2.0 * np.tan(0.5 * theta) ** 2, 6.99, 7.0, 7.01, np.linspace(10.0, 5000.0, 12)]
    (rows,), *_ = _radial_symbols([(profile, radii)], tol)
    (reference,), *_ = _radial_symbols([(profile, radii)], 1e-13)
    return float((np.abs(rows - reference).max(axis=1) / np.abs(reference).max(axis=1)).max())


# rows of the one-profile core and remainders of the symbol, as the core gave
# them alone (pinned anew when the step control changes): (row index,
# (M11, M22, M33, Im M13) as float.hex)
PINNED_DIRECT = {  # at radii (0.5, 7.0, 40.0, 1000.0), tol 1e-10
    "grad": {0: ("0x1.ad13861c9c45ep-1", "0x1.2a54076b9d889p-1", "0x1.e7a715deaf533p-1",
                 "-0x1.1433189218d3dp-2"),
             3: ("0x1.7706ccb711b8ep+10", "0x1.f40ccca2dd873p+9", "0x1.7713993a7dc5ap+10",
                 "-0x1.f3fe66a857a9ap+8")},
    "steep": {0: ("0x1.93a9d5ba115c6p-1", "0x1.070bf91bbd1e5p-1", "0x1.841b0d38df79dp-1",
                  "-0x1.0320b353beafdp-2"),
              2: ("0x1.c13aee8ef8094p+6", "0x1.125484a9ca87dp+6", "0x1.7624af3f8930dp+6",
                  "-0x1.12b2167379901p+5")},
}
PINNED_REMAINDER = {
    "grad": {0: ("0x1.5dce727f73434p-12", "0x1.c0b7af2fed7ecp-13", "0x1.5e565b36a2dc0p-12",
                 "-0x1.8a817b387964cp-14"),
             24: ("0x1.a94fb8e005ae0p-4", "0x1.90bd2d350cee0p-4", "0x1.2f742d967d838p-2",
                  "0x1.2018ccd260000p-8")},
    "steep": {72: ("-0x1.5c8ff48adaff4p+1", "-0x1.d49620b0043e4p+0", "-0x1.94d9997bc833fp+1",
                   "0x1.764df0189d85ep-1"),
              143: ("-0x1.f5a43d2900000p+3", "-0x1.dfeb707f84000p+3", "-0x1.87fc430ff0000p+5",
                    "-0x1.2bd525aaf0000p+1")},
}
TRIO = [LameProfile.from_polynomial([1.1, 1.0], [0.9]), LameProfile.from_polynomial([1.1], [0.9, 1.0]),
        LameProfile.from_polynomial([1.1, 0.4], [0.9, 0.5])]
QUADRATIC = LameProfile.from_polynomial([1.0, 0.3, -0.1], [1.0, 0.2, 0.15])
# multi-part batches at the radii of PINNED_DIRECT: a quadratic profile with its
# linear truncation (a sweep profile's group) and the three linear parts of the
# calibration trio's shape; their step counts, then every row of each part
PINNED_BATCH = {
    "quadratic": ((41, 0, 494, 0), (
        (("0x1.c2a885131cc7fp-1", "0x1.4f0d97479efafp-1",
          "0x1.24eb9a77b3eacp+0", "-0x1.2da0afc03867ap-2"),
         ("0x1.53a225f4b101bp+3", "0x1.c70535098293ep+2",
          "0x1.5b42ff44b00a7p+3", "-0x1.be4a7c8947d98p+1"),
         ("0x1.e0dc59ada843dp+5", "0x1.40d05da594916p+5",
          "0x1.e2844d2f72190p+5", "-0x1.3fe0cfc7d7771p+4"),
         ("0x1.7706cdb00629ep+10", "0x1.f40ccf17e292ap+9",
          "0x1.77139f1d5aaf4p+10", "-0x1.f3fe62c4c91e7p+8")),
        (("0x1.ad13861c9c59fp-1", "0x1.2a54076b9d887p-1",
          "0x1.e7a715deaf5d1p-1", "-0x1.1433189218a9fp-2"),
         ("0x1.5360898d1590cp+3", "0x1.c65b0474fbc1fp+2",
          "0x1.59b34c809c9f1p+3", "-0x1.bf447901dd02bp+1"),
         ("0x1.e0d956174b6bcp+5", "0x1.40cc8b96d249dp+5",
          "0x1.e2720c0c0fbb6p+5", "-0x1.3fe6cc4c8230bp+4"),
         ("0x1.7706ccb711b8fp+10", "0x1.f40ccca2dd875p+9",
          "0x1.7713993a7dc56p+10", "-0x1.f3fe66a857a9ep+8")))),
    "trio": ((26, 0, 314, 0), (
        (("0x1.71c32f0e5154bp-1", "0x1.ccccccccccccdp-2",
          "0x1.71c32f0e5154ap-1", "-0x1.6c2676f9ede03p-3"),
         ("0x1.356d69ddd536dp+3", "0x1.9333333333333p+2",
          "0x1.356d69ddd536bp+3", "-0x1.7717255577f1dp+1"),
         ("0x1.b8063aa38aac4p+5", "0x1.2000000000000p+5",
          "0x1.b8063aa38aac0p+5", "-0x1.0ff38ab8eaa83p+4"),
         ("0x1.576f60df8429ep+10", "0x1.c1fffffffffffp+9",
          "0x1.576f60df8429ep+10", "-0x1.aa427c81ef592p+8")),
        (("0x1.04a3e79a127dcp+0", "0x1.a0d68beb38419p-1",
          "0x1.7a700cfdc3ab7p+0", "-0x1.7bf7d215eb839p-2"),
         ("0x1.414e227570152p+3", "0x1.b217f762680d3p+2",
          "0x1.604a9ae73b95cp+3", "-0x1.8552eac1202c2p+1"),
         ("0x1.bb1b3f6567962p+5", "0x1.23f9140c0ebaep+5",
          "0x1.c3642283bc2a4p+5", "-0x1.116644e2aaa89p+4"),
         ("0x1.578846bf3a9dbp+10", "0x1.c23ffb7435358p+9",
          "0x1.57cb9981ad4b4p+10", "-0x1.aa582e4331220p+8")),
        (("0x1.c207bb34816c0p-1", "0x1.4a10897eea05bp-1",
          "0x1.270a1da265cf6p+0", "-0x1.17214e154b13fp-2"),
         ("0x1.3b632ebae900ap+3", "0x1.a2e7b0c307497p+2",
          "0x1.4b9abfd6a6d6fp+3", "-0x1.7db14311dbf23p+1"),
         ("0x1.b988283aeeb1ap+5", "0x1.21fe3f1397657p+5",
          "0x1.bdb66fe017d5ep+5", "-0x1.10bac0f2fe2aap+4"),
         ("0x1.577b78e5c1311p+10", "0x1.c21ffedce3fc1p+9",
          "0x1.579d25929071ap+10", "-0x1.aa4ebec029f84p+8")))),
}


class TestSymbolGroups:
    """Profiles integrated as one batch on one step sequence, and a batch of one."""

    @pytest.mark.parametrize("name", ["grad", "steep"])
    def test_batch_of_one_keeps_its_bits(self, name):
        prof = {"grad": GRAD, "steep": STEEP}[name]
        radii = np.array([0.5, 7.0, 40.0, 1000.0])
        (rows,), *_ = _radial_symbols([(prof, radii)], 1e-10)
        for i, row in PINNED_DIRECT[name].items():
            assert [v.hex() for v in rows[i]] == list(row)
        remainder = symbol_of(prof).remainder
        for i, row in PINNED_REMAINDER[name].items():
            assert [v.hex() for v in remainder[i]] == list(row)

    @pytest.mark.parametrize("name", ["quadratic", "trio"])
    def test_batch_keeps_its_bits(self, name):
        parts = {"quadratic": [QUADRATIC, taylor_truncate(QUADRATIC, 2)], "trio": TRIO}[name]
        radii = np.array([0.5, 7.0, 40.0, 1000.0])
        rows, *counts = _radial_symbols([(p, radii) for p in parts], 1e-10)
        steps, pinned = PINNED_BATCH[name]
        assert tuple(counts) == steps
        assert [[[v.hex() for v in row] for row in part] for part in rows] == [
            [list(row) for row in part] for part in pinned]

    def test_members_within_tolerance_of_solo_solves(self):
        # a batch of three shares the step sequence that its hardest node sets:
        # every node of every part still meets riccati_tol at the surface, per
        # node and relative to its row scale, against a tol-1e-13 solve alone
        tol = 1e-10
        theta = (2.0 * np.arange(48) + 1.0) * (np.pi / 96)
        radii = np.r_[2.0 * np.tan(0.5 * theta) ** 2, 6.99, 7.0, 7.01, 300.0, 5000.0]
        profiles = [TRIO[0], STEEP, WAVY]
        joint, *_ = _radial_symbols([(p, radii) for p in profiles], tol)
        for prof, rows in zip(profiles, joint):
            (reference,), *_ = _radial_symbols([(prof, radii)], 1e-13)
            err = np.abs(rows - reference).max(axis=1) / np.abs(reference).max(axis=1)
            assert err.max() <= tol

    def test_group_is_one_integration_per_round(self):
        members, solves = _resolve(TRIO + [LameProfile.constant(1.1, 0.9)], 1e-10)
        assert [n for n, *_ in solves] == [3 * 48]
        assert [m.s.size for m in members[:3]] == [48] * 3 and members[3].s is None
        # a member that needs a second round takes it alone
        members, solves = _resolve([GRAD, STEEP], 1e-10)
        assert [n for n, *_ in solves] == [2 * 48, 96]
        assert (members[0].s.size, members[1].s.size) == (48, 144)

    def test_memo_keys_groups_by_request(self):
        # an entry holds each requested profile's symbols by order: a linear
        # profile's order-2 truncation is the profile, and the trio's one
        # shared constant order-1 truncation is exact
        symbol_memo.clear()
        before, built = dict(symbol_memo.counts), len(symbol_memo.accepted)
        group = symbol_memo.group(TRIO, 1e-10)
        assert symbol_memo.group(TRIO, 1e-10) is group
        assert all(ladder[2] is ladder[0] and ladder[0].s.size == 48 for ladder in group)
        assert group[0][1] is group[1][1] is group[2][1] and group[0][1].s is None
        alone, = symbol_memo.group(TRIO[:1], 1e-10)
        assert alone[0] is not group[0][0]
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        assert (delta["riccati_solves"], sum(symbol_memo.accepted[built:]), delta["memo_hits"]) == (
            2, 4 * 48, 1)
        assert delta["exact_constants"] == 2

    @pytest.mark.parametrize("m", [3, -1])
    def test_order_refused_before_any_integration(self, m):
        # the entry holds orders 0 to 2 only; a negative m would index from its end
        prof = LameProfile.from_polynomial([1.0, 0.3, -0.1], [1.0, 0.2, 0.15])
        symbol_memo.clear()
        before = dict(symbol_memo.counts)
        with pytest.raises(ValueError, match=f"derivatives to order 2, got m = {m}"):
            warm_tables((prof,), m=m)
        assert dict(symbol_memo.counts) == before

    def test_hit_rebuilds_no_truncation(self, monkeypatch):
        # after the first lookup, a lookup at any order is one memo read: no
        # truncation is built or checked, and none is kept on the profile
        import lame_edge.forward as forward

        prof = LameProfile.from_polynomial([1.0, 0.3, -0.1], [1.0, 0.2, 0.15])
        first = [warm_tables((prof,), m=m) for m in (0, 1, 2)]
        calls = []
        for name in ("taylor_truncate", "validate_admissibility"):
            original = getattr(forward, name)
            monkeypatch.setattr(forward, name, lambda *args, name=name, original=original,
                                **kw: calls.append(name) or original(*args, **kw))
        hits = symbol_memo.counts["memo_hits"]
        assert [warm_tables((prof,), m=m) for m in (0, 1, 2)] == first
        assert calls == [] and symbol_memo.counts["memo_hits"] == hits + 3
        assert not hasattr(prof, "truncations")

    @pytest.mark.parametrize("name, decided", [("quadratic", 3), ("trio", 4), ("linear", 2)])
    def test_miss_decides_each_member_once(self, monkeypatch, name, decided):
        # the quadratic profile and its constant and linear truncations; the trio
        # and its one shared constant truncation (each one's order-2 truncation
        # is itself); GRAD and its constant truncation
        import lame_edge.forward as forward

        profiles = {"quadratic": [QUADRATIC], "trio": TRIO, "linear": [GRAD]}[name]
        calls = []
        original = forward.validate_admissibility
        monkeypatch.setattr(forward, "validate_admissibility",
                            lambda *args, **kw: calls.append(args[0]) or original(*args, **kw))
        symbol_memo.clear()
        symbol_memo.group(profiles, 1e-10)
        assert len(calls) == decided
        assert len({p.content for p in calls}) == decided

    def test_memo_keys_tell_derivative_orders_apart(self):
        # the same coefficients carried to order 1, then to order 2: the second
        # request integrates its own group, which holds the linear order-2
        # truncation (the first holds only the constant order-1 one)
        lam, mu = [1.0, 0.3, -0.1], [1.0, 0.2, 0.15]
        symbol_memo.clear()
        before, built = dict(symbol_memo.counts), len(symbol_memo.accepted)
        (low,) = warm_tables((LameProfile.from_polynomial(lam, mu, max_derivative_order=1),), m=1)
        assert low[1].s is None
        (high,) = warm_tables((LameProfile.from_polynomial(lam, mu, max_derivative_order=2),), m=2)
        assert high[1].s.size == 48 and high[0] is not low[0]
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        assert (delta["riccati_solves"], sum(symbol_memo.accepted[built:]), delta["memo_hits"]) == (
            2, 48 + 96, 0)


@pytest.fixture(scope="module")
def gauss():
    return GaussianCutoff()


class TestPairing:
    def test_zero_amplitude(self, gauss):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.zeros(3), E1, 32, 4, 0, gauss)
        assert pairing(prof, probe) == 0.0

    def test_homogeneous_limit_direction(self, gauss):
        # raw value at N = 256 approaches the impedance form from above
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 256, 4, 0, gauss)
        val = pairing(prof, probe)
        assert 1.5 < val < 1.5 * 1.25

    def test_equal_slot_real_positive(self, gauss):
        rng = np.random.default_rng(6)
        for trial in range(8):
            prof = random_profile(rng)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            th = rng.uniform(0, 2 * np.pi)
            probe = ProbeSpec(a, (np.cos(th), np.sin(th), 0.0), 32, 4, 0, gauss)
            res = pairing(prof, probe)
            assert type(res) is float and res > 0.0

    def test_narrow_width_scales_until_its_grid_is_refused(self):
        # a narrow Gaussian's pairing scales like 1/sigma while the grid's
        # squared radii stay finite; one decade narrower they overflow, where
        # the values fell off 1/sigma (0.611 / sigma at 1e-153, 0 at 1e-160)
        prof = LameProfile.constant(2.0, 1.0)

        def scaled(sigma):
            probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 16, 4, 0, GaussianCutoff(sigma))
            return sigma * pairing(prof, probe)

        assert scaled(1e-152) == pytest.approx(scaled(1e-10), rel=1e-9)
        with pytest.raises(ForwardError, match="sigma = 1e-153 takes the N = 16, rho_tilde = 4"):
            scaled(1e-153)

    def test_grid_refinement_stability(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 0, gauss)
        v1 = pairing(prof, probe, QuadratureSettings(nodes=96))
        v2 = pairing(prof, probe, QuadratureSettings(nodes=192))
        assert abs(v1 - v2) <= 1e-6 * abs(v1)

    def test_table_refinement_stability(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 0, gauss)
        v1 = pairing(prof, probe, QuadratureSettings())
        v2 = pairing(prof, probe, QuadratureSettings(riccati_tol=1e-12))
        assert abs(v1 - v2) <= 1e-9 * abs(v1)

    def test_bump_cutoff_pairing(self):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 32, 4, 0, BumpCutoff())
        res = pairing(prof, probe, QuadratureSettings(nodes=128, tail_tol=1e-6))
        assert type(res) is float and res > 0.0


GRAD = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
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
        reduced = rows @ np.array(_probe_coefficients(a, E1)) @ _harmonics(c, s)  # C(a)
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
        v0 = pairing(GRAD, ProbeSpec(a, omega, N, rt, 0, GAUSS))
        v1 = pairing(GRAD, ProbeSpec(rot @ a, rot @ omega, N, rt, 0, GAUSS))
        assert abs(v1 - v0) <= 1e-12 * abs(v0)

    def test_grid_memo_keys_cutoffs_by_identity(self):
        quad = QuadratureSettings()
        g = polar_grid(64, 4, GAUSS, quad)
        assert polar_grid(64, 4, GAUSS, QuadratureSettings()) is g
        assert not g.moments.flags.writeable and not g.r.flags.writeable
        assert polar_grid(64, 4, GaussianCutoff(), quad) is not g

    @pytest.mark.parametrize("cutoff, N, rho_tilde, rows, digest", [
        (GaussianCutoff(), 16, 4,  # full circle
         (("0x1.0882841e215a9p-27", "0x1.1778deac6d2e7p-40", "0x1.2747e4790bd47p-54"),
          ("0x1.e52883ff34372p-14", "0x1.920746755e8c5p-14", "0x1.dfda2e981fda9p-15"),
          ("0x1.12d785e12f1cep-41", "0x1.fa3684fa258a2p-42", "0x1.8c8bc28db578dp-42")),
         "5b1607afc5a0146703a7fc20898632c8ac0048800253dcd9aba7d7260743440e"),
        (GaussianCutoff(), 64, 4,  # wedge
         (("0x1.7a074b2c0293bp-30", "0x1.2a27bfd8133b5p-42", "0x1.d65116e2fbf57p-56"),
          ("0x1.5ed4e04f8a2a1p-15", "0x1.388d9279833dfp-15", "0x1.be4306a7fece1p-16"),
          ("0x1.f1ca9cb1226bdp-44", "0x1.d7dbb67cd86e2p-44", "0x1.922e19c01685cp-44")),
         "b4cda6502954bb8e97710cf22b8543a90f883a138b80eea3536c74b6a70e448a"),
        (BumpCutoff(), 256, 5,
         (("0x1.6f23d842e4fdap-27", "0x1.8f4bedc069e31p-36", "0x1.6793aa837a9b7p-46"),
          ("0x1.08eed59773267p-30", "0x1.9c8cee5761b9cp-32", "0x1.e965a7408a5f7p-33"),
          ("0x1.0eda0a0cc562bp-45", "0x1.c69caf1a95875p-47", "0x1.45d484b885448p-48")),
         "b5f9f9105eda9d1cd8b662215ac69811abe4d80b86e9c3e9a6b4535f3b12176b"),
    ], ids=["gaussian-16-4", "gaussian-64-4", "bump-256-5"])  # ids free of the pinned bits
    def test_grid_moments_keep_their_bits(self, cutoff, N, rho_tilde, rows, digest):
        # the (1, cos, cos 2) moments of radii 0, 95 and 191, and all 192 x 5 by digest
        moments = polar_grid(N, rho_tilde, cutoff, QuadratureSettings()).moments
        assert [[v.hex() for v in moments[i, [0, 1, 3]]] for i in (0, 95, 191)] == [
            list(row) for row in rows]
        assert hashlib.sha256(moments.tobytes()).hexdigest() == digest

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
            symbol_memo.group((LameProfile.constant(1.0 + i / 16, 1.0),), 1e-10)
        assert sweep() == cold
        assert polar_grid.cache_info().misses == 10 + 64 + 10

    def test_ladders_of_one_profile_share_one_solve(self):
        # the rho_tilde = 4 and 5 ladders, and the order-1 ladder, of one profile
        # read one symbol: the memo keys it by content and tolerance alone
        prof = LameProfile.from_polynomial([1.1, 0.3], [0.9, 0.2])
        symbol_memo.clear()
        before, built = dict(symbol_memo.counts), len(symbol_memo.accepted)
        for m, rt in ((0, 4), (0, 5), (1, 4)):
            run_ladder(prof, ProbeTemplate.named("e3", (1.0, 0.0)), LADDER, m,
                       cutoff=GAUSS, rho_tilde=rt)
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        assert (delta["riccati_solves"], delta["exact_constants"]) == (1, 1)
        assert sum(symbol_memo.accepted[built:]) == 48 and delta["memo_hits"] == 2

    def test_sweep_integrates_each_profile_once(self):
        # a quadratic profile's ladders of every order read one group: the
        # profile and its linear order-2 truncation in one integration, its
        # constant order-1 truncation exact; per template, as a sweep runs them,
        # with the same bits whichever order is asked for first
        profiles = [LameProfile.from_polynomial([1.5, 0.2, -0.05], [1.0, -0.1, 0.04]),
                    LameProfile.from_polynomial([1.3, -0.1, 0.08], [0.95, 0.15, -0.03])]

        def sweep(orders):
            symbol_memo.clear()
            before, built = dict(symbol_memo.counts), len(symbol_memo.accepted)
            bits = {(i, m, t.name): run_ladder(p, t, LADDER, m, cutoff=GAUSS).values.tobytes()
                    for i, p in enumerate(profiles) for m in orders for t in default_battery()}
            delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
            return bits, delta, symbol_memo.accepted[built:]

        ascending, delta, accepted = sweep((0, 1, 2))
        assert (delta["riccati_solves"], sum(accepted), delta["exact_constants"]) == (2, 192, 2)
        descending, delta, _ = sweep((2, 1, 0))
        assert descending == ascending and delta["riccati_solves"] == 2

    def test_inadmissible_truncation_refused_at_its_order_only(self):
        # mu = 1 - 0.6 y + 0.3 y^2 stays above 0.7 on [0, 2], its order-2
        # truncation 1 - 0.6 y does not: the group leaves that member out, so
        # the order-0 and order-1 ladders run and the order-2 one is refused
        prof = LameProfile.from_polynomial([1.0], [1.0, -0.6, 0.3])
        template = ProbeTemplate.named("e3", (1.0, 0.0))
        symbol_memo.clear()
        for m in (0, 1):
            run_ladder(prof, template, LADDER, m, cutoff=GAUSS)
        with pytest.raises(ForwardError, match="inadmissible"):
            run_ladder(prof, template, LADDER, 2, cutoff=GAUSS)


def unfolded_moments(N, rho_tilde, cutoff, quad) -> np.ndarray:
    """Angular moments of the polar grid on the full angular rule (the grid
    before the half-plane fold): every node of phi evaluated, on the grid's
    own Gauss-Legendre rule, since the fold is under test, not the rule."""
    rho = 1.0 / rho_tilde
    spread = cutoff.spectral_halfwidth(quad.tail_tol) * N ** (1.0 - rho)
    r_lo, r_hi = max(0.0, N - spread), N + spread
    x, w = gauss_legendre(2 * quad.nodes)
    r = 0.5 * (r_hi - r_lo) * x + 0.5 * (r_hi + r_lo)
    n_t = 2 * quad.nodes
    if spread >= N:
        phi, wt = -np.pi + 2.0 * np.pi * np.arange(n_t) / n_t, np.full(n_t, 2.0 * np.pi / n_t)
    else:
        half = 1.05 * math.asin(min(1.0, spread / N))
        xt, wwt = gauss_legendre(n_t)
        phi, wt = half * xt, half * wwt
    kappa = N ** (rho - 1.0) * np.sqrt(np.maximum(
        r[:, None] ** 2 + N**2 - 2.0 * N * r[:, None] * np.cos(phi), 0.0))
    weights = (N ** (2.0 * rho - 3.0) / (4.0 * np.pi**2) * np.abs(cutoff.fourier_radial(kappa)) ** 2
               * (0.5 * (r_hi - r_lo) * w * r)[:, None] * wt)
    return weights @ _harmonics(np.cos(phi), np.sin(phi))


class TestMomentForms:
    """A pairing is <C(a'), G> for the moment form G = rows^T F of its grid and
    symbols, on a grid folded onto phi in [0, pi]."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), complex_amplitudes, st.floats(-np.pi, np.pi),
           st.sampled_from([(32, 4), (4096, 3)]))  # full-circle and wedge grids
    def test_form_equals_elementwise_contraction(self, seed, a, theta, n_rt):
        grid = polar_grid(*n_rt, GAUSS, QuadratureSettings())
        rows = np.random.default_rng(seed).normal(size=(grid.r.size, 4))
        c, s = np.cos(theta), np.sin(theta)
        C = np.array(_probe_coefficients(a, (c, s)))  # C(R(theta)^T a)
        terms = rows[:, :, None] * grid.moments[:, None, :] * C  # (r, row, harmonic)
        direct = np.sum(rows * (grid.moments @ C.T))
        form = grid.contract((rows.T @ grid.moments)[None], [(a, (c, s))])[0, 0]
        assert abs(form - direct) <= 1e-14 * np.abs(terms).sum()

    @pytest.mark.parametrize("cutoff", [GAUSS, BumpCutoff()], ids=["gaussian", "bump"])
    @pytest.mark.parametrize("N, rho_tilde, nodes", [(16, 4, 96), (256, 4, 96), (32, 5, 24),
                                                     (2**20, 3, 96), (2**20, 3, 24)])
    def test_folded_grid_matches_full_rule(self, cutoff, N, rho_tilde, nodes):
        quad = QuadratureSettings(nodes=nodes)
        spread = cutoff.spectral_halfwidth(quad.tail_tol) * N ** (1.0 - 1.0 / rho_tilde)
        assert (spread >= N) == (N < 2**20)  # the full circle, then the wedge
        grid = polar_grid(N, rho_tilde, cutoff, quad)
        reference = unfolded_moments(N, rho_tilde, cutoff, quad)
        even, odd = [0, 1, 3], [2, 4]
        assert np.all(grid.moments[:, odd] == 0.0)
        assert np.abs(reference[:, odd]).max() <= 1e-15 * np.abs(reference[:, even]).max()
        scale = np.abs(reference[:, even]).max(axis=0)
        assert np.all(np.abs(grid.moments[:, even] - reference[:, even]) <= 1e-14 * scale)

    def test_forms_live_only_with_their_symbols(self):
        # the forms are keyed by the symbol objects, weakly: a symbol that
        # leaves the memo frees its forms, and no later symbol can read them
        grid = polar_grid(64, 4, GaussianCutoff(), QuadratureSettings())  # a fresh grid
        symbol_memo.clear()
        (symbols,) = warm_tables((LameProfile.from_polynomial([1.2, 0.1], [0.8, 0.05]),), m=1)
        built, reused = form_counts["built"], form_counts["reused"]
        G = grid.form(symbols)
        assert grid.form(symbols) is G and not G.flags.writeable
        assert grid.form(symbols[:1]) is not G
        assert (form_counts["built"] - built, form_counts["reused"] - reused) == (2, 1)
        assert len(grid.forms) == len(grid.difference_forms) == 1
        symbol_memo.clear()
        del symbols
        gc.collect()
        assert len(grid.forms) == len(grid.difference_forms) == 0

    def test_gradient_ladders_independent_of_order_and_history(self):
        # the gradient battery's order-0 and order-1 ladders, with fresh memos,
        # in battery order, reversed, and interleaved with another profile's
        profile = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        other = LameProfile.from_polynomial([1.4, -0.2, 0.05], [0.9, 0.1])
        cutoff = GaussianCutoff()
        plan = [(m, t) for m in (0, 1) for t in default_battery()]

        def run(order, interleave=False):
            polar_grid.cache_clear()
            symbol_memo.clear()
            out = {}
            for m, t in order:
                if interleave:
                    run_ladder(other, t, LADDER, m, cutoff=cutoff, rho_tilde=4)
                lr = run_ladder(profile, t, LADDER, m, cutoff=cutoff, rho_tilde=4)
                out[(m, t.name)] = lr.values.tobytes()
            return out

        first = run(plan)
        assert run(plan[::-1]) == first
        assert run(plan, interleave=True) == first


def pairing_bits(Ns, rho_tildes) -> dict:
    """Pairing and order-1 difference pairing of GRAD per rho_tilde and N, as
    exact hex strings."""
    a = np.array([0.4, -1.0j, 0.7])
    out = {}
    for rt in rho_tildes:
        for n in Ns:
            p = ProbeSpec(a, (0.6, 0.8, 0.0), n, rt, 1, GAUSS)
            out[f"{rt}/{n}"] = [pairing(GRAD, p).hex(), difference_pairing(GRAD, p).hex()]
    return out


class TestBatteryPath:
    """A group's battery of ladders is one computation: each member's N grids
    looked up and its moment forms stacked once, and every probe contracted
    with all of them in one product."""

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("profile", [GRAD, STEEP], ids=["grad", "steep"])
    def test_battery_equals_its_ladders_one_by_one(self, profile, m):
        # values, limits, flags and noise, bit for bit; and the values
        # equal each probe's own sum over its (4, 5) coefficients, the
        # contraction before batteries were batched. STEEP's order-2
        # truncation is inadmissible: both paths refuse it
        battery = default_battery(((1.0, 0.0), (0.6, 0.8)))
        rt = ProbeSpec.auto_rho_tilde(m, profile.holder_exponent)
        if profile is STEEP and m == 2:
            with pytest.raises(ForwardError, match="inadmissible"):
                serial_ladder_runner((profile,), battery, LADDER, m, GAUSS)
            with pytest.raises(ForwardError, match="inadmissible"):
                run_ladder(profile, battery[0], LADDER, m, cutoff=GAUSS)
            return
        (symbols,) = warm_tables((profile,), m=m)
        forms = np.stack([polar_grid(n, rt, GAUSS, DEFAULT_QUAD).form(symbols) for n in LADDER])
        (together,) = serial_ladder_runner((profile,), battery, LADDER, m, GAUSS)
        assert [lr.template for lr in together] == battery
        for t, lr in zip(battery, together):
            alone = run_ladder(profile, t, LADDER, m, cutoff=GAUSS)
            assert lr.values.tobytes() == alone.values.tobytes()
            assert lr.extrapolation == alone.extrapolation
            assert (lr.limit, lr.noise) == (alone.limit, alone.noise)
            own = np.sum(forms * _probe_coefficients(t.a, t.omega), axis=(-2, -1))
            assert lr.values.tobytes() == (np.array(LADDER) ** m * own.astype(complex)).tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    def test_group_equals_each_members_own_sums(self, m):
        # the calibration's group: three profiles with unit and mixed order-m
        # derivatives at one base, one Riccati integration for all three per
        # Chebyshev round (at m = 2 the mu profile takes a second round), their
        # shared truncation exact; each member's values are, bit for bit, each
        # probe's own sum over that member's forms
        profiles = [_unit_profile((1.2, 0.9), m, *d)
                    for d in ((1.0, 0.0), (0.0, 1.0), _MIXED_DERIVATIVES)]
        battery = default_battery(((1.0, 0.0), (0.6, 0.8)))
        rt = ProbeSpec.auto_rho_tilde(m, profiles[0].holder_exponent)
        symbol_memo.clear()
        before, built = dict(symbol_memo.counts), len(symbol_memo.accepted)
        group = serial_ladder_runner(profiles, battery, LADDER, m, GAUSS)
        delta = {k: v - before[k] for k, v in symbol_memo.counts.items()}
        # the hardest member's points, 48 3^k after k triplings, set the rounds
        rounds = 1 + round(math.log(max(symbol_memo.accepted[built:]) / 48, 3))
        assert (delta["riccati_solves"], delta["exact_constants"]) == (rounds, 1)
        assert rounds == m
        assert [[lr.template for lr in ladders] for ladders in group] == [battery] * 3
        for symbols, ladders in zip(warm_tables(profiles, m=m), group):
            forms = np.stack([polar_grid(n, rt, GAUSS, DEFAULT_QUAD).form(symbols)
                              for n in LADDER])
            for t, lr in zip(battery, ladders):
                own = np.sum(forms * _probe_coefficients(t.a, t.omega), axis=(-2, -1))
                assert lr.values.tobytes() == (
                    np.array(LADDER) ** m * own.astype(complex)).tobytes()

    def test_group_shares_one_holder_exponent(self):
        # as a battery's probes share one rho_tilde: refused before any integration
        profiles = [LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2], holder_exponent=p)
                    for p in (0.9, 0.5)]
        symbol_memo.clear()
        before = symbol_memo.counts["riccati_solves"]
        with pytest.raises(ValueError, match="share one holder_exponent"):
            serial_ladder_runner(profiles, default_battery(), LADDER, 1, GAUSS)
        assert symbol_memo.counts["riccati_solves"] == before


class TestDifferencePairing:
    def test_polynomial_below_order_gives_zero(self, gauss):
        prof = LameProfile.constant(1.3, 0.9)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 4, 1, gauss)
        val = difference_pairing(prof, probe)
        assert abs(val) <= 1e-8

    def test_linear_profile_order2_gives_zero(self, gauss):
        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 64, 5, 2, gauss)
        val = difference_pairing(prof, probe)
        assert abs(val) <= 1e-8

    def test_requires_positive_order(self, gauss):
        prof = LameProfile.constant(1.0, 1.0)
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 16, 4, 0, gauss)
        with pytest.raises(ValueError, match="m >= 1"):
            difference_pairing(prof, probe)

    def test_gradient_limit_matches_family_energy(self, gauss):
        from lame_edge.reconstruct import leading_order_response

        prof = LameProfile.from_polynomial([1.0, 0.3], [1.0, 0.2])
        probe = ProbeSpec(np.array([0, 0, 1.0]), E1, 128, 4, 1, gauss)
        val = 128 * difference_pairing(prof, probe)
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
