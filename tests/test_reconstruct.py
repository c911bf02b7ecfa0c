import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lame_edge.ansatz import GaussianCutoff
from lame_edge.elastic import LameProfile, energy_density
from lame_edge import cli, forward, reconstruct
from lame_edge.forward import DEFAULT_QUAD, Z_ROWS_E1, _probe_coefficients, polar_grid
from lame_edge.reconstruct import (
    BatteryError,
    ExtrapolationResult,
    LadderResult,
    ProbeTemplate,
    calibrate_order_m,
    default_battery,
    design_matrix,
    extrapolate,
    homogeneous_pairing_value,
    leading_order_response,
    order0_coefficients,
    _pairing_moments,
    order0_response,
    order0_variables,
    recover_order0,
    recover_order_m,
    refine_order0,
    run_ladder,
    serial_ladder_runner,
    reconstruct_profile,
)
from lame_edge.stroh import (VARIANTS, closed_form_response, impedance, quadratic_form,
                             sigma_basis)

REPO = Path(__file__).resolve().parent.parent

E1 = (1.0, 0.0, 0.0)


def random_admissible(rng):
    mu = rng.uniform(0.3, 2.5)
    lam = rng.uniform(-2.0 * mu / 3.0 + 0.1, 2.5)
    return lam, mu


def solve_order0(limits):
    """:func:`recover_order0` with the rows of the limits' own probes."""
    return recover_order0(limits, order0_coefficients([t for t, _ in limits]))


def fixed_ladders(limits, noises=None):
    """Order-1 LadderResults whose limits are ``limits`` (probe, value) and
    whose noises are ``noises`` (zero by default)."""
    N = np.array([16, 32, 64, 128])
    noises = [0.0] * len(limits) if noises is None else noises
    return [LadderResult(t, 1, N, np.full(N.size, complex(v)),
                         ExtrapolationResult(complex(v), "converged", e))
            for (t, v), e in zip(limits, noises)]


def computed_matrices(battery, m, base):
    """The design matrices of every computed mode, as reconstruct_profile builds them."""
    return {mode: design_matrix(battery, m, mode, base) for mode in (*VARIANTS, "predicted")}


def laguerre_response(a, om, m, dlam, dmu, lam0, mu0, n=8):
    """int_0^inf y3^m/m! E(y3) dy3 for the energy density E at moduli (dlam, dmu)
    of the decaying family u = exp(i om.y' - y3)(a + y3 b), b = i c3 (w1, w2, i),
    c3 = (i a.om - a3)(lam0 + mu0)/(lam0 + 3 mu0), sampled pointwise at y' = 0 on
    an n-point Gauss-Laguerre rule in t = 2 y3 (exact for n >= 4 when m <= 3).

    Returns the integral and its scale, the same integral at (|dlam|, |dmu|).
    """
    a = np.asarray(a, dtype=complex)
    w = np.asarray(om, dtype=float)
    c3 = (1j * (a[0] * w[0] + a[1] * w[1]) - a[2]) * (lam0 + mu0) / (lam0 + 3.0 * mu0)
    b = 1j * c3 * np.array([w[0], w[1], 1j])
    t, weights = np.polynomial.laguerre.laggauss(n)
    value = scale = 0.0
    for tk, wk in zip(t, weights):
        y3 = tk / 2.0  # exp(-2 y3) dy3 = exp(-t) dt / 2; exp(-y3) leaves the gradient
        u = a + y3 * b
        grad = np.column_stack([1j * w[0] * u, 1j * w[1] * u, b - u])  # [k, l] = d_l u_k
        weight = wk / 2.0 * y3**m / math.factorial(m)
        value += weight * energy_density(dlam, dmu, grad, grad).real
        scale += weight * energy_density(abs(dlam), abs(dmu), grad, grad).real
    return value, scale


class TestClosedFormResponse:
    def test_e3_variant_independent(self):
        for variant in ("plus_one", "plus_a3_squared"):
            val = closed_form_response((0, 0, 1.0), E1, 1, 0.3, 0.2, variant)
            assert val == pytest.approx(0.125)

    def test_tangent_variants_differ(self):
        a = (1.0, 0.0, 0.0)
        assert closed_form_response(a, E1, 1, 0.3, 0.2, "plus_one") == pytest.approx(0.175)
        assert closed_form_response(a, E1, 1, 0.3, 0.2, "plus_a3_squared") == pytest.approx(0.075)

    def test_zero_derivatives(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert closed_form_response(a, E1, 2, 0.0, 0.0, "plus_one") == 0.0

    def test_scaling_linearity(self):
        a = (0.2, -0.4, 1.0)
        v1 = closed_form_response(a, E1, 1, 0.3, 0.2, "plus_one")
        v2 = closed_form_response(a, E1, 1, 0.6, 0.4, "plus_one")
        assert v2 == pytest.approx(2.0 * v1)


def abs_squared_table(a, omega, m: int, dlam: float, dmu: float) -> float:
    """The printed ``plus_a3_squared`` order-m table of
    :func:`lame_edge.stroh.closed_form_response` with |.|^2 in place of each
    literal square: a diagnostic for criterion 06b, not a design-matrix mode."""
    a = np.asarray(a, dtype=complex).ravel()
    w = np.asarray(omega, dtype=float).ravel()[:2]
    lam_factor = abs(1j * (a[0] * w[0] + a[1] * w[1]) - a[2]) ** 2
    shear = sum(abs((a[i] * w[j] + a[j] * w[i]) / 2.0) ** 2 for i in range(2) for j in range(2))
    mixed = 2.0 * sum(abs((1j * a[2] * w[i] - a[i]) / 2.0) ** 2 for i in range(2))
    return dlam * lam_factor / 2.0 ** (m + 1) + dmu * (shear + mixed + abs(a[2]) ** 2) / 2.0**m


class TestPrintedTableDepartures:
    """Criterion 06b fails because the printed order-m table departs twice from
    the family energy that the ladders follow: it squares complex strain
    factors literally, and it drops the family's depth-linear (Jordan) term."""

    def test_abs_squared_table_is_family_energy_without_jordan_term(self):
        # the |.|^2 table is _family_moment on the jets (a (x) i sigma_2, 0): the
        # family's jets with b = 0, for each column (d^m lam, d^m mu) = (1, 0), (0, 1)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(500):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            th = rng.uniform(0.0, 2.0 * np.pi)
            om = (np.cos(th), np.sin(th), 0.0)
            lam0, mu0 = random_admissible(rng)
            m = int(rng.integers(1, 3))
            sigma2 = sigma_basis(lam0, mu0, om)[:, 1]
            jets = (np.outer(a, 1j * sigma2), np.zeros((3, 3)))
            for dlam, dmu in ((1.0, 0.0), (0.0, 1.0)):
                table = abs_squared_table(a, om, m, dlam, dmu)
                energy = reconstruct._family_moment(jets, m, dlam, dmu)
                worst = max(worst, abs(table - energy) / abs(energy))
        assert worst <= 1e-13

    def test_each_departure_costs_gradient_recovery(self):
        # the bundled gradient config's order-1 ladders, recovered with the
        # literal table (147.43%), the |.|^2 table (25.74%) and the full family
        # energy (2.62%), by criterion 06b's measure: largest error / 0.3
        cfg = cli.load_config(REPO / "configs" / "gradient.json")
        battery = cli.battery_from_config(cfg)
        report = reconstruct_profile(
            cli.profile_from_config(cfg), cfg["order"], cfg["ladder"], battery=battery,
            cutoff=cli.cutoff_from_config(cfg), rho_tilde=cfg["rho_tilde"],
            quad=cli.quad_from_config(cfg), calibrate=False)
        base = (report.order0.lam, report.order0.mu)
        matrices = {
            "plus_a3_squared": design_matrix(battery, 1, "plus_a3_squared"),
            "abs_squared": np.array([[abs_squared_table(t.a, t.omega, 1, 1.0, 0.0),
                                      abs_squared_table(t.a, t.omega, 1, 0.0, 1.0)]
                                     for t in battery]),
            "predicted": design_matrix(battery, 1, "predicted", base),
        }
        errors = {}
        for mode, A in matrices.items():
            r = recover_order_m(report.order_m_ladders, A, mode)
            errors[mode] = float(np.abs(np.array([r.dlam, r.dmu]) - [0.3, 0.2]).max() / 0.3)
        assert errors["plus_a3_squared"] > errors["abs_squared"] > errors["predicted"]
        assert errors == {"plus_a3_squared": pytest.approx(1.4743, rel=0.01),
                          "abs_squared": pytest.approx(0.2574, rel=0.01),
                          "predicted": pytest.approx(0.0262, rel=0.01)}


class TestLeadingOrderResponse:
    def test_order0_equals_impedance_form(self):
        # the pairing limit is the Hermitian form a^H Z a (conjugate on the
        # first slot); the a_i conj(a_j) ordering agrees for real a
        rng = np.random.default_rng(1)
        for _ in range(60):
            lam, mu = random_admissible(rng)
            th = rng.uniform(0, 2 * np.pi)
            om = (np.cos(th), np.sin(th), 0.0)
            Z = impedance(lam, mu, om)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            hermitian_form = float(np.real(np.vdot(a, Z @ a)))
            assert order0_response(a, om, lam, mu) == pytest.approx(hermitian_form, rel=1e-12)
            a_real = rng.standard_normal(3)
            direct = quadratic_form(impedance(lam, mu, om), a_real)
            assert order0_response(a_real, om, lam, mu) == pytest.approx(direct, rel=1e-12)
            quadrature, _ = laguerre_response(a, om, 0, lam, mu, lam, mu)
            assert quadrature == pytest.approx(quadratic_form(impedance(lam, mu, om), a),
                                               rel=1e-12)

    def test_unit_base_rows(self):
        assert leading_order_response((0, 0, 1.0), E1, 1, 1.0, 0.0, 1.0, 1.0) == pytest.approx(1 / 16)
        assert leading_order_response((0, 0, 1.0), E1, 1, 0.0, 1.0, 1.0, 1.0) == pytest.approx(23 / 16)
        assert leading_order_response((1.0, 0, 0), E1, 1, 0.0, 1.0, 1.0, 1.0) == pytest.approx(7 / 16)
        assert leading_order_response((0, -1.0, 0), E1, 1, 1.0, 0.0, 1.0, 1.0) == pytest.approx(0.0)
        assert leading_order_response((0, -1.0, 0), E1, 1, 0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_shear_probe_matches_a3_variant(self):
        # c3 = 0 and a3 = 0: the plus_a3_squared table is exact here
        val = leading_order_response((0, -1.0, 0), E1, 1, 0.3, 0.2, 1.0, 1.0)
        reference = closed_form_response((0, -1.0, 0), E1, 1, 0.3, 0.2, "plus_a3_squared")
        assert val == pytest.approx(float(np.real(reference)), rel=1e-12)

    def test_profile_scaling_consistency(self):
        a, om = (0.3, 0.1, 1.0), E1
        s = 1.7
        v1 = leading_order_response(a, om, 1, 0.3, 0.2, 1.0, 1.2)
        v2 = leading_order_response(a, om, 1, s * 0.3, s * 0.2, s * 1.0, s * 1.2)
        assert v2 == pytest.approx(s * v1, rel=1e-12)
        assert order0_response(a, om, s * 1.0, s * 1.2) == pytest.approx(
            s * order0_response(a, om, 1.0, 1.2), rel=1e-12
        )

    def test_direction_invariance(self):
        for kind in ("e3", "tangent", "sigma1"):
            t1 = ProbeTemplate.named(kind, (1.0, 0.0))
            t2 = ProbeTemplate.named(kind, (0.0, 1.0))
            v1 = leading_order_response(t1.a, t1.omega, 1, 0.3, 0.2, 1.0, 1.0)
            v2 = leading_order_response(t2.a, t2.omega, 1, 0.3, 0.2, 1.0, 1.0)
            assert v1 == pytest.approx(v2, rel=1e-12)


class TestExtrapolate:
    def test_constant_series_flagged(self):
        res = extrapolate([16, 32, 64, 128], [2.0, 2.0, 2.0, 2.0], rho=0.25)
        assert res.flag == "converged"
        assert res.limit == 2.0

    def test_structured_even_series_exact(self):
        N = np.array([16, 32, 64, 128, 256], dtype=float)
        vals = 1.5 + 0.8 * N**-0.5 - 0.3 * N**-1.0 + 0.1 * N**-1.5
        res = extrapolate(N, vals, rho=0.25)
        assert res.flag == "structured"
        assert res.limit == pytest.approx(1.5, abs=1e-10)

    def test_noise_floor_detection(self):
        res = extrapolate([16, 32, 64, 128], [1.0, 1.0001, 1.00011, 1.005], rho=0.25)
        assert res.flag == "noise_floor"

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 ladder"):
            extrapolate([16, 32, 64], [1.0, 1.1, 1.2], rho=0.25)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(16, 32, 64, 128, 256), (8, 16, 32, 64)]), st.sampled_from([3, 4, 5]),
           st.lists(st.complex_numbers(max_magnitude=3.0), min_size=4, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_cached_basis_equals_least_squares(self, N, rho_tilde, c, seed):
        # the limit is one product with the basis's pseudo-inverse, cached per
        # (N-list, rho); it equals a fresh lstsq fit to rounding of its terms
        rho, Nf = 1.0 / rho_tilde, np.array(N, dtype=float)
        A = np.column_stack([np.ones(Nf.size)] + [Nf ** (-2.0 * rho * j) for j in (1, 2, 3)])
        noise = np.array([1e-6, 1e-6j]) @ np.random.default_rng(seed).normal(size=(2, Nf.size))
        vals = A @ np.array(c) + noise
        res = extrapolate(N, vals, rho)
        assume(res.flag == "structured")
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        terms = np.abs(np.linalg.pinv(A)[0]) @ np.abs(vals)
        assert abs(res.limit - coef[0]) <= 1e-14 * terms
        assert extrapolate(N, vals, rho) == res


class TestRecoverOrder0:
    def test_closed_loop_exact(self):
        battery = [ProbeTemplate.named("e3", (1.0, 0.0)),
                   ProbeTemplate.named("sigma1", (1.0, 0.0))]
        limits = [(t, quadratic_form(impedance(2.0, 1.0, t.omega), t.a)) for t in battery]
        res = solve_order0(limits)
        assert res.ok
        assert res.lam == pytest.approx(2.0, abs=1e-8)
        assert res.mu == pytest.approx(1.0, abs=1e-8)

    def test_closed_loop_random(self):
        rng = np.random.default_rng(2)
        battery = default_battery()
        for _ in range(10):
            lam, mu = random_admissible(rng)
            limits = [(t, quadratic_form(impedance(lam, mu, t.omega), t.a)) for t in battery]
            res = solve_order0(limits)
            assert res.ok
            assert res.lam == pytest.approx(lam, abs=1e-6)
            assert res.mu == pytest.approx(mu, abs=1e-6)

    def test_inconsistent_limits_flagged(self):
        battery = default_battery()
        limits = [(t, quadratic_form(impedance(2.0, 1.0, t.omega), t.a)) for t in battery]
        limits[0] = (limits[0][0], limits[0][1] * 1.5)  # 50% perturbation
        res = solve_order0(limits)
        assert not res.ok
        assert res.residual > 1e-3

    def test_needs_two_probes(self):
        t = ProbeTemplate.named("e3", (1.0, 0.0))
        with pytest.raises(BatteryError):
            recover_order0([(t, 1.6)], np.array([[2.0, 4.0]]))

    def test_unidentifiable_battery_rejected(self):
        # e3 and tangent probes share the row (a^H Z_lam a, a^H Z_mu a) = (2, 4):
        # their limits fix one combination of the moduli, not both
        battery = [ProbeTemplate.named("e3", (1.0, 0.0)),
                   ProbeTemplate.named("tangent", (0.0, 1.0)),
                   ProbeTemplate.named("e3", (0.0, 1.0))]
        limits = [(t, order0_response(t.a, t.omega, 2.0, 1.0)) for t in battery]
        with pytest.raises(BatteryError, match="cannot separate lambda from mu"):
            order0_coefficients(battery)
        with pytest.raises(BatteryError, match="cannot separate lambda from mu"):
            recover_order0(limits, np.array([[2.0, 4.0]] * 3))

    def test_complex_amplitude_closed_loop(self):
        # the model is the form a^H Z a that the pairing integrates, which
        # quadratic_form computes too; the transposed sum would give 2.4 here
        mixed = ProbeTemplate("mixed", np.array([1.0, 0.0, 1.0j]), np.array(E1))
        battery = [mixed, ProbeTemplate.named("e3", (1.0, 0.0))]
        p = order0_coefficients(battery) @ order0_variables(2.0, 1.0)
        assert p[0] == pytest.approx(4.0, rel=1e-14)
        assert quadratic_form(impedance(2.0, 1.0, E1), mixed.a) == pytest.approx(4.0)
        limits = [(t, order0_response(t.a, t.omega, 2.0, 1.0)) for t in battery]
        res = solve_order0(limits)
        assert res.ok
        assert res.lam == pytest.approx(2.0, rel=1e-10)
        assert res.mu == pytest.approx(1.0, rel=1e-10)


unit_complex = st.tuples(*[st.floats(-1.0, 1.0)] * 6).map(
    lambda x: np.array(x[:3]) + 1j * np.array(x[3:])
).filter(lambda a: np.linalg.norm(a) > 0.1)
moduli = st.tuples(st.floats(0.2, 3.0), st.floats(-7.0, 1.5)).map(
    lambda x: (x[0] * (-2.0 / 3.0 + 10.0 ** x[1]), x[0])  # t = lam/mu down to -2/3 + 1e-7
)
directions = st.floats(0.0, 2.0 * np.pi).map(lambda th: np.array([np.cos(th), np.sin(th), 0.0]))


class TestFamilyMoments:
    @settings(max_examples=100, deadline=None)
    @given(moduli, directions, unit_complex, st.integers(1, 3),
           *[st.floats(-10.0, 10.0, allow_subnormal=False)] * 2)
    def test_response_is_depth_quadrature_of_energy(self, lm, om, a, m, dlam, dmu):
        # checks the moment weights (m+j+k)!/(m! 2^(m+j+k+1)) against pointwise
        # samples; subnormal derivatives are left out, as they carry no relative precision
        want, scale = laguerre_response(a, om, m, dlam, dmu, *lm)
        got = leading_order_response(a, om, m, dlam, dmu, *lm)
        assert abs(got - want) <= 1e-12 * scale


def with_companions(a, om):
    """Probe a plus e3 and sigma1 at om, whose rows alone have rank 2."""
    return [ProbeTemplate("a", a, om), ProbeTemplate.named("e3", om[:2]),
            ProbeTemplate.named("sigma1", om[:2])]


class TestOrder0Model:
    @settings(max_examples=150, deadline=None)
    @given(moduli, directions, unit_complex)
    def test_predictions_match_family_energy(self, lm, om, a):
        battery = with_companions(a, om)
        p = order0_coefficients(battery) @ order0_variables(*lm)
        np.testing.assert_allclose(p, [order0_response(t.a, t.omega, *lm) for t in battery],
                                   rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(moduli, st.floats(0.1, 10.0))
    def test_degree_one_homogeneity(self, lm, s):
        C = order0_coefficients(default_battery())
        p = C @ order0_variables(*lm)
        ps = C @ order0_variables(s * lm[0], s * lm[1])
        np.testing.assert_allclose(ps, s * p, rtol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(moduli, unit_complex)
    def test_closed_loop_recovery(self, lm, a):
        battery = default_battery() + [ProbeTemplate("a", a, np.array(E1))]
        limits = [(t, order0_response(t.a, t.omega, *lm)) for t in battery]
        res = solve_order0(limits)
        scale = max(abs(lm[0]), lm[1])
        assert res.ok
        assert abs(res.lam - lm[0]) <= 1e-10 * scale
        assert abs(res.mu - lm[1]) <= 1e-10 * scale

    @settings(max_examples=100, deadline=None)
    @given(moduli, st.lists(st.floats(-0.02, 0.02), min_size=6, max_size=6),
           st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    def test_noisy_solve_minimises_residual(self, lm, noise, dl, dm):
        # the solve is the least-squares point over all x, so no admissible
        # moduli fit noisy limits better: neither the truth nor a perturbation
        battery = default_battery()
        limits = [(t, order0_response(t.a, t.omega, *lm) * (1.0 + e))
                  for t, e in zip(battery, noise)]
        res = solve_order0(limits)
        assume(res.mu > 0.0 and 3.0 * res.lam + 2.0 * res.mu > 0.0)
        y = np.array([v for _, v in limits])
        lam, mu = lm[0] + dl * lm[1], lm[1] * (1.0 + dm)
        for moduli_ in (lm, (lam, mu)):
            if moduli_[1] > 0.0 and 3.0 * moduli_[0] + 2.0 * moduli_[1] > 0.0:
                model = [order0_response(t.a, t.omega, *moduli_) for t in battery]
                assert res.residual <= np.linalg.norm(model - y) + 1e-13 * np.linalg.norm(y)


class TestRefineOrder0:
    def test_fixed_point_on_homogeneous_ladders(self):
        cut = GaussianCutoff()
        prof = LameProfile.constant(2.0, 1.0)
        (ladders,) = serial_ladder_runner((prof,), default_battery(), [16, 32, 64, 128, 256], 0,
                                          cut, 4, DEFAULT_QUAD)
        res, refined = refine_order0(ladders, order0_coefficients(default_battery()), cut, 4)
        assert res.ok
        assert res.lam == pytest.approx(2.0, rel=1e-5)
        assert res.mu == pytest.approx(1.0, rel=1e-5)
        assert 1 <= res.passes < 200
        assert res.final_change <= 1e-12
        assert set(refined) == {t.name for t in default_battery()}

    def test_ladders_on_different_n_lists_rejected(self):
        # one ladder-fit pseudo-inverse serves every ladder of a refine
        cut = GaussianCutoff()
        prof = LameProfile.constant(2.0, 1.0)
        ladders = [run_ladder(prof, ProbeTemplate.named(kind, (1.0, 0.0)), N_list, 0, cut, 4)
                   for kind, N_list in (("e3", [16, 32, 64, 128]), ("sigma1", [32, 64, 128, 256]))]
        C = order0_coefficients([lr.template for lr in ladders])
        with pytest.raises(ValueError, match="one N-list"):
            refine_order0(ladders, C, cut, 4)

    def test_inadmissible_raw_solve_refines_to_truth(self):
        # near the bulk bound the raw ladder limits solve to 3 lam + 2 mu < 0:
        # that solve is not ok, the passes deflate from it all the same
        cut = GaussianCutoff()
        prof = LameProfile.constant(-0.66, 1.0)
        (ladders,) = serial_ladder_runner((prof,), default_battery(), [16, 32, 64, 128, 256], 0,
                                          cut, 4, DEFAULT_QUAD)
        limits = [(lr.template, lr.limit) for lr in ladders]
        C = order0_coefficients(default_battery())
        x = np.linalg.lstsq(C, [v.real for _, v in limits], rcond=None)[0]
        assert x[1] > 0.0 and 3.0 * x[0] + 2.0 * x[1] < 0.0  # x1 < -2/3 x2
        assert not recover_order0(limits, C).ok
        res, _ = refine_order0(ladders, C, cut, 4)
        assert res.ok and res.passes >= 1
        assert abs(res.lam + 0.66) <= 1e-10 and abs(res.mu - 1.0) <= 1e-10


class TestRecoverOrderM:
    def test_closed_loop_formula_variant(self):
        battery = default_battery()
        for variant in ("plus_one", "plus_a3_squared"):
            limits = [
                (t, closed_form_response(t.a, t.omega, 1, 0.3, 0.2, variant)) for t in battery
            ]
            res = recover_order_m(fixed_ladders(limits), design_matrix(battery, 1, variant),
                                  variant)
            assert res.dlam == pytest.approx(0.3, abs=1e-12)
            assert res.dmu == pytest.approx(0.2, abs=1e-12)
            assert res.residual < 1e-12

    def test_closed_loop_predicted(self):
        battery = default_battery()
        limits = [
            (t, leading_order_response(t.a, t.omega, 1, 0.3, 0.2, 1.0, 1.0))
            for t in battery
        ]
        A = design_matrix(battery, 1, "predicted", (1.0, 1.0))
        res = recover_order_m(fixed_ladders(limits), A, "predicted")
        assert res.dlam == pytest.approx(0.3, abs=1e-12)
        assert res.dmu == pytest.approx(0.2, abs=1e-12)

    def test_rank_deficient_battery_rejected(self):
        battery = [ProbeTemplate.named("sigma1", (1.0, 0.0)),
                   ProbeTemplate.named("sigma1", (0.0, 1.0))]
        limits = [(t, 0.1) for t in battery]
        with pytest.raises(BatteryError, match="rank-deficient in mode plus_a3_squared"):
            recover_order_m(fixed_ladders(limits), design_matrix(battery, 1, "plus_a3_squared"),
                            "plus_a3_squared")

    def test_condition_number_reported(self):
        battery = default_battery()
        A = design_matrix(battery, 1, "predicted", (1.0, 1.0))
        limits = [(t, 0.0) for t in battery]
        res = recover_order_m(fixed_ladders(limits), A, "predicted")
        sv = np.linalg.svd(np.real(A), compute_uv=False)
        assert res.condition == pytest.approx(sv[0] / sv[-1])

    def test_ladder_noise_propagates_through_the_pseudo_inverse(self):
        # noise_bound[i] = sqrt(sum_j |pinv_ij|^2 noise_j^2) for independent noises
        battery = default_battery()
        A = design_matrix(battery, 1, "predicted", (1.0, 1.0))
        limits = [(t, leading_order_response(t.a, t.omega, 1, 0.3, 0.2, 1.0, 1.0))
                  for t in battery]
        noises = [1e-3, 2e-4, 5e-5, 3e-3, 7e-4, 1e-5]
        res = recover_order_m(fixed_ladders(limits, noises), A, "predicted")
        want = np.sqrt(np.abs(np.linalg.pinv(A)) ** 2 @ np.square(noises))
        np.testing.assert_allclose(res.noise_bound, want, rtol=1e-12)
        assert res.dlam == pytest.approx(0.3, abs=1e-12)
        assert res.dmu == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("mode", ["calibrated", "unknown"])
    def test_design_matrix_refuses_a_mode_it_does_not_compute(self, mode):
        # the calibrated matrix is measured by calibrate_order_m, not computed
        with pytest.raises(ValueError, match=f"unknown design-matrix mode '{mode}'"):
            design_matrix(default_battery(), 1, mode, (1.0, 1.0))


class TestLadders:
    def test_homogeneous_difference_ladder_is_null(self):
        prof = LameProfile.constant(1.3, 0.9)
        t = ProbeTemplate.named("e3", (1.0, 0.0))
        lr = run_ladder(prof, t, [16, 32, 64, 128], 1, cutoff=GaussianCutoff())
        assert np.abs(lr.values).max() <= 1e-6
        assert lr.extrapolation.flag == "converged"
        assert lr.limit == 0.0

    def test_rejects_non_dyadic(self):
        prof = LameProfile.constant(1.0, 1.0)
        t = ProbeTemplate.named("e3", (1.0, 0.0))
        with pytest.raises(ValueError, match="dyadic"):
            run_ladder(prof, t, [10, 30, 60, 120], 0)

    @pytest.mark.parametrize("N_list, message", [
        ([16, 32, 64], "ladder needs at least 4 N values"),
        ([16, 32, 32, 64], "ladder must be strictly increasing"),
        ([16, 32, 64, 96], "ladder must be dyadic, got [16, 32, 64, 96]"),
        # refused by name, not truncated to the ladder [16, 32, 64, 128]
        ([16.7, 32.2, 64.9, 128.1], "ladder N must be integers, got 16.7"),
        (np.array([16.7, 32.2, 64.9, 128.1]), "ladder N must be integers, got 16.7"),
    ])
    def test_check_dyadic_refusals(self, N_list, message):
        with pytest.raises(ValueError) as err:
            reconstruct._check_dyadic(N_list)
        assert str(err.value) == message
        N = reconstruct._check_dyadic(np.array([16, 32, 64, 128]))
        assert N.dtype == np.dtype(int) and N.tolist() == [16, 32, 64, 128]

    def test_homogeneous_model_matches_forward_pairing(self):
        from lame_edge.forward import pairing
        from lame_edge.ansatz import ProbeSpec

        cut = GaussianCutoff()
        prof = LameProfile.constant(1.4, 0.8)
        t = ProbeTemplate.named("tangent", (1.0, 0.0))
        for N in (16, 64):
            model = homogeneous_pairing_value(t, N, 4, cut, 1.4, 0.8)
            probe = ProbeSpec(t.a, t.omega, N, 4, 0, cut)
            measured = pairing(prof, probe)
            assert model == pytest.approx(measured, rel=2e-6)


    def test_battery_moments_equal_each_probes_own(self):
        # the half-space forms Z_ROWS_E1 (x) (r F), built once for the battery,
        # contract every probe to the bits of that probe's own sum
        battery = default_battery(((1.0, 0.0), (0.6, 0.8)))
        N, cut = (16, 32, 64, 128), GaussianCutoff()
        forms = np.stack([Z_ROWS_E1[:, :, None] * (g.r @ g.moments)
                          for g in (polar_grid(n, 4, cut, DEFAULT_QUAD) for n in N)])
        together = _pairing_moments(battery, N, 4, cut, DEFAULT_QUAD)
        assert together.shape == (len(battery), len(N), 2)
        for t, G in zip(battery, together):
            own = np.sum(forms * _probe_coefficients(t.a, t.omega), axis=(-2, -1))
            assert G.tobytes() == own.tobytes()
            assert G.tobytes() == _pairing_moments((t,), N, 4, cut, DEFAULT_QUAD)[0].tobytes()


def test_gradient_pass_computes_shared_values_once(monkeypatch):
    # one pass of the bundled gradient config: each design matrix, the order-0
    # rows and each probe's family jets once; each battery looks its N grids up
    # once (order 0, order 1, three calibration profiles, the order-0 model)
    cfg = cli.load_config(REPO / "configs" / "gradient.json")
    calls = Counter()

    def count(module, name, key=None):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name if key is None else key(args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(reconstruct, "design_matrix", key=lambda args: f"design_matrix {args[2]}")
    for name in ("order0_coefficients", "_family_jets", "polar_grid"):
        count(reconstruct, name)
    count(forward, "polar_grid")
    report = reconstruct_profile(
        cli.profile_from_config(cfg), cfg["order"], cfg["ladder"],
        battery=cli.battery_from_config(cfg), cutoff=cli.cutoff_from_config(cfg),
        rho_tilde=cfg["rho_tilde"], quad=cli.quad_from_config(cfg))
    assert calls == {"design_matrix plus_one": 1, "design_matrix plus_a3_squared": 1,
                     "design_matrix predicted": 1,
                     "order0_coefficients": 1, "_family_jets": 6, "polar_grid": 30}
    assert set(report.stage_seconds) == {"order0_ladders", "order0_solve", "order_m_ladders",
                                         "order_m_solve", "calibration"}
    assert all(v >= 0.0 for v in report.stage_seconds.values())
    assert "stage_seconds" not in report.to_dict()


def test_gradient_pass_reads_symbols_through_one_door():
    # each ladder battery of one gradient pass (order 0, order 1, the
    # calibration's three profiles) takes its symbols from forward.warm_tables,
    # and nothing else asks the memo for them
    cfg = cli.load_config(REPO / "configs" / "gradient.json")
    forward.symbol_memo.clear()
    with mock.patch.object(forward, "warm_tables", wraps=forward.warm_tables) as door, \
            mock.patch.object(forward.symbol_memo, "group",
                              wraps=forward.symbol_memo.group) as memo:
        reconstruct_profile(
            cli.profile_from_config(cfg), cfg["order"], cfg["ladder"],
            battery=cli.battery_from_config(cfg), cutoff=cli.cutoff_from_config(cfg),
            rho_tilde=cfg["rho_tilde"], quad=cli.quad_from_config(cfg))
    assert door.call_count == memo.call_count == 3
    assert sorted(len(call.args[0]) for call in door.call_args_list) == [1, 1, 3]


class TestCalibration:
    def test_rounding_change_of_base_leaves_matrix(self):
        # the order-1 truncations are constant, so exact: a rounding-level move
        # of the base moves only the one Riccati solve per profile, not the
        # difference of two solves with different step sequences
        base = (0.9999161175742259, 1.000014643959749)
        cals = [calibrate_order_m(1, default_battery(), [16, 32, 64, 128, 256], b,
                                  computed_matrices(default_battery(), 1, b),
                                  cutoff=GaussianCutoff(), rho_tilde=4)
                for b in (base, (base[0] * (1.0 - 5e-15), base[1]))]
        assert np.abs(cals[1].matrix / cals[0].matrix - 1.0).max() <= 1e-9
        assert cals[1].linearity_error == pytest.approx(cals[0].linearity_error, rel=1e-8)

    def test_linearity_violation_raises_with_measured_value(self, monkeypatch):
        # the gradient config's calibration measures a linearity error of 1.26e-3
        from lame_edge import reconstruct

        monkeypatch.setattr(reconstruct, "_LINEARITY_TOL", 1e-3)
        with pytest.raises(reconstruct.CalibrationError,
                           match=r"linearity violation 0\.126% exceeds 0\.1%"):
            base = (0.9999161175742259, 1.000014643959749)
            calibrate_order_m(1, default_battery(), [16, 32, 64, 128, 256], base,
                              computed_matrices(default_battery(), 1, base),
                              cutoff=GaussianCutoff(), rho_tilde=4)


    def test_result_independent_of_memo_history(self):
        # the three profiles' symbols are one memo group: with an empty memo,
        # and with each member already memoised alone (in either order), the
        # calibration reads the same group and gives the same bits
        from lame_edge.forward import symbol_memo, warm_tables
        from lame_edge.reconstruct import _MIXED_DERIVATIVES, _unit_profile

        base, cutoff, ladder = (1.1, 0.9), GaussianCutoff(), [16, 32, 64, 128]
        trio = [_unit_profile(base, 1, 1.0, 0.0), _unit_profile(base, 1, 0.0, 1.0),
                _unit_profile(base, 1, *_MIXED_DERIVATIVES)]

        def calibration_bits(warm):
            symbol_memo.clear()
            for prof in warm:
                warm_tables((prof,), DEFAULT_QUAD, 1)
            cal = calibrate_order_m(1, default_battery(), ladder, base,
                                    computed_matrices(default_battery(), 1, base),
                                    cutoff=cutoff, rho_tilde=4)
            ladders = [lr.values.tobytes()
                       for key in ("lam", "mu", "mixed") for lr in cal.ladders[key]]
            nearest = min(VARIANTS, key=cal.distances.get)
            return (cal.matrix.tobytes(), cal.linearity_error.hex(), nearest,
                    {k: v.hex() for k, v in cal.distances.items()}, ladders)

        cold = calibration_bits([])
        assert calibration_bits(trio) == cold
        assert calibration_bits(trio[::-1]) == cold


class TestOrderTwoEndToEnd:
    def test_calibrated_recovery_within_experimental_tolerance(self):
        """m = 2 is experimental: ladders are pre-asymptotic at desk scale,
        but calibration shares their structure, so the calibrated recovery
        still lands; tolerance 20%."""
        from lame_edge.reconstruct import reconstruct_profile

        prof = LameProfile.from_polynomial([1.0, 0.0, 0.1], [1.0, 0.0, 0.05])
        report = reconstruct_profile(
            prof, 2, [16, 32, 64, 128, 256], battery=default_battery(),
            cutoff=GaussianCutoff(), calibrate=True,
        )
        assert report.order0.lam == pytest.approx(1.0, rel=0.03)
        assert report.order0.mu == pytest.approx(1.0, rel=0.03)
        r = report.order_m["calibrated"]
        assert r.dlam == pytest.approx(0.2, rel=0.20)
        assert r.dmu == pytest.approx(0.1, rel=0.20)
        assert report.calibration.linearity_error <= 0.03


class TestSymbolAsymptotics:
    """Order-m limits read off the DtN symbol difference directly.

    The m-th depth derivative enters the symbol at order |k|^{1-m}, so
    r^{m-1} a^H (M_C - M_C^m)(r e1) a tends to the order-m limit; this checks
    the family-energy coefficients against the forward solver without probe
    quadrature or ladder extrapolation. At desk-scale N the m = 2 probe
    ladders themselves are still pre-asymptotic (the spectral concentration
    parameter decays like N^{-1/5}), which is why this is the m = 2 oracle.
    """

    @pytest.mark.parametrize("m,dcoeffs", [(1, (0.3, 0.2)), (2, (0.2, 0.1))])
    def test_family_energy_coefficients(self, m, dcoeffs):
        from lame_edge.elastic import taylor_truncate
        from lame_edge.forward import dtn_symbol

        fact = 1.0 if m == 1 else 2.0
        lam_coeffs = [1.0] + [0.0] * (m - 1) + [dcoeffs[0] / fact]
        mu_coeffs = [1.0] + [0.0] * (m - 1) + [dcoeffs[1] / fact]
        prof = LameProfile.from_polynomial(lam_coeffs, mu_coeffs)
        trunc = taylor_truncate(prof, m)
        radii = np.array([512.0, 1024.0, 2048.0])
        for kind in ("e3", "tangent", "sigma1"):
            t = ProbeTemplate.named(kind, (1.0, 0.0))
            vals = []
            for r in radii:
                D = dtn_symbol(prof, (r, 0.0), tol=1e-12) - dtn_symbol(
                    trunc, (r, 0.0), tol=1e-12
                )
                vals.append(r ** (m - 1) * float(np.real(np.vdot(t.a, D @ t.a))))
            # remove the O(1/r) correction with one Richardson step
            limit = vals[-1] + (vals[-1] - vals[-2])
            predicted = leading_order_response(t.a, t.omega, m, *dcoeffs, 1.0, 1.0)
            assert limit == pytest.approx(predicted, rel=5e-3)
