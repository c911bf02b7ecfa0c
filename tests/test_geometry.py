import numpy as np
import pytest

from lame_edge.elastic import tensor_components
from lame_edge.geometry import (
    ChartError,
    FlatPatch,
    ParaboloidPatch,
    SpherePatch,
    akp,
    build_chart,
    first_order_nonflat,
    push_forward,
)
from lame_edge.stroh import closed_form_response

E1 = (1.0, 0.0, 0.0)


def brute_force_nonflat(chart, lam0, mu0, dlam, dmu, a, omega, variant="plus_one"):
    """first_order_nonflat's value, its curvature term summed index by index."""
    A = akp(a, omega)
    C0 = tensor_components(lam0, mu0)
    J1 = chart.jacobian_depth_derivative()
    corr = 0.0 + 0.0j
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    for p in range(3):
                        for q in range(3):
                            term = C0[i, j, k, l] * (
                                J1[p, l] * (1.0 if q == j else 0.0)
                                + (1.0 if p == l else 0.0) * J1[q, j]
                            )
                            corr += term * A[k, p] * A[i, q]
    corr *= 0.5
    return complex(closed_form_response(a, omega, 1, dlam, dmu, variant) + corr)


def sample_points(rng, n=40, rmax=0.4, dmax=0.4):
    r = rng.uniform(0, rmax, n)
    th = rng.uniform(0, 2 * np.pi, n)
    d = rng.uniform(0.0, dmax, n)
    return np.column_stack([r * np.cos(th), r * np.sin(th), d])


class TestCharts:
    def test_flat_chart_identity(self):
        chart = build_chart(FlatPatch(), depth=0.5)
        rng = np.random.default_rng(1)
        for y in sample_points(rng, 10):
            assert np.allclose(chart.jacobian(y), np.eye(3), atol=1e-14)
            x = chart.from_normal(y)
            assert np.allclose(x, y, atol=1e-14)

    def test_sphere_metric_constraints(self):
        chart = build_chart(SpherePatch(2.0), depth=0.9)
        rng = np.random.default_rng(2)
        for y in sample_points(rng, 100, rmax=0.5, dmax=0.9):
            G = chart.metric(y)
            assert abs(G[2, 2] - 1.0) <= 1e-8
            assert abs(G[0, 2]) <= 1e-8 and abs(G[1, 2]) <= 1e-8

    def test_paraboloid_tangency(self):
        chart = build_chart(ParaboloidPatch(1.0, 1.0, radius=0.6), depth=0.5)
        assert np.allclose(chart.jacobian(np.zeros(3)), np.eye(3), atol=1e-12)
        G = chart.metric(np.zeros(3))
        assert np.allclose(G, np.eye(3), atol=1e-12)

    def test_round_trip_inversion(self):
        # the round trip F(from_normal(y)) = y, differentiated: J = grad F
        # inverts the derivative of from_normal, here by central differences
        chart = build_chart(SpherePatch(2.0), depth=0.8)
        rng = np.random.default_rng(3)
        h = 1e-5
        for y in sample_points(rng, 20, rmax=0.5, dmax=0.7):
            D = np.column_stack([(chart.from_normal(y + h * e) - chart.from_normal(y - h * e))
                                 / (2.0 * h) for e in np.eye(3)])
            assert np.allclose(chart.jacobian(y) @ D, np.eye(3), atol=1e-8)

    def test_focal_rejection_names_critical_depth(self):
        with pytest.raises(ChartError, match="critical depth"):
            build_chart(SpherePatch(2.0), depth=2.5)

    def test_shape_operator(self):
        chart = build_chart(SpherePatch(2.0), depth=0.5)
        J1 = chart.jacobian_depth_derivative()
        assert np.allclose(J1[:2, :2], np.eye(2) / 2.0, atol=1e-12)
        assert np.allclose(J1[2, :], 0.0) and np.allclose(J1[:, 2], 0.0)
        # finite-difference confirmation along the normal line at the origin
        h = 1e-6
        Jp = chart.jacobian(np.array([0.0, 0.0, h]))
        Jm = chart.jacobian(np.array([0.0, 0.0, 0.0]))
        assert np.allclose((Jp - Jm) / h, J1, atol=1e-5)


class TestPushForward:
    def test_flat_chart_components_unchanged(self):
        chart = build_chart(FlatPatch(), depth=0.5)
        pt = push_forward(1.3, 0.7, chart, (0.1, -0.2, 0.3))
        assert np.allclose(pt.components, tensor_components(1.3, 0.7), atol=1e-14)

    def test_tangency_point_unchanged_any_chart(self):
        chart = build_chart(SpherePatch(2.0), depth=0.5)
        pt = push_forward(1.3, 0.7, chart, (0.0, 0.0, 0.0))
        assert np.allclose(pt.components, tensor_components(1.3, 0.7), atol=1e-12)

    @pytest.mark.parametrize("surface", [SpherePatch(2.0), ParaboloidPatch(1.0, 0.5, radius=0.6)])
    def test_block_transformation_identities(self, surface):
        chart = build_chart(surface, depth=0.45)
        rng = np.random.default_rng(4)
        for _ in range(25):
            y = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0, 0.4)])
            pt = push_forward(1.5, 0.8, chart, y)
            zeta = rng.standard_normal(2)
            ref = pt.reference_blocks(zeta)
            assert np.abs(pt.t_block() - ref["T"]).max() <= 1e-10
            assert np.abs(pt.r_block(zeta) - ref["R"]).max() <= 1e-10
            assert np.abs(pt.q_block(zeta) - ref["Q"]).max() <= 1e-10

    def test_pairing_symmetry_inherited(self):
        chart = build_chart(SpherePatch(2.0), depth=0.45)
        pt = push_forward(1.5, 0.8, chart, (0.2, -0.1, 0.25))
        C = pt.components
        assert np.allclose(C, C.transpose(2, 3, 0, 1), atol=1e-12)

    def test_outside_validity_rejected(self):
        chart = build_chart(SpherePatch(2.0), depth=0.4)
        with pytest.raises(ChartError, match="outside"):
            push_forward(1.0, 1.0, chart, (0.0, 0.0, 0.6))


class TestAkp:
    def test_normal_unit_trace(self):
        a = np.array([0.2, -0.4, 0.7])
        w = np.array([0.6, 0.8, 0.0])
        A = akp(a, w)
        target = 1j * (a[0] * w[0] + a[1] * w[1]) - a[2]
        assert np.trace(A) == pytest.approx(target)

    def test_zero_amplitude(self):
        assert np.all(akp(np.zeros(3), E1) == 0.0)

    def test_rank_at_most_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            th = rng.uniform(0, 2 * np.pi)
            A = akp(a, (np.cos(th), np.sin(th), 0.0))
            s = np.linalg.svd(A, compute_uv=False)
            assert s[1] <= 1e-12 * max(s[0], 1.0)


class TestFirstOrderNonflat:
    def test_flat_reduction_exact(self):
        chart = build_chart(FlatPatch(), depth=0.5)
        a = (0.3, -0.2, 1.0)
        for variant in ("plus_one", "plus_a3_squared"):
            val = first_order_nonflat(chart, 1.0, 1.0, 0.3, 0.2, a, E1, variant=variant)
            assert val == closed_form_response(a, E1, 1, 0.3, 0.2, variant)

    def test_sphere_curvature_term(self):
        chart = build_chart(SpherePatch(2.0), depth=0.4)
        a = (0.0, 0.0, 1.0)
        val = first_order_nonflat(chart, 1.0, 1.0, 0.0, 0.0, a, E1)
        assert val != 0.0
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        brute = brute_force_nonflat(chart, 1.0, 1.0, 0.0, 0.0, a, E1)
        assert val == pytest.approx(brute, rel=1e-12)

    def test_brute_force_agreement_random(self):
        chart = build_chart(ParaboloidPatch(1.0, 0.4, radius=0.6), depth=0.4)
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            th = rng.uniform(0, 2 * np.pi)
            om = (np.cos(th), np.sin(th), 0.0)
            fast = first_order_nonflat(chart, 1.2, 0.9, 0.3, 0.2, a, om)
            slow = brute_force_nonflat(chart, 1.2, 0.9, 0.3, 0.2, a, om)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_quadratic_homogeneity_in_amplitude(self):
        # quadratic scaling holds for the a3^2 bracket variant; the plus_one
        # variant carries a constant bracket term and cannot scale
        chart = build_chart(SpherePatch(2.0), depth=0.4)
        a = np.array([0.3, 0.1, 0.8])
        v1 = first_order_nonflat(chart, 1.0, 1.0, 0.3, 0.2, a, E1, variant="plus_a3_squared")
        v2 = first_order_nonflat(chart, 1.0, 1.0, 0.3, 0.2, 2.0 * a, E1, variant="plus_a3_squared")
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)
