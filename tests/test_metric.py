import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisocont as ac
from anisocont import metric


def interior_ring(mesh, rings=2):
    """Node indices at least `rings` graph-rings away from the boundary."""
    edges = mesh.edges()
    nbr = [set() for _ in range(mesh.num_nodes)]
    for a, b in edges:
        nbr[a].add(int(b))
        nbr[b].add(int(a))
    layer = {i for i in range(mesh.num_nodes) if mesh.boundary_node_flags[i]}
    for _ in range(rings):
        layer |= {j for i in layer for j in nbr[i]}
    return [i for i in range(mesh.num_nodes) if i not in layer]


class TestHessianRecovery:
    def test_affine_field_zero_hessian(self, square_mesh):
        z = 2.0 * square_mesh.nodes[:, 0] - 0.7 * square_mesh.nodes[:, 1] + 1.0
        H = ac.recover_hessian(square_mesh, z)
        inner = interior_ring(square_mesh, rings=0)
        assert np.abs(H[inner]).max() < 1e-8

    def test_quadratic_x(self):
        errs = []
        for n in (11, 21):
            m = ac.build_rect_mesh(1, 1, n, n)
            H = ac.recover_hessian(m, m.nodes[:, 0] ** 2 / 2)
            inner = interior_ring(m)
            errs.append(np.abs(H[inner, 0, 0] - 1.0).max()
                        + np.abs(H[inner, 1, 1]).max()
                        + np.abs(H[inner, 0, 1]).max())
        assert errs[1] < max(0.75 * errs[0], 1e-10)
        assert errs[1] < 0.05

    def test_cross_term(self):
        errs = []
        for n in (11, 21):
            m = ac.build_rect_mesh(1, 1, n, n)
            H = ac.recover_hessian(m, m.nodes[:, 0] * m.nodes[:, 1])
            inner = interior_ring(m)
            errs.append(np.abs(H[inner, 0, 1] - 1.0).max()
                        + np.abs(H[inner, 0, 0]).max())
        assert errs[1] < max(0.75 * errs[0], 1e-10)
        assert errs[1] < 0.05

    def test_length_mismatch(self, square_mesh):
        with pytest.raises(ValueError):
            ac.recover_hessian(square_mesh, np.ones(3))


class TestComputeMetric:
    def test_identity_hessian(self):
        psi = ac.compute_metric(np.eye(2)[None], 1.0, 1000)
        assert np.allclose(psi.tensors[0], np.eye(2), atol=1e-12)

    def test_diag_4_1_against_formula(self):
        psi = ac.compute_metric(np.diag([4.0, 1.0])[None], 1.0, 1000)
        # direct evaluation of the scaling: det^(-1/(2p+d)) * H
        expected = 4.0 ** (-1.0 / 2002.0) * np.diag([4.0, 1.0])
        assert np.allclose(psi.tensors[0], expected, rtol=1e-12)

    def test_negative_eigenvalues_absolutized(self):
        p1 = ac.compute_metric(np.diag([-4.0, 1.0])[None], 1.0, 1000)
        p2 = ac.compute_metric(np.diag([4.0, 1.0])[None], 1.0, 1000)
        assert np.allclose(p1.tensors, p2.tensors)

    def test_zero_hessian_floored(self):
        psi = ac.compute_metric(np.zeros((1, 2, 2)), 1.0, 1000)
        w = np.linalg.eigvalsh(psi.tensors[0])
        assert w.min() > 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ac.compute_metric(np.eye(2)[None], 0.0, 1000)
        with pytest.raises(ValueError):
            ac.compute_metric(np.eye(2)[None], 1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
    def test_spd_for_random_symmetric(self, vals):
        H = np.array([[[vals[0], vals[2]], [vals[2], vals[1]]]])
        psi = ac.compute_metric(H, 1.0, 1000)
        T = psi.tensors[0]
        assert np.abs(T - T.T).max() < 1e-12 * max(1.0, np.abs(T).max())
        assert np.linalg.eigvalsh(T).min() > 0

    def test_field_scaling_law(self, square_mesh):
        # scaling z by alpha scales the metric by alpha^(2p/(2p+d))
        z = np.sin(2 * square_mesh.nodes[:, 0]) * square_mesh.nodes[:, 1] ** 2
        H = ac.recover_hessian(square_mesh, z)
        alpha, p, d = 3.7, 1000, 2
        psi1 = ac.compute_metric(H, 1.0, p)
        psi2 = ac.compute_metric(alpha * H, 1.0, p)
        keep = np.abs(np.linalg.eigvalsh(H)).min(axis=1) > 1e-6
        factor = alpha ** (2 * p / (2 * p + d))
        a, b = psi2.tensors[keep], psi1.tensors[keep]
        good = np.abs(b) > 1e-9
        assert np.abs(a[good] / b[good] - factor).max() < 1e-8 * factor

    def test_eta_is_pure_prefactor(self):
        H = np.array([np.diag([2.0, 5.0]), [[1.0, 0.3], [0.3, 2.0]]])
        p1 = ac.compute_metric(H, 1e-3, 1000)
        p2 = ac.compute_metric(H, 2e-2, 1000)
        assert np.allclose(p1.tensors, (2e-2 / 1e-3) * p2.tensors, rtol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0, 2 * np.pi))
    def test_rotation_equivariance(self, angle):
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        H = np.array([[3.0, 1.0], [1.0, -2.0]])
        psi = ac.compute_metric(H[None], 1.0, 1000).tensors[0]
        psi_rot = ac.compute_metric((R @ H @ R.T)[None], 1.0, 1000).tensors[0]
        assert np.abs(psi_rot - R @ psi @ R.T).max() < 1e-10 * np.abs(psi).max()


class TestSizeBound:
    @pytest.mark.parametrize("mesh", [
        ac.build_rect_mesh(2.0, 0.5, 9, 5),
        ac.build_box_mesh(1.0, 1.5, 0.75, 4, 5, 3),
    ], ids=["rect", "box"])
    def test_affine_field_targets_fit_domain(self, mesh):
        # an affine field has no curvature: unbounded, its target sizes are
        # far larger than the box; bounded, none exceeds h_max
        z = 1.0 + mesh.nodes @ np.linspace(0.5, -1.5, mesh.dim)
        opts = ac.AdaptOptions.for_dim(mesh.dim)
        psi = metric.metric_for_field(mesh, z, opts.eta_policy, opts.ppar)
        h_max = metric.domain_h_max(mesh.box)
        assert h_max == pytest.approx(
            0.5 * (mesh.box[:, 1] - mesh.box[:, 0]).min())
        w = np.linalg.eigvalsh(psi.tensors)
        assert w.min() >= (1 - 1e-12) / h_max ** 2

    def test_bound_binds_only_below(self):
        H = np.array([np.zeros((2, 2)), np.diag([4.0, 1.0])])
        psi = ac.compute_metric(H, 1.0, 1000, h_max=1.0)
        assert np.allclose(psi.tensors[0], np.eye(2), rtol=1e-12)
        # scaled eigenvalues 4^(1-1/2002) and 4^(-1/2002): only the one below
        # 1/h_max^2 = 1 is raised
        expected = np.diag([4.0 ** (1 - 1.0 / 2002.0), 1.0])
        assert np.allclose(psi.tensors[1], expected, rtol=1e-12)
        loose = ac.compute_metric(H[1:], 1.0, 1000, h_max=10.0)
        assert np.array_equal(loose.tensors,
                              ac.compute_metric(H[1:], 1.0, 1000).tensors)

    def test_bad_h_max(self):
        for h_max in (0.0, -1.0):
            with pytest.raises(ValueError):
                ac.compute_metric(np.eye(2)[None], 1.0, 1000, h_max=h_max)


class TestEta:
    def test_constant_default(self):
        assert ac.eval_eta(metric.EtaPolicy.constant(), 5000) == 1e-3

    def test_linear_np(self):
        assert ac.eval_eta(metric.EtaPolicy.linear_in_np(1e-5), 1000) == \
            pytest.approx(0.01)

    def test_linear_np_spot_prefactor(self):
        assert ac.eval_eta(metric.EtaPolicy.linear_in_np(1e-6), 3543) == \
            pytest.approx(3.543e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ac.eval_eta(metric.EtaPolicy.constant(-1.0), 10)
        with pytest.raises(ValueError):
            ac.eval_eta(metric.EtaPolicy.constant(1.0), 0)

    @pytest.mark.parametrize("make", [metric.EtaPolicy.constant,
                                      metric.EtaPolicy.linear_in_np])
    @pytest.mark.parametrize("value", [0.0, -1e-6, float("nan")])
    def test_nonpositive_coefficient_rejected_at_construction(self, make, value):
        with pytest.raises(ValueError, match="eta coefficient must be > 0"):
            make(value)


class TestEdgeLength:
    def test_identity_metric_is_euclidean(self, square_mesh):
        psi = metric.MetricField(np.tile(np.eye(2), (square_mesh.num_nodes, 1, 1)))
        for edge in square_mesh.edges()[:10]:
            L, = metric.edge_lengths(square_mesh.nodes, psi.tensors, edge[None])
            assert L == pytest.approx(
                np.linalg.norm(square_mesh.nodes[edge[1]]
                               - square_mesh.nodes[edge[0]]), rel=1e-12)

    def test_diag_metric(self):
        m = ac.build_rect_mesh(0.5, 0.5, 2, 2)
        psi = metric.MetricField(np.tile(np.diag([4.0, 1.0]), (4, 1, 1)))
        horizontal = next(e for e in m.edges()
                          if m.nodes[e[0], 1] == m.nodes[e[1], 1])
        assert metric.edge_lengths(m.nodes, psi.tensors, horizontal[None]) == \
            pytest.approx([2.0])

    def test_endpoint_average(self):
        m = ac.build_rect_mesh(0.5, 0.5, 2, 2)
        tensors = np.tile(np.eye(2), (4, 1, 1))
        horizontal = next(e for e in m.edges()
                          if m.nodes[e[0], 1] == m.nodes[e[1], 1])
        tensors[horizontal[1]] = np.diag([9.0, 9.0])
        psi = metric.MetricField(tensors)
        assert metric.edge_lengths(m.nodes, psi.tensors, horizontal[None]) == \
            pytest.approx([np.sqrt(5.0)])


class TestSelectField:
    def test_identity_default(self):
        u = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(ac.select_field(u), u)

    def test_exp_selector(self):
        u = np.array([0.0, 1.0])
        assert np.allclose(ac.select_field(u, np.exp), np.exp(u))

    def test_scaling_selector(self):
        u = np.array([0.5, -1.0])
        assert np.allclose(ac.select_field(u, lambda v: 2 * v), 2 * u)
