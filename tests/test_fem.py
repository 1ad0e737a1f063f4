import numpy as np
import pytest
import scipy.linalg

import anisocont as ac
from anisocont import fem
from conftest import cos_problem, spot_problem_2d


def unit_right_triangle_mesh():
    return ac.SimplicialMesh(
        2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]), np.array([[0.0, 1.0], [0.0, 1.0]]))


class TestStiffness:
    def test_hand_computed_local_matrix(self):
        m = unit_right_triangle_mesh()
        K = ac.assemble_stiffness(m, 1.0).toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_constants_in_kernel(self, rect_mesh):
        K = ac.assemble_stiffness(rect_mesh, 1.0)
        assert np.abs(K @ np.ones(rect_mesh.num_nodes)).max() < 1e-12

    def test_linearity_in_c(self, square_mesh):
        K1 = ac.assemble_stiffness(square_mesh, 1.0)
        K2 = ac.assemble_stiffness(square_mesh, 2.0)
        assert np.allclose(K2.toarray(), 2 * K1.toarray())

    def test_inverted_element_raises(self, square_mesh):
        m = square_mesh
        elements = m.elements.copy()
        elements[3] = elements[3][[1, 0, 2]]
        bad = ac.SimplicialMesh(2, m.nodes, elements, m.box)
        with pytest.raises(RuntimeError):
            ac.assemble_stiffness(bad, 1.0)


class TestMass:
    def test_unit_square_total(self):
        m = ac.build_rect_mesh(0.5, 0.5, 2, 2)
        assert ac.assemble_mass(m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_total(self, rect_mesh):
        assert ac.assemble_mass(rect_mesh).sum() == pytest.approx(
            8 * np.pi ** 2, abs=1e-8)

    def test_unit_cube_total(self):
        m = ac.build_box_mesh(0.5, 0.5, 0.5, 2, 2, 2)
        assert ac.assemble_mass(m).sum() == pytest.approx(1.0, abs=1e-12)


class TestResidual:
    def test_trivial_branch(self, rect_mesh):
        prob = cos_problem(d=0.0, lam=0.7)
        G = ac.residual(rect_mesh, np.zeros(rect_mesh.num_nodes), prob)
        assert np.abs(G).max() == 0.0

    def test_cos_profile_rows(self, rect_mesh):
        prob = cos_problem(d=1.0)
        G = ac.residual(rect_mesh, np.zeros(rect_mesh.num_nodes), prob)
        for i in range(rect_mesh.num_nodes):
            flags = rect_mesh.boundary_node_flags[i]
            if flags == frozenset({2}):
                assert G[i] == pytest.approx(-np.cos(rect_mesh.nodes[i, 1] / 2),
                                             abs=1e-15)
            elif not flags:
                assert G[i] == 0.0

    def test_constant_field_against_quadrature_oracle(self):
        # pure-Neumann box: rows must equal -(volume-weighted nodal share) of
        # the constant nonlinearity, computed here by direct elementwise
        # quadrature independent of the mass-matrix assembly
        m = ac.build_rect_mesh(1.5, 1.0, 7, 5)
        prob = ac.ProblemDef(c=1.0, lam=0.8, gamma=2.0, aux={},
                             active_param="lambda",
                             bc={k: ac.neumann() for k in (1, 2, 3, 4)})
        a = 0.7
        G = ac.residual(m, np.full(m.num_nodes, a), prob)
        fa = prob.lam * a + a ** 3 - prob.gamma * a ** 5
        oracle = np.zeros(m.num_nodes)
        for elem in m.elements:
            pts = m.nodes[elem]
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            for v in elem:
                oracle[v] -= fa * area / 3.0
        assert np.abs(G - oracle).max() < 1e-12

    def test_length_mismatch(self, square_mesh):
        with pytest.raises(ValueError):
            ac.residual(square_mesh, np.zeros(5), cos_problem())


class TestJacobian:
    def fd_jacobian(self, mesh, u, prob):
        n = mesh.num_nodes
        J = np.zeros((n, n))
        for j in range(n):
            h = 1e-6 * (1 + abs(u[j]))
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            J[:, j] = (ac.residual(mesh, up, prob)
                       - ac.residual(mesh, um, prob)) / (2 * h)
        return J

    def test_matches_finite_differences(self):
        m = ac.build_rect_mesh(1, 1, 6, 6)
        prob = cos_problem(d=0.3, lam=0.5)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(m.num_nodes) * 0.5
        J = ac.jacobian(m, u, prob).toarray()
        Jfd = self.fd_jacobian(m, u, prob)
        assert np.abs(J - Jfd).max() / max(1.0, np.abs(J).max()) < 1e-6

    def test_matches_finite_differences_3d(self):
        m = ac.build_box_mesh(1, 1, 1, 3, 3, 3)
        prob = ac.ProblemDef(c=0.5, lam=0.2, gamma=1.0, aux={"xi": 0.5},
                             active_param="xi",
                             bc={1: ac.neumann(), 2: ac.neumann(),
                                 3: ac.dirichlet("gauss_spot"), 4: ac.neumann(),
                                 5: ac.dirichlet("zero"), 6: ac.neumann()})
        rng = np.random.default_rng(3)
        u = rng.standard_normal(m.num_nodes) * 0.3
        J = ac.jacobian(m, u, prob).toarray()
        Jfd = self.fd_jacobian(m, u, prob)
        assert np.abs(J - Jfd).max() / max(1.0, np.abs(J).max()) < 1e-6

    def test_zero_state_interior_block_is_stiffness(self, square_mesh):
        prob = cos_problem(d=0.0, lam=0.0)
        J = ac.jacobian(square_mesh, np.zeros(square_mesh.num_nodes), prob)
        K = ac.assemble_stiffness(square_mesh, 1.0)
        interior = [i for i in range(square_mesh.num_nodes)
                    if not square_mesh.boundary_node_flags[i]]
        assert np.allclose(J.toarray()[interior], K.toarray()[interior])

    def test_dirichlet_rows_identity(self, square_mesh):
        prob = cos_problem(d=0.2)
        u = np.linspace(-1, 1, square_mesh.num_nodes)
        J = ac.jacobian(square_mesh, u, prob).toarray()
        for i in range(square_mesh.num_nodes):
            if square_mesh.boundary_node_flags[i]:
                row = np.zeros(square_mesh.num_nodes)
                row[i] = 1.0
                assert np.array_equal(J[i], row)


class TestL2Norm:
    def test_unit_field(self, rect_mesh):
        assert ac.l2_norm(rect_mesh, np.ones(rect_mesh.num_nodes)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_field(self, rect_mesh):
        assert ac.l2_norm(rect_mesh, np.zeros(rect_mesh.num_nodes)) == 0.0

    def test_sine_analytic_value(self):
        m = ac.build_rect_mesh(np.pi, np.pi, 65, 65)
        u = np.sin(m.nodes[:, 0])
        assert ac.l2_norm(m, u) == pytest.approx(1 / np.sqrt(2), abs=1e-3)


def eval_boundary_profile(profile, point, aux, dim=2):
    """The scalar boundary profile `fem.boundary_profile_values` replaced,
    kept as its oracle."""
    if profile == fem.PROFILE_ZERO:
        return 0.0
    if profile == fem.PROFILE_COS_HALF:
        if dim != 2:
            raise ValueError("cos_half profile is 2D only")
        return float(aux.get("d", 0.0)) * np.cos(point[1] / 2.0)
    if profile == fem.PROFILE_GAUSS_SPOT:
        xi = float(aux.get("xi", 0.0))
        val = -((point[0] - xi) ** 2)
        if dim == 3:
            val -= point[2] ** 2
        return float(np.exp(val))
    raise ValueError(f"unknown boundary profile '{profile}'")


class TestBoundaryProfiles:
    def test_gauss_peak(self):
        assert fem.boundary_profile_values("gauss_spot", np.array([[1.5, np.pi]]),
                                           {"xi": 1.5}, 2)[0] == pytest.approx(1.0)

    def test_cos_half_vanishes_at_corners(self):
        for y in (np.pi, -np.pi):
            v = fem.boundary_profile_values("cos_half", np.array([[2 * np.pi, y]]),
                                            {"d": 3.7}, 2)[0]
            assert v == pytest.approx(0.0, abs=1e-15)

    def test_gauss_3d(self):
        v = fem.boundary_profile_values("gauss_spot",
                                        np.array([[1.5, -1.0, 1.0]]), {"xi": 0.5}, 3)[0]
        assert v == pytest.approx(np.exp(-2.0))

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            fem.boundary_profile_values("sombrero", np.zeros((1, 2)), {}, 2)

    def test_spot_tracks_xi_every_call(self, rect_mesh):
        prob = spot_problem_2d(xi=0.0)
        top = next(i for i in range(rect_mesh.num_nodes)
                   if rect_mesh.boundary_node_flags[i] == frozenset({3}))
        g0 = fem.dirichlet_values(rect_mesh, prob)
        prob.aux["xi"] = 2.0
        g1 = fem.dirichlet_values(rect_mesh, prob)
        idx, _ = fem.dirichlet_info(rect_mesh, prob)
        where = list(idx).index(top)
        x = rect_mesh.nodes[top, 0]
        assert g0[where] == pytest.approx(np.exp(-x ** 2))
        assert g1[where] == pytest.approx(np.exp(-(x - 2.0) ** 2))


class TestVectorizedProfiles:
    CASES = [("zero", 2), ("cos_half", 2), ("gauss_spot", 2),
             ("zero", 3), ("gauss_spot", 3)]

    @pytest.mark.parametrize("profile,dim", CASES)
    def test_matches_scalar_profile(self, profile, dim):
        rng = np.random.default_rng(3)
        points = rng.uniform(-4.0, 4.0, size=(200, dim))
        aux = {"d": 1.7, "xi": 0.6}
        got = fem.boundary_profile_values(profile, points, aux, dim)
        ref = [eval_boundary_profile(profile, x, aux, dim) for x in points]
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=1e-300)

    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(ValueError):
            fem.boundary_profile_values("sombrero", np.zeros((3, 2)), {}, 2)
        with pytest.raises(ValueError):
            fem.boundary_profile_values("cos_half", np.zeros((3, 3)), {}, 3)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_dirichlet_values_match_per_node_loop(self, dim):
        if dim == 2:
            mesh = ac.build_rect_mesh(2 * np.pi, np.pi, 17, 9)
            profiles = ("zero", "cos_half", "gauss_spot", "zero")
        else:
            mesh = ac.build_box_mesh(2.0, 3.0, 2.0, 5, 6, 5)
            profiles = ("gauss_spot", "zero", "gauss_spot", "zero",
                        "gauss_spot", "zero")
        prob = ac.ProblemDef(aux={"d": 0.8, "xi": 0.4}, active_param="xi",
                             bc={k + 1: ac.dirichlet(p)
                                 for k, p in enumerate(profiles)})
        idx, groups = fem.dirichlet_info(mesh, prob)
        names = set(groups)
        assert names == set(profiles)
        profile_of = {}
        for name, pos in groups.items():
            profile_of.update({int(i): name for i in idx[pos]})
        for i in idx:
            segs = sorted(mesh.boundary_node_flags[i])
            assert profile_of[int(i)] == prob.bc[segs[0]].profile
        ref = [eval_boundary_profile(profile_of[int(i)], mesh.nodes[i],
                                        prob.aux, dim) for i in idx]
        np.testing.assert_allclose(fem.dirichlet_values(mesh, prob), ref,
                                   rtol=1e-15, atol=1e-300)

    def test_profile_derivatives_match_central_differences(self):
        rng = np.random.default_rng(4)
        for profile, dim, name in (("cos_half", 2, "d"), ("gauss_spot", 2, "xi"),
                                   ("gauss_spot", 3, "xi")):
            points = rng.uniform(-2.0, 2.0, size=(50, dim))
            aux = {"d": 0.3, "xi": 0.2}
            h = 1e-6
            plus = fem.boundary_profile_values(profile, points,
                                               {**aux, name: aux[name] + h}, dim)
            minus = fem.boundary_profile_values(profile, points,
                                                {**aux, name: aux[name] - h}, dim)
            got = fem.boundary_profile_dparam(profile, points, aux, name, dim)
            np.testing.assert_allclose(got, (plus - minus) / (2 * h),
                                       rtol=1e-6, atol=1e-9)
            other = "xi" if name == "d" else "d"
            assert not fem.boundary_profile_dparam(profile, points, aux,
                                                   other, dim).any()


class TestSymmetry:
    def test_residual_commutes_with_reflection(self):
        # mirror-symmetric mesh (odd nx) and symmetric spot data
        m = ac.build_rect_mesh(2 * np.pi, np.pi, 17, 9)
        prob = spot_problem_2d(xi=0.0)
        perm = np.empty(m.num_nodes, dtype=int)
        for i in range(m.num_nodes):
            target = np.array([-m.nodes[i, 0], m.nodes[i, 1]])
            j = np.argmin(np.abs(m.nodes - target).sum(axis=1))
            assert np.allclose(m.nodes[j], target, atol=1e-12)
            perm[i] = j
        rng = np.random.default_rng(0)
        u = rng.standard_normal(m.num_nodes)
        G_perm = ac.residual(m, u[perm], prob)
        G = ac.residual(m, u, prob)
        assert np.abs(G_perm - G[perm]).max() < 1e-12


class TestSpectrum:
    def reduced_eigs(self, mesh, k=4):
        K = ac.assemble_stiffness(mesh, 1.0).toarray()
        M = ac.assemble_mass(mesh).toarray()
        free = [i for i in range(mesh.num_nodes)
                if not mesh.boundary_node_flags[i]]
        w = scipy.linalg.eigh(K[np.ix_(free, free)], M[np.ix_(free, free)],
                              eigvals_only=True)
        return w[:k]

    def test_bifurcation_spectrum_second_order(self):
        # smallest Dirichlet eigenvalues approach (j/4)^2 + (l/2)^2 at O(h^2)
        analytic = np.array([0.3125, 0.5, 0.8125, 1.0625])
        coarse = self.reduced_eigs(ac.build_rect_mesh(2 * np.pi, np.pi, 25, 13))
        fine = self.reduced_eigs(ac.build_rect_mesh(2 * np.pi, np.pi, 49, 25))
        err_c = np.abs(coarse - analytic)
        err_f = np.abs(fine - analytic)
        ratio = err_c / err_f
        assert np.all(err_f < err_c)
        assert np.all(ratio > 2.5), ratio
