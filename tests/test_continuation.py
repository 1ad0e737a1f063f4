import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import anisocont as ac
from anisocont import continuation as ct
from anisocont import metric
from conftest import cos_problem, spot_problem_2d, spot_problem_3d

LAM_ANALYTIC = (0.3125, 0.5, 0.8125)   # (j/4)^2 + (l/2)^2 for (1,1),(2,1),(3,1)


def cos_mesh(nx=41, ny=21):
    return ac.build_rect_mesh(2 * np.pi, np.pi, nx, ny)


class TestNewton:
    def test_exact_root_converges_immediately(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=0.1)
        res = ct.newton_solve(m, np.zeros(m.num_nodes), prob)
        assert res.converged
        assert res.iterations <= 2
        assert np.abs(res.u).max() == 0.0

    def test_cos_profile_small_data(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.1, lam=0.0)
        res = ct.newton_solve(m, np.zeros(m.num_nodes), prob)
        assert res.converged
        G = ac.residual(m, res.u, prob)
        assert np.abs(G).max() <= 1e-8
        for i in range(m.num_nodes):
            if m.boundary_node_flags[i] == frozenset({2}):
                assert res.u[i] == 0.1 * np.cos(m.nodes[i, 1] / 2)

    def test_max_it_zero_fails_off_root(self):
        m = cos_mesh(9, 5)
        prob = cos_problem(d=0.5)
        res = ct.newton_solve(m, np.ones(m.num_nodes), prob, max_it=0)
        assert not res.converged


class TestTangent:
    def test_trivial_branch_tangent(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=-0.2)
        work = ct.FemWorkspace(m, prob)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        t = ct.compute_tangent(work, np.zeros(m.num_nodes), prob, seed)
        assert np.abs(t[:-1]).max() < 1e-12
        # unit in the weighted norm, supported on the parameter axis
        assert work.norm(t[:-1], t[-1]) == pytest.approx(1.0, abs=1e-10)
        assert t[-1] > 0

    def test_orientation_continuity(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=-0.2)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, nsteps=6,
                                           bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
        work = ct.FemWorkspace(m, prob)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        state.tangent = ct.compute_tangent(work, state.u, prob, seed)
        prev = state.tangent
        for _ in range(4):
            state, _ = ct.cont_step(state, settings, work)
            inner = work.inner(prev[:-1], prev[-1],
                               state.tangent[:-1], state.tangent[-1])
            assert inner > 0
            prev = state.tangent


class TestContStep:
    def test_trivial_branch_stays_zero(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=-0.2)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, nsteps=10,
                                           bif_detection=False, param_max=0.2)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
        result = ct.run_continuation(state, settings)
        assert all(abs(r.max_u) < 1e-10 and abs(r.min_u) < 1e-10
                   for r in result.records)
        assert result.records[-1].param_value > result.records[0].param_value

    def test_arclength_condition_after_step(self):
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        work = ct.FemWorkspace(m, prob)
        res = ct.newton_solve(m, np.zeros(m.num_nodes), prob, work=work)
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.05, nsteps=3,
                                           bif_detection=False)
        state = ct.ContinuationState(m, res.u, prob, ds=0.05)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        state.tangent = ct.compute_tangent(work, state.u, prob, seed)
        new_state, info = ct.cont_step(state, settings, work)
        du = new_state.u - state.u
        dp = new_state.prob.get_param() - prob.get_param()
        lhs = work.inner(du, dp, state.tangent[:-1], state.tangent[-1])
        assert lhs == pytest.approx(info["ds_used"], abs=1e-8)
        G = ac.residual(new_state.mesh, new_state.u, new_state.prob)
        assert np.abs(G).max() <= settings.newton_tol

    def test_stepsize_growth_and_cap(self):
        m = cos_mesh(9, 5)
        prob = cos_problem(d=0.0, lam=-0.2)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.03, nsteps=4,
                                           bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
        work = ct.FemWorkspace(m, prob)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        state.tangent = ct.compute_tangent(work, state.u, prob, seed)
        s1, _ = ct.cont_step(state, settings, work)
        assert s1.ds == pytest.approx(min(0.02 * 1.3, 0.03))


class TestStabilityIndex:
    def test_trivial_state_counts(self):
        m = cos_mesh(21, 11)
        for lam, expected in ((0.1, 0), (0.4, 1), (1.2, 4)):
            prob = cos_problem(d=0.0, lam=lam)
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) == expected


@pytest.fixture(scope="module")
def run():
    m = cos_mesh(41, 21)
    prob = cos_problem(d=0.0, lam=-0.2)
    settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, nsteps=60,
                                       ds_min=1e-8, bif_detection=True,
                                       param_max=0.9)
    state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
    return ct.run_continuation(state, settings)


@pytest.fixture(scope="module")
def bp():
    m = cos_mesh(33, 17)
    prob = cos_problem(d=0.0, lam=-0.1)
    settings = ct.ContinuationSettings(ds0=0.03, ds_max=0.06, nsteps=40,
                                       bif_detection=True, param_max=0.45)
    state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.03)
    result = ct.run_continuation(state, settings)
    events = [e for e in result.events if isinstance(e, ct.BPEvent)]
    assert events
    return events[0]


class TestBifurcationDetection:
    def test_three_bps_in_order(self, run):
        bps = [e for e in run.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == 3
        params = [e.param for e in bps]
        assert params == sorted(params)
        for got, ana in zip(params, LAM_ANALYTIC):
            assert abs(got - ana) < 0.02   # coarse mesh tolerance

    def test_n_neg_increments_across_crossing(self, run):
        steps = [r for r in run.records if r.flag in ("", "FP")]
        jumps = [(a.n_neg, b.n_neg) for a, b in zip(steps, steps[1:])
                 if a.n_neg != b.n_neg]
        assert jumps and all(b == a + 1 for a, b in jumps)

    def test_bp_records_flagged(self, run):
        bp_rows = [r for r in run.records if r.flag == "BP"]
        assert len(bp_rows) == 3

    def test_no_crossing_no_bp(self):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=-0.3)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, nsteps=5,
                                           bif_detection=True)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
        result = ct.run_continuation(state, settings)
        assert not [e for e in result.events if isinstance(e, ct.BPEvent)]

    def test_critical_eigenvector_shape(self, run):
        bp = [e for e in run.events if isinstance(e, ct.BPEvent)][0]
        x, y = bp.mesh.nodes[:, 0], bp.mesh.nodes[:, 1]
        phi_ana = np.sin((x + 2 * np.pi) / 4) * np.sin((y + np.pi) / 2)
        corr = abs(bp.phi @ phi_ana) / (np.linalg.norm(bp.phi)
                                        * np.linalg.norm(phi_ana))
        assert corr > 0.99


class TestBranchSwitch:
    def make_state(self, bp):
        prob = cos_problem(d=0.0, lam=bp.param)
        return ct.ContinuationState(bp.mesh, bp.u, prob, ds=0.02)

    def test_switch_off_trivial_branch(self, bp):
        settings = ct.ContinuationSettings(ds0=0.02)
        state = self.make_state(bp)
        new = ct.branch_switch(state, bp.phi, settings)
        assert np.abs(new.u).max() > 10 * settings.newton_tol
        x, y = bp.mesh.nodes[:, 0], bp.mesh.nodes[:, 1]
        phi_ana = np.sin((x + 2 * np.pi) / 4) * np.sin((y + np.pi) / 2)
        corr = abs(new.u @ phi_ana) / (np.linalg.norm(new.u)
                                       * np.linalg.norm(phi_ana))
        assert corr > 0.9    # single interior extremum, phi_11 pattern

    def test_opposite_delta_gives_mirror(self, bp):
        settings = ct.ContinuationSettings(ds0=0.02)
        state = self.make_state(bp)
        plus = ct.branch_switch(state, bp.phi, settings, delta=0.1)
        minus = ct.branch_switch(state, bp.phi, settings, delta=-0.1)
        assert np.abs(plus.u + minus.u).max() < 1e-6 * max(1, np.abs(plus.u).max())

    def test_zero_delta_rejected(self, bp):
        settings = ct.ContinuationSettings(ds0=0.02)
        with pytest.raises(ValueError):
            ct.branch_switch(self.make_state(bp), bp.phi, settings, delta=0.0)


class TestFold:
    def test_subcritical_branch_folds(self):
        # switch onto the first bifurcating branch and continue: the
        # cubic-quintic balance folds it back, flipping the tangent's
        # parameter component
        m = cos_mesh(25, 13)
        settings = ct.ContinuationSettings(ds0=0.03, ds_max=0.08, nsteps=30,
                                           ds_min=1e-10, bif_detection=False)
        # grab the critical eigenvector just past the first crossing
        prob_bp = cos_problem(d=0.0, lam=0.32)
        _, phi = ct.critical_eigenpair(m, np.zeros(m.num_nodes), prob_bp)
        switch_state = ct.ContinuationState(
            m, np.zeros(m.num_nodes), prob_bp, ds=0.03)
        new = ct.branch_switch(switch_state, phi, settings)
        result = ct.run_continuation(new, settings)
        folds = [e for e in result.events if isinstance(e, ct.FoldEvent)]
        assert folds
        assert any(r.flag == "FP" for r in result.records)

    def test_fold_is_not_a_branch_point(self):
        # with detection on, the eigenvalue that passes zero at the fold
        # changes n_neg by one in the fold's step; no branch point is
        # reported there
        m = cos_mesh(25, 13)
        settings = ct.ContinuationSettings(ds0=0.03, ds_max=0.08, nsteps=30,
                                           ds_min=1e-10, bif_detection=True)
        prob_bp = cos_problem(d=0.0, lam=0.32)
        _, phi = ct.critical_eigenpair(m, np.zeros(m.num_nodes), prob_bp)
        switch_state = ct.ContinuationState(
            m, np.zeros(m.num_nodes), prob_bp, ds=0.03)
        new = ct.branch_switch(switch_state, phi, settings)
        result = ct.run_continuation(new, settings)
        fold_steps = {e.step for e in result.events if isinstance(e, ct.FoldEvent)}
        bp_steps = {e.step for e in result.events if isinstance(e, ct.BPEvent)}
        assert fold_steps
        assert not fold_steps & bp_steps
        fp_rows = [r for r in result.records if r.flag == "FP"]
        assert fp_rows and all(r.n_neg is not None for r in fp_rows)


class TestAdaptInCont:
    def test_amod_zero_never_adapts(self):
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        trop = ac.AdaptOptions.for_dim(2)
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08, nsteps=6,
                                           amod=0, bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.05)
        result = ct.run_continuation(state, settings, trop=trop)
        assert not any(r.flag == "ADAPT" for r in result.records)

    def test_trivial_branch_transparency(self):
        # u = 0 interpolates exactly, so adaptation must not move the norm
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=-0.2)
        trop = ac.AdaptOptions.for_dim(2)
        trcop = ac.CoarsenOptions.from_trop(trop)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.04, nsteps=6,
                                           amod=3, bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.02)
        result = ct.run_continuation(state, settings, trop=trop, trcop=trcop)
        adapt_rows = [r for r in result.records if r.flag == "ADAPT"]
        assert adapt_rows
        for i, r in enumerate(result.records):
            if r.flag == "ADAPT":
                assert abs(r.l2 - result.records[i - 1].l2) < 1e-10

    def test_post_adaptation_residual(self):
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        trop = ac.AdaptOptions.for_dim(
            2, eta_policy=metric.EtaPolicy.linear_in_np(1e-5))
        trcop = ac.CoarsenOptions.from_trop(trop)
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08, nsteps=5,
                                           amod=5, bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.05)
        result = ct.run_continuation(state, settings, trop=trop, trcop=trcop)
        adapt_rows = [r for r in result.records if r.flag == "ADAPT"]
        assert adapt_rows
        final = result.state
        G = ac.residual(final.mesh, final.u, final.prob)
        assert np.abs(G).max() <= settings.newton_tol


class TestSymmetry:
    def test_reflection_symmetric_solutions(self):
        m = cos_mesh(17, 9)   # odd nx: mirror-symmetric mesh
        prob = spot_problem_2d(xi=0.0, active="lambda", lam=-0.25)
        settings = ct.ContinuationSettings(ds0=0.03, ds_max=0.05, nsteps=5,
                                           bif_detection=False)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.03)
        result = ct.run_continuation(state, settings)
        perm = np.empty(m.num_nodes, dtype=int)
        for i in range(m.num_nodes):
            target = np.array([-m.nodes[i, 0], m.nodes[i, 1]])
            perm[i] = np.argmin(np.abs(m.nodes - target).sum(axis=1))
        u = result.state.u
        assert np.abs(u - u[perm]).max() < 100 * settings.newton_tol


class TestBranchCsv:
    def test_roundtrip_format(self, tmp_path):
        recs = [ct.BranchRecord(0, "lambda", -0.2, 0.0, 0.0, 0.0, 100, 0, ""),
                ct.BranchRecord(1, "lambda", -0.1, 0.1, -0.2, 0.3, 100, None,
                                "BP")]
        path = tmp_path / "branch.csv"
        ct.write_branch_csv(path, recs)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,param_name,param_value,l2,min_u,max_u,np,n_neg,flag"
        assert lines[1].startswith("0,lambda,-0.2,")
        assert lines[2].endswith(",BP")
        assert ",," in lines[2]   # empty n_neg


# ---------------------------------------------------------------------------
# linear solves: parameter derivatives, the bordered solver and its oracles

def fd_dresidual_dparam(work, u, prob):
    """Central difference in the active parameter, h = 1e-7 (1 + |p|)."""
    p = prob.get_param()
    h = 1e-7 * (1.0 + abs(p))
    pr = prob.copy()
    pr.set_param(p + h)
    g_plus = work.residual(u, pr)
    pr.set_param(p - h)
    g_minus = work.residual(u, pr)
    return (g_plus - g_minus) / (2.0 * h)


def solved(mesh, prob):
    res = ct.newton_solve(mesh, np.zeros(mesh.num_nodes), prob)
    assert res.converged
    return res.u


@pytest.fixture(scope="module")
def cos_state():
    m = cos_mesh(25, 13)
    prob = cos_problem(d=1.0, lam=-0.2)
    return m, solved(m, prob), prob


@pytest.fixture(scope="module")
def spot3d_state():
    m = ac.build_box_mesh(np.pi, 1.5 * np.pi, np.pi, 5, 7, 5)
    prob = spot_problem_3d(xi=0.4, lam=0.1)
    return m, solved(m, prob), prob


@pytest.fixture(scope="module")
def switched_state():
    m = cos_mesh(25, 13)
    prob = cos_problem(d=0.0, lam=0.32)
    _, phi = ct.critical_eigenpair(m, np.zeros(m.num_nodes), prob)
    state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.03)
    new = ct.branch_switch(state, phi, ct.ContinuationSettings(ds0=0.03))
    assert np.abs(new.u).max() > 1e-3
    return m, new.u, new.prob


def bordered_dense(J, g, r, c):
    n = J.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = J.toarray()
    A[:n, n] = g
    A[n, :n] = r
    A[n, n] = c
    return A


class TestParameterDerivatives:
    @pytest.mark.parametrize("name", ["lambda", "gamma", "c", "d"])
    def test_cos_state(self, cos_state, name):
        m, u, prob = cos_state
        self.check(m, u, prob, name)

    @pytest.mark.parametrize("name", ["xi", "lambda", "gamma", "c"])
    def test_3d_spot_state(self, spot3d_state, name):
        m, u, prob = spot3d_state
        self.check(m, u, prob, name)

    def check(self, m, u, prob, name):
        pr = prob.copy()
        pr.active_param = name
        work = ct.FemWorkspace(m, pr)
        got = work.dresidual_dparam(u, pr)
        ref = fd_dresidual_dparam(work, u, pr)
        assert np.abs(ref).max() > 1e-3
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()
        free = work.free
        if name in ("lambda", "gamma", "c"):
            assert not got[~free].any()
        else:
            assert not got[free].any()


class TestBorderedSolver:
    @pytest.mark.parametrize("state", ["cos_state", "switched_state",
                                       "spot3d_state"])
    def test_matches_dense_solve(self, state, request):
        m, u, prob = request.getfixturevalue(state)
        work = ct.FemWorkspace(m, prob)
        J = work.jacobian(u, prob)
        if state == "switched_state":
            asym = abs(J - J.T)[work.free][:, work.free].max()
            assert asym > 1e-5                 # genuinely non-symmetric
        n = m.num_nodes
        rng = np.random.default_rng(5)
        g = work.dresidual_dparam(u, prob)
        r, c = work.border(rng.standard_normal(n), 0.3)
        f, h = rng.standard_normal(n), 0.7
        solver = ct.BorderedSolver(J)
        x, y = solver.solve_bordered(g, r, c, f, h)
        z = np.linalg.solve(bordered_dense(J, g, r, c), np.append(f, h))
        assert np.abs(np.append(x, y) - z).max() <= 1e-10 * np.abs(z).max()
        assert solver.refinements == 0 and solver.fallbacks == 0
        np.testing.assert_allclose(solver.solve(f),
                                   np.linalg.solve(J.toarray(), f),
                                   rtol=0, atol=1e-10 * np.abs(f).max())

    @staticmethod
    def singular_system():
        """The trivial state at a computed discrete eigenvalue: J has an
        exact one-dimensional null space, the bordered matrix has none."""
        m = cos_mesh(25, 13)
        prob = cos_problem(d=0.0)
        work = ct.FemWorkspace(m, prob)
        free = work.free
        K = work.K1[free][:, free].toarray()
        M = work.M[free][:, free].toarray()
        prob.lam = float(scipy.linalg.eigh(K, M, eigvals_only=True)[0])
        J = work.jacobian(np.zeros(m.num_nodes), prob)
        rng = np.random.default_rng(6)
        n = m.num_nodes
        g, r, f = (rng.standard_normal(n) for _ in range(3))
        return J, g, r, 0.5, f, 1.0

    @staticmethod
    def relative_residual(J, g, r, c, f, h, x, y):
        b = np.append(f, h)
        A = bordered_dense(J, g, r, c)
        return np.linalg.norm(A @ np.append(x, y) - b) / np.linalg.norm(b)

    def test_singular_jacobian_rejects_plain_elimination(self):
        J, g, r, c, f, h = self.singular_system()
        assert np.linalg.svd(J.toarray(), compute_uv=False)[-1] < 1e-12
        solver = ct.BorderedSolver(J)
        x, y = solver.solve_bordered(g, r, c, f, h)
        # plain elimination misses by ~1e-4 here; the backward-error check
        # catches it and one refinement step repairs it
        assert solver.refinements == 1
        assert self.relative_residual(J, g, r, c, f, h, x, y) <= 1e-10

    def test_exactly_singular_jacobian_takes_the_full_lu(self):
        J, g, r, c, f, h = self.singular_system()
        J = J.tolil()
        J[J.shape[0] // 2, :] = 0.0           # an interior row: LU pivot is 0
        J = J.tocsc()
        solver = ct.BorderedSolver(J)
        assert solver.lu is None
        x, y = solver.solve_bordered(g, r, c, f, h)
        assert solver.fallbacks == 1
        assert self.relative_residual(J, g, r, c, f, h, x, y) <= 1e-10

    def test_exactly_singular_plain_solve_raises(self):
        J = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        solver = ct.BorderedSolver(J)
        with pytest.raises(RuntimeError):
            solver.solve(np.ones(2))
        # the border makes the system regular: the full LU solves it
        x, y = solver.solve_bordered(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                     0.0, np.array([2.0, 3.0]), 4.0)
        assert solver.fallbacks == 1
        np.testing.assert_allclose(np.append(x, y), [2.0, 4.0, 3.0])


def old_compute_tangent(work, u, prob, prev_tangent):
    """The tangent solve before the bordered solver: sp.bmat + spsolve."""
    n = len(u)
    J = work.jacobian(u, prob)
    Gp = work.dresidual_dparam(u, prob)
    tu_prev, tp_prev = prev_tangent[:n], float(prev_tangent[n])
    row_u = ct.XI_WEIGHT * (work.M @ tu_prev) / work.domain_vol
    row_p = (1.0 - ct.XI_WEIGHT) * tp_prev
    A = sp.bmat([[J, Gp[:, None]],
                 [sp.csr_matrix(row_u[None, :]), sp.csr_matrix([[row_p]])]]).tocsc()
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    t = spla.spsolve(A, rhs)
    t /= work.norm(t[:n], t[n])
    if work.inner(t[:n], t[n], tu_prev, tp_prev) < 0:
        t = -t
    return t


def old_correct(work, prob, u_pred, p_pred, base_u, base_p, tangent, ds, tol,
                max_it):
    """The corrector before the bordered solver: sp.bmat + spsolve."""
    n = len(u_pred)
    tu, tp = tangent[:n], float(tangent[n])
    row_u = ct.XI_WEIGHT * (work.M @ tu) / work.domain_vol
    row_p = (1.0 - ct.XI_WEIGHT) * tp
    u = np.array(u_pred, dtype=float, copy=True)
    p = float(p_pred)
    pr = prob.copy()
    iters = 0
    for k in range(max_it + 1):
        pr.set_param(p)
        G = work.residual(u, pr)
        r2 = work.inner(u - base_u, p - base_p, tu, tp) - ds
        if float(np.max(np.abs(G))) <= tol and abs(r2) <= tol:
            return u, p, k, True
        if k == max_it:
            break
        J = work.jacobian(u, pr)
        Gp = work.dresidual_dparam(u, pr)
        A = sp.bmat([[J, Gp[:, None]],
                     [sp.csr_matrix(row_u[None, :]), sp.csr_matrix([[row_p]])]]).tocsc()
        delta = spla.spsolve(A, -np.concatenate([G, [r2]]))
        u += delta[:n]
        p += float(delta[n])
        iters = k + 1
    return u, p, iters, False


class TestAgainstBmatOracle:
    @pytest.mark.parametrize("state", ["switched_state", "spot3d_state"])
    def test_tangent_and_corrector(self, state, request):
        m, u, prob = request.getfixturevalue(state)
        work = ct.FemWorkspace(m, prob)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        t_old = old_compute_tangent(work, u, prob, seed)
        t_new = ct.compute_tangent(work, u, prob, seed)
        assert np.abs(t_new - t_old).max() <= 1e-10 * np.abs(t_old).max()
        p0, ds = prob.get_param(), 0.05
        args = (work, prob, u + ds * t_new[:-1], p0 + ds * t_new[-1], u, p0,
                t_new, ds, 1e-10, 10)
        u_old, p_old, it_old, ok_old = old_correct(*args)
        u_new, p_new, it_new, ok_new = ct._correct(*args)
        assert ok_old and ok_new and it_old == it_new
        assert np.abs(u_new - u_old).max() <= 1e-10 * np.abs(u_old).max()
        assert abs(p_new - p_old) <= 1e-10 * max(1.0, abs(p_old))


class TestFailurePaths:
    def test_stability_index_factorization_failure(self, monkeypatch, caplog):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=0.4)

        def singular(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(ct, "DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(ct, "factorize", singular)
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) is None
        assert "factorizing the reduced pencil failed" in caplog.text

    def test_critical_eigenpair_factorization_failure(self, monkeypatch):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=0.4)

        def singular(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(ct, "DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(ct, "factorize", singular)
        with pytest.raises(ct.ContinuationError):
            ct.critical_eigenpair(m, np.zeros(m.num_nodes), prob)

    def test_adapt_in_cont_rolls_back_on_adaptation_error(self, monkeypatch,
                                                          caplog):
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        trop = ac.AdaptOptions.for_dim(2)
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08, nsteps=4,
                                           amod=2, bif_detection=False)

        def broken(*args, **kwargs):
            raise ac.AdaptationError("move pass produced an invalid mesh")

        monkeypatch.setattr(ct, "two_step_adapt", broken)
        work = ct.FemWorkspace(m, prob)
        res = ct.newton_solve(m, np.zeros(m.num_nodes), prob, work=work)
        state = ct.ContinuationState(m, res.u, prob, ds=0.05)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        state.tangent = ct.compute_tangent(work, state.u, prob, seed)
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            out, records, out_work, ok = ct.adapt_in_cont(
                state, settings, trop, None, work)
        assert not ok
        assert out is state and out_work is work and len(records) == 1
        assert "mesh adaptation failed" in caplog.text
        # the run goes on on the old mesh
        result = ct.run_continuation(
            ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.05),
            settings, trop=trop)
        assert result.stop_reason == "nsteps reached"
        assert all(r.np == m.num_nodes for r in result.records)
        assert not any(r.flag == "ADAPT" for r in result.records)


class TestShiftInvert:
    def test_sparse_path_counts_match_dense(self, monkeypatch):
        m = cos_mesh(21, 11)
        expected = {lam: ct.stability_index(m, np.zeros(m.num_nodes),
                                            cos_problem(d=0.0, lam=lam))
                    for lam in (0.1, 0.4, 1.2)}
        assert expected == {0.1: 0, 0.4: 1, 1.2: 4}
        monkeypatch.setattr(ct, "DENSE_EIG_LIMIT", 10)
        for lam, count in expected.items():
            prob = cos_problem(d=0.0, lam=lam)
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) == count
        val, phi = ct.critical_eigenpair(m, np.zeros(m.num_nodes),
                                         cos_problem(d=0.0, lam=0.3))
        monkeypatch.setattr(ct, "DENSE_EIG_LIMIT", 3000)
        val_d, phi_d = ct.critical_eigenpair(m, np.zeros(m.num_nodes),
                                             cos_problem(d=0.0, lam=0.3))
        assert val == pytest.approx(val_d, rel=1e-8)
        assert abs(abs(phi @ phi_d) / (phi_d @ phi_d) - 1.0) < 1e-6
