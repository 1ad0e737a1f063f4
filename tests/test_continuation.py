import logging
from dataclasses import replace
from types import SimpleNamespace

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

    def test_reduced_mass_built_only_for_eigensolves(self):
        m = cos_mesh(21, 11)
        prob = cos_problem(d=0.0, lam=0.4)
        work = ct.FemWorkspace(m, prob)
        u = np.zeros(m.num_nodes)
        assert ct.stability_index(m, u, prob, work) == 1
        assert "M_free" not in vars(work)        # the inertia count needs none
        ct.critical_eigenpair(m, u, prob, work)
        B = work.M_free
        ct.critical_eigenpair(m, u, prob, work)
        assert work.M_free is B
        free = work.free
        assert (B != work.M[free][:, free]).nnz == 0

    def test_pivot_count_matches_eigh(self):
        # random sparse symmetric indefinite matrices, from diagonally
        # dominant to far from it
        rng = np.random.default_rng(3)
        for _ in range(24):
            n = int(rng.integers(5, 80))
            R = sp.random(n, n, density=0.1, random_state=rng)
            S = R + R.T
            rowsum = np.asarray(abs(S).sum(axis=1)).ravel()
            diag = rng.choice([-1.0, 1.0], n) * (rng.uniform(0.3, 1.5) * rowsum
                                                 + 0.1)
            A = (S + sp.diags(diag)).tocsc()
            expected = int(np.sum(np.linalg.eigvalsh(A.toarray()) < 0))
            count, lu = ct._inertia(A)
            assert count == expected and lu.shape == A.shape

    def test_zero_diagonal_is_rejected(self):
        # a zero diagonal forces an off-diagonal pivot, and U's diagonal no
        # longer carries the inertia
        A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert ct._inertia(A) == (None, "off-diagonal pivot")


class TestPencil:
    """The count is taken on the symmetric part of the reduced Jacobian.
    Off the trivial branch J = K - M diag(f'(u)) is not symmetric; this
    dense oracle compares the count with the true pencil (J, M) on every
    state of a switched branch that passes a fold."""

    def test_count_matches_true_pencil_on_switched_branch(self, bp):
        assert abs(bp.param - 0.3139) < 1e-3
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, ds_min=1e-8,
                                           nsteps=30, bif_detection=True)
        prob = cos_problem(d=0.0, lam=bp.param)
        start = ct.branch_switch(
            ct.ContinuationState(bp.mesh, bp.u, prob, ds=0.02), bp.phi,
            settings)
        states = []
        result = ct.run_continuation(
            start, settings, on_record=lambda rec, st: states.append((rec, st)))
        assert len(states) == 31
        assert [e.step for e in result.events
                if isinstance(e, ct.FoldEvent)] == [8]
        work = ct.FemWorkspace(bp.mesh, prob)
        free = work.free
        M = work.M[free][:, free].toarray()
        L = np.linalg.cholesky(M)
        asym = 0.0
        for rec, st in states:
            J = work.jacobian(st.u, st.prob)[free][:, free].toarray()
            asym = max(asym, np.abs(J - J.T).max() / np.abs(J).max())
            # eig(J, M) = eig(L^-1 J L^-T) with M = L L'
            C = scipy.linalg.solve_triangular(L, J, lower=True)
            C = scipy.linalg.solve_triangular(L, C.T, lower=True).T
            true_count = int(np.sum(np.linalg.eigvals(C).real < 0))
            sym_count = int(np.sum(scipy.linalg.eigh(
                0.5 * (J + J.T), M, eigvals_only=True) < 0))
            assert rec.n_neg == true_count == sym_count, rec.step
        assert asym > 1e-3      # the two pencils do differ


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


    @staticmethod
    def spot_run(monkeypatch, bif_detection, on_adapt=None):
        """4 steps of the 17x9 spot problem adapting every 2 steps; returns
        the result, the workspaces made in order and the stability counts."""
        works, counts = [], []
        real_work, real_count = ct.FemWorkspace, ct.stability_index
        real_adapt = ct.two_step_adapt

        def workspace(*args):
            works.append(real_work(*args))
            return works[-1]

        def adapt(*args):
            if on_adapt:
                on_adapt(works)
            return real_adapt(*args)

        def count(mesh, u, prob, work):
            n_neg = real_count(mesh, u, prob, work)
            counts.append((u.copy(), work.solver.lu is None))
            return n_neg

        monkeypatch.setattr(ct, "FemWorkspace", workspace)
        monkeypatch.setattr(ct, "stability_index", count)
        monkeypatch.setattr(ct, "two_step_adapt", adapt)
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        trop = ac.AdaptOptions.for_dim(
            2, eta_policy=metric.EtaPolicy.linear_in_np(1e-3))
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08, nsteps=4,
                                           amod=2, bif_detection=bif_detection)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.05)
        result = ct.run_continuation(state, settings, trop=trop)
        assert [r.flag for r in result.records].count("ADAPT") == 2
        return result, works, counts

    def test_stability_counted_once_per_state(self, monkeypatch):
        result, _, counts = self.spot_run(monkeypatch, bif_detection=True)
        assert not result.events
        # the start, 4 steps and the 2 re-solved states; the state before
        # each adaptation keeps the count its step made
        assert len(counts) == 7
        assert len({u.tobytes() for u, _ in counts}) == 7
        assert all(r.n_neg is not None for r in result.records)
        # a count releases the workspace's LU: one LU at a time
        assert all(released for _, released in counts)

    def test_old_workspace_drops_its_lu_before_adapting(self, monkeypatch):
        alive = []
        result, works, _ = self.spot_run(
            monkeypatch, bif_detection=False,
            on_adapt=lambda ws: alive.append([w.solver.lu is not None
                                              for w in ws]))
        # no workspace holds an LU while the mesh adapts, and the
        # pre-adaptation ones hold none afterwards
        assert alive == [[False], [False, False]]
        assert len(works) == 3
        assert all(w.solver.lu is None for w in works[:-1])
        assert works[-1].solver.lu is not None

    def test_old_workspace_drops_its_jacobian_before_adapting(self, monkeypatch):
        held = []
        self.spot_run(monkeypatch, bif_detection=False,
                      on_adapt=lambda ws: held.append(
                          [w._J_cache[2] is not None for w in ws]))
        assert held == [[False], [False, False]]

    def test_one_solver_per_workspace(self, monkeypatch):
        """Newton, the tangents and the steps all solve on `work.solver`:
        across one adaptation each workspace builds the only solver made."""
        works, solvers = [], []
        real_work, real_solver = ct.FemWorkspace, ct.BorderedSolver

        def workspace(*args):
            works.append(real_work(*args))
            return works[-1]

        def solver(*args, **kwargs):
            solvers.append(real_solver(*args, **kwargs))
            return solvers[-1]

        monkeypatch.setattr(ct, "FemWorkspace", workspace)
        monkeypatch.setattr(ct, "BorderedSolver", solver)
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        trop = ac.AdaptOptions.for_dim(
            2, eta_policy=metric.EtaPolicy.linear_in_np(1e-3))
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08, nsteps=2,
                                           amod=2, bif_detection=True)
        state = ct.ContinuationState(m, np.zeros(m.num_nodes), prob, ds=0.05)
        result = ct.run_continuation(state, settings, trop=trop)
        assert [r.flag for r in result.records].count("ADAPT") == 1
        assert len(works) == len(solvers) == 2
        assert all(w.solver is s for w, s in zip(works, solvers))
        assert all(s.factorizations > 0 for s in solvers)


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


def newton_path(work, u, prob, scale=1.05):
    """Newton iterates (spsolve, no reuse) from `scale * u` back to the
    solution, the solution included."""
    its = [scale * u]
    G = work.residual(its[-1], prob)
    while np.abs(G).max() > 1e-10:
        its.append(its[-1] + spla.spsolve(work.jacobian(its[-1], prob).tocsc(), -G))
        G = work.residual(its[-1], prob)
        assert len(its) < 10
    return its


class TestReusedFactorization:
    """Solves on the LU of the previous Newton iterate's Jacobian, as the
    later Newton iterations and the tangent do."""

    @pytest.mark.parametrize("state", ["cos_state", "switched_state",
                                       "spot3d_state"])
    def test_matches_dense_and_fresh_solves(self, state, request):
        m, u, prob = request.getfixturevalue(state)
        work = ct.FemWorkspace(m, prob)
        n = m.num_nodes
        rng = np.random.default_rng(7)
        g = work.dresidual_dparam(u, prob)
        r, c = work.border(rng.standard_normal(n), 0.3)
        f, h = rng.standard_normal(n), 0.7
        its = newton_path(work, u, prob)
        assert len(its) >= 3
        for prev, cur in zip(its, its[1:]):
            J = work.jacobian(cur, prob)
            plain, bordered = (ct.BorderedSolver(work.jacobian(prev, prob))
                               for _ in range(2))
            plain.update(J)
            bordered.update(J)
            fresh = ct.BorderedSolver(J)
            for A, got, ref, rhs in (
                    (J.toarray(), plain.solve(f), fresh.solve(f), f),
                    (bordered_dense(J, g, r, c),
                     np.append(*bordered.solve_bordered(g, r, c, f, h)),
                     np.append(*fresh.solve_bordered(g, r, c, f, h)),
                     np.append(f, h))):
                want = np.linalg.solve(A, rhs)
                # a kept LU stops refining at the backward-error bound, so
                # its forward error may reach cond(A) times that bound
                tol = max(1e-10, 2 * np.linalg.cond(A, np.inf) * ct.BACKWARD_TOL)
                assert np.abs(got - want).max() <= tol * np.abs(want).max()
                assert np.abs(got - ref).max() <= tol * np.abs(want).max()
                backward = np.abs(rhs - A @ got).max() / (
                    np.abs(A).sum(axis=1).max() * np.abs(got).max()
                    + np.abs(rhs).max())
                assert backward <= ct.BACKWARD_TOL
        # the last step is the tangent's, from the last iterate to the
        # solution: refinement alone does it
        for solver in (plain, bordered):
            assert solver.refinements > 0
            assert solver.refactors == 0 and solver.factorizations == 1

    def test_far_matrix_refactors_once(self, cos_state):
        m, u, prob = cos_state
        work = ct.FemWorkspace(m, prob)
        J = work.jacobian(u, prob)
        far = prob.copy()
        far.lam = 5.0
        J_far = work.jacobian(np.zeros(m.num_nodes), far)
        rng = np.random.default_rng(8)
        n = m.num_nodes
        g = work.dresidual_dparam(u, prob)
        r, c = work.border(rng.standard_normal(n), 0.3)
        f, h = rng.standard_normal(n), 0.7
        solver = ct.BorderedSolver(J_far)
        solver.update(J)
        x = solver.solve(f)
        assert solver.refactors == 1 and solver.factorizations == 2
        assert solver.fresh
        want = np.linalg.solve(J.toarray(), f)
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
        solver = ct.BorderedSolver(J_far)
        solver.update(J)
        z = np.append(*solver.solve_bordered(g, r, c, f, h))
        assert solver.refactors == 1 and solver.factorizations == 2
        assert solver.fallbacks == 0
        want = np.linalg.solve(bordered_dense(J, g, r, c), np.append(f, h))
        assert np.abs(z - want).max() <= 1e-10 * np.abs(want).max()

    def test_one_factorization_per_step(self, switched_state, monkeypatch):
        m, u, prob = switched_state
        work = ct.FemWorkspace(m, prob)
        state = ct.ContinuationState(m, u, prob, ds=0.05)
        # oriented away from the trivial branch
        state.tangent = ct.compute_tangent(work, u, prob, np.append(u, 0.0))
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.05,
                                           bif_detection=False)
        calls = []
        real = ct.factorize

        def counted(A, **kwargs):
            calls.append(A.shape)
            return real(A, **kwargs)

        monkeypatch.setattr(ct, "factorize", counted)
        new_state, info = ct.cont_step(state, settings, work)
        assert new_state is not None
        assert info["newton_iters"] >= 2 and info["ds_used"] == 0.05
        assert len(calls) == 1 and info["factorizations"] == 1
        assert info["refinements"] > 0

    def test_newton_factors_once(self, spot3d_state):
        m, u, prob = spot3d_state
        work = ct.FemWorkspace(m, prob)
        res = ct.newton_solve(m, 1.05 * u, prob, work=work)
        assert res.converged and res.iterations >= 2
        assert res.factorizations == 1 and res.refinements > 0
        assert res.factorizations == work.solver.factorizations
        # counts are the solve's own, not the workspace solver's totals
        again = ct.newton_solve(m, 1.05 * u, prob, work=work)
        assert again.factorizations == 1
        assert again.refinements == res.refinements
        assert work.solver.factorizations == 2

    @staticmethod
    def spot_start():
        """A solved 2D spot state with its tangent, and its workspace holding
        Newton's LU, as `run_continuation` leaves them."""
        m = cos_mesh(17, 9)
        prob = spot_problem_2d(xi=0.0)
        work = ct.FemWorkspace(m, prob)
        res = ct.newton_solve(m, np.zeros(m.num_nodes), prob, work=work)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        tangent = ct.compute_tangent(work, res.u, prob, seed)
        return ct.ContinuationState(m, res.u, prob, tangent, 0, 0.05), work

    def test_steps_keep_the_workspace_lu(self):
        state, work = self.spot_start()
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.08,
                                           bif_detection=False)
        first, _ = ct.cont_step(state, settings, work)
        total = work.solver.factorizations
        second, info = ct.cont_step(first, settings, work)
        # counts are the step's own, not the solver's running totals
        assert info["factorizations"] == 0 and total >= 1
        assert work.solver.factorizations == total
        assert info["refinements"] > 0 and info["newton_iters"] >= 2
        fresh_work = ct.FemWorkspace(state.mesh, state.prob)
        fresh, fresh_info = ct.cont_step(first, settings, fresh_work)
        assert fresh_info["factorizations"] == 1
        assert fresh_info["newton_iters"] == info["newton_iters"]
        assert np.abs(second.u - fresh.u).max() <= 1e-10 * np.abs(fresh.u).max()
        p, p_fresh = second.prob.get_param(), fresh.prob.get_param()
        assert abs(p - p_fresh) <= 1e-10 * max(1.0, abs(p_fresh))
        assert np.abs(second.tangent - fresh.tangent).max() <= 1e-10

    def test_ds_halving_retry_keeps_the_lu(self, monkeypatch):
        state, work = self.spot_start()
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.3,
                                           newton_max_it=2,
                                           bif_detection=False)
        attempts = []
        real = ct._correct

        def counted(*args):
            before = work.solver.factorizations
            out = real(*args)
            attempts.append((out[3], work.solver.factorizations - before))
            return out

        monkeypatch.setattr(ct, "_correct", counted)
        new_state, info = ct.cont_step(replace(state, ds=0.3), settings, work)
        assert new_state is not None and info["ds_used"] < 0.3
        # failed attempts, then one that converged; the retries start from
        # the LU the attempt before them left, and factor nothing
        assert len(attempts) >= 2
        assert [ok for ok, _ in attempts] == [False] * (len(attempts) - 1) + [True]
        assert all(lus == 0 for _, lus in attempts[1:])
        assert info["factorizations"] == attempts[0][1] <= 1

    def test_slow_contraction_refactors_early(self, cos_state, monkeypatch):
        """A kept LU on which refinement contracts, but too slowly to reach
        the bound within MAX_SWEEPS, is refactored after two sweeps."""
        m, u, prob = cos_state
        work = ct.FemWorkspace(m, prob)
        J = work.jacobian(u, prob)
        far = prob.copy()
        far.lam = -0.1                       # prob.lam is -0.2
        J_far = work.jacobian(u, far)
        rng = np.random.default_rng(8)
        n = m.num_nodes
        g = work.dresidual_dparam(u, prob)
        r, c = work.border(rng.standard_normal(n), 0.3)
        f, h = rng.standard_normal(n), 0.7

        def kept():
            solver = ct.BorderedSolver(J_far)
            solver.update(J)
            seen = []
            real = solver._refactor
            solver._refactor = lambda: seen.append(solver.refinements) or real()
            return solver, seen

        for solve, A, rhs in (
                (lambda s: s.solve(f), J.toarray(), f),
                (lambda s: np.append(*s.solve_bordered(g, r, c, f, h)),
                 bordered_dense(J, g, r, c), np.append(f, h))):
            solver, seen = kept()
            got = solve(solver)
            assert seen == [2] and solver.refactors == 1
            want = np.linalg.solve(A, rhs)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # the contraction is real: with a far larger cap, refinement alone
        # gets there, in more sweeps than MAX_SWEEPS allows
        cap = ct.MAX_SWEEPS
        monkeypatch.setattr(ct, "MAX_SWEEPS", 100)
        solver, seen = kept()
        solver.solve(f)
        assert seen == [] and solver.refinements > cap


def backward_error(A, z, b):
    return np.abs(b - A @ z).max() / (np.abs(A).sum(axis=1).max() * np.abs(z).max()
                                      + np.abs(b).max())


class TestForcing:
    """Newton and corrector solves stop refining once their residual is at
    most FORCING min(g, 1) g; the tangent keeps the backward-error bound."""

    @staticmethod
    def slow_kept_lu(cos_state):
        """A factory of solvers on a kept LU from which refinement needs more
        than MAX_SWEEPS sweeps to reach BACKWARD_TOL (see
        test_slow_contraction_refactors_early), f, and that LU's iterates
        z_k and residuals max|f - J z_k|, z_0 the plain back-solve."""
        m, u, prob = cos_state
        work = ct.FemWorkspace(m, prob)
        J = work.jacobian(u, prob)
        far = prob.copy()
        far.lam = -0.1
        J_far = work.jacobian(u, far)
        f = np.random.default_rng(8).standard_normal(m.num_nodes)

        def kept():
            solver = ct.BorderedSolver(J_far)
            solver.update(J)
            return solver

        lu, z, iterates, errs = kept().lu, None, [], []
        for _ in range(ct.MAX_SWEEPS + 2):
            z = lu.solve(f) if z is None else z + lu.solve(f - J @ z)
            iterates.append(z)
            errs.append(np.abs(f - J @ z).max())
        return kept, f, iterates, errs

    def test_stops_at_the_first_sweep_within_atol(self, cos_state):
        kept, f, iterates, errs = self.slow_kept_lu(cos_state)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        for k in (0, 3):
            solver = kept()
            x = solver.solve(f, atol=0.5 * (errs[k] + errs[k + 1]))
            assert solver.refinements == k + 1 and solver.refactors == 0
            assert x.tobytes() == iterates[k + 1].tobytes()

    def test_reachable_loose_target_keeps_the_lu(self, cos_state):
        kept, f, _, errs = self.slow_kept_lu(cos_state)
        cap = ct.MAX_SWEEPS
        solver = kept()
        solver.solve(f, atol=errs[cap])
        assert solver.refinements == cap and solver.refactors == 0
        # one sweep further than the cap: refactored early, as with atol = 0
        for atol in (errs[cap + 1], 0.0):
            solver = kept()
            solver.solve(f, atol=atol)
            assert solver.refactors == 1 and solver.fresh

    @pytest.mark.parametrize("state", ["switched_state", "spot3d_state"])
    def test_corrector_refines_less(self, state, request, monkeypatch):
        m, u, prob = request.getfixturevalue(state)
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        p0, ds, tol = prob.get_param(), 0.02, 1e-10

        def corrected():
            work = ct.FemWorkspace(m, prob)
            t = ct.compute_tangent(work, u, prob, seed)     # leaves its LU
            sweeps, lus = work.solver.refinements, work.solver.factorizations
            u1, p1, iters, ok = ct._correct(work, prob, u + ds * t[:-1],
                                            p0 + ds * t[-1], u, p0, t, ds, tol, 10)
            assert ok and work.solver.factorizations == lus
            pr = prob.copy()
            pr.set_param(p1)
            assert np.abs(work.residual(u1, pr)).max() <= tol
            assert abs(work.inner(u1 - u, p1 - p0, t[:-1], t[-1]) - ds) <= tol
            return iters, work.solver.refinements - sweeps

        iters, sweeps = corrected()
        monkeypatch.setattr(ct, "FORCING", 0.0)            # every solve to 1e-12
        exact_iters, exact_sweeps = corrected()
        assert iters == exact_iters >= 2
        assert sweeps < exact_sweeps

    def test_tangent_keeps_the_backward_error_bound(self, spot3d_state):
        m, u, prob = spot3d_state
        work = ct.FemWorkspace(m, prob)
        work.solver.factor(work.jacobian(1.02 * u, prob))
        solves = []
        real = work.solver.solve_bordered

        def recorded(*args, **kwargs):
            solves.append((args, kwargs, real(*args, **kwargs)))
            return solves[-1][2]

        work.solver.solve_bordered = recorded
        seed = np.zeros(m.num_nodes + 1)
        seed[-1] = 1.0
        ct.compute_tangent(work, u, prob, seed)
        (g, r, c, f, h), kwargs, (x, y) = solves[0]
        assert kwargs.get("atol", 0.0) == 0.0
        assert work.solver.factorizations == 1 and work.solver.refinements > 0
        A = bordered_dense(work.jacobian(u, prob), g, r, c)
        assert backward_error(A, np.append(x, y), np.append(f, h)) <= ct.BACKWARD_TOL


class TestJacobianMemo:
    def test_same_state_assembles_once(self, cos_state, monkeypatch):
        m, u, prob = cos_state
        work = ct.FemWorkspace(m, prob)
        calls = []
        real = ct.fem.jacobian
        monkeypatch.setattr(ct.fem, "jacobian",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        v = u.copy()
        J = work.jacobian(v, prob)
        assert work.jacobian(v.copy(), prob.copy()) is J
        assert len(calls) == 1
        v[3] += 1e-3                        # in place, as Newton updates u
        J2 = work.jacobian(v, prob)
        assert J2 is not J and len(calls) == 2
        pr = prob.copy()
        for name, value in (("lambda", 0.1), ("gamma", 2.0), ("c", 0.5),
                            ("d", 0.3)):
            pr.set_param(value, name)
            assert work.jacobian(v, pr) is not J2
        assert len(calls) == 6
        assert np.array_equal(work.jacobian(v, pr).toarray(),
                              real(m, v, pr).toarray())


def products_jacobian(work, u, prob):
    """The CSR Jacobian from sparse products and row scaling, the assembly
    the fixed pattern replaced."""
    n = work.mesh.num_nodes
    K = (prob.c * work.K1).tocsr()
    J = (K - work.M @ sp.diags(ac.fem.nonlinearity_prime(u, prob))).tocsr()
    free, fixed = np.ones(n), np.zeros(n)
    free[work.dir_idx], fixed[work.dir_idx] = 0.0, 1.0
    return (sp.diags(free) @ J + sp.diags(fixed)).tocsr()


def assert_bitwise(A, B):
    assert A.format == B.format == "csc" and A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def jacobian_case(name):
    rng = np.random.default_rng(17)
    if name == "cos_zero":          # K's right-angle entries are exact zeros
        m = cos_mesh(17, 9)
        return m, cos_problem(d=0.0, lam=0.0), np.zeros(m.num_nodes)
    if name == "cos":
        m = cos_mesh(17, 9)
        return m, cos_problem(d=0.4), rng.standard_normal(m.num_nodes)
    if name == "spot2d":            # Dirichlet and Neumann segments, c = 0.5
        m = ac.build_rect_mesh(2.0, 1.0, 15, 9)
        return m, spot_problem_2d(xi=0.2), rng.standard_normal(m.num_nodes)
    m = ac.build_box_mesh(1.0, 1.5, 1.0, 5, 6, 4)
    if name == "spot3d_zero":
        return m, spot_problem_3d(lam=0.0, c=1.0), np.zeros(m.num_nodes)
    return m, spot_problem_3d(xi=0.3, lam=0.2), rng.standard_normal(m.num_nodes)


JACOBIAN_CASES = ["cos_zero", "cos", "spot2d", "spot3d", "spot3d_zero"]


class TestJacobianPattern:
    @pytest.mark.parametrize("case", JACOBIAN_CASES)
    def test_bitwise_the_product_assembly(self, case):
        m, prob, u = jacobian_case(case)
        work = ct.FemWorkspace(m, prob)
        ref = sp.csc_matrix(products_jacobian(work, u, prob))
        J = work.jacobian(u, prob)
        assert_bitwise(J, ref)
        assert_bitwise(ac.jacobian(m, u, prob), ref)
        assert (J.nnz < work.pattern.indices.size) == case.endswith("_zero")

    @pytest.mark.parametrize("case", JACOBIAN_CASES)
    def test_solver_norm_is_scipys(self, case):
        m, prob, u = jacobian_case(case)
        work = ct.FemWorkspace(m, prob)
        J = work.jacobian(u, prob)
        work.solver.update(J)
        assert work.solver._j_norm == spla.norm(J, np.inf)

    @pytest.mark.parametrize("case", JACOBIAN_CASES)
    def test_reduced_symmetric_part(self, case):
        m, prob, u = jacobian_case(case)
        work = ct.FemWorkspace(m, prob)
        A = products_jacobian(work, u, prob)[work.free][:, work.free]
        assert_bitwise(ct._reduced_symmetric(work, u, prob),
                       ((A + A.T) * 0.5).tocsc())


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

        def singular(A, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(ct, "factorize", singular)
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) is None
        assert "factorizing the reduced pencil failed" in caplog.text

    @staticmethod
    def inertia_factor(monkeypatch, fake):
        """Replace the LU of the inertia count (diag_pivot_thresh=0) by
        `fake(lu)`; the shift-invert fallback keeps the real factorization."""
        real = ct.factorize

        def patched(A, diag_pivot_thresh=0.1):
            lu = real(A, diag_pivot_thresh=diag_pivot_thresh)
            return fake(lu) if diag_pivot_thresh == 0.0 else lu

        monkeypatch.setattr(ct, "factorize", patched)

    def assert_fallback(self, caplog, reason):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=0.4)
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) == 1
        rejected = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("inertia count rejected")]
        assert len(rejected) == 1 and reason in rejected[0]

    def test_inertia_off_diagonal_pivot_falls_back(self, monkeypatch, caplog):
        def rows_permuted(lu):
            return SimpleNamespace(perm_r=np.roll(lu.perm_r, 1),
                                   perm_c=lu.perm_c, U=lu.U, solve=lu.solve)

        self.inertia_factor(monkeypatch, rows_permuted)
        self.assert_fallback(caplog, "off-diagonal pivot")

    def test_inertia_backward_error_falls_back(self, monkeypatch, caplog):
        def inaccurate(lu):
            return SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=lu.U,
                                   solve=lambda b: lu.solve(b) * (1 + 1e-6))

        self.inertia_factor(monkeypatch, inaccurate)
        self.assert_fallback(caplog, "backward error")

    def test_inertia_singular_factorization_falls_back(self, monkeypatch,
                                                       caplog):
        def singular(lu):
            raise RuntimeError("Factor is exactly singular")

        self.inertia_factor(monkeypatch, singular)
        self.assert_fallback(caplog, "Factor is exactly singular")

    def test_critical_eigenpair_factorization_failure(self, monkeypatch):
        m = cos_mesh(17, 9)
        prob = cos_problem(d=0.0, lam=0.4)

        def singular(A):
            raise RuntimeError("Factor is exactly singular")

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
        monkeypatch.setattr(ct, "_inertia", lambda A: (None, "forced"))
        for lam, count in expected.items():
            prob = cos_problem(d=0.0, lam=lam)
            assert ct.stability_index(m, np.zeros(m.num_nodes), prob) == count
        u, prob = np.zeros(m.num_nodes), cos_problem(d=0.0, lam=0.3)
        val, phi = ct.critical_eigenpair(m, u, prob)
        # dense oracle: the eigenpair of the reduced pencil closest to zero
        work = ct.FemWorkspace(m, prob)
        w, V = scipy.linalg.eigh(ct._reduced_symmetric(work, u, prob).toarray(),
                                 work.M_free.toarray())
        j = int(np.argmin(np.abs(w)))
        val_d, phi_d = w[j], np.zeros(m.num_nodes)
        phi_d[work.free] = V[:, j] / np.max(np.abs(V[:, j]))
        assert val == pytest.approx(val_d, rel=1e-8)
        assert abs(abs(phi @ phi_d) / (phi_d @ phi_d) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# branch points on the test function mu(s), the eigenvalue nearest 0

def pencil_eigenvalues(mesh):
    """Dense eigenvalues of the Dirichlet-reduced (K, M): on the trivial
    branch J = K - lambda M, so these are its discrete branch points."""
    work = ct.FemWorkspace(mesh, cos_problem())
    free = work.free
    return scipy.linalg.eigh(work.K1[free][:, free].toarray(),
                             work.M_free.toarray(), eigvals_only=True)


def crossing_step(mesh, lam0, ds=0.05):
    """Two accepted trivial-branch states from lam0 that straddle one count
    change, as `run_continuation` hands them to `detect_bifurcation`: the
    new state counted last on the workspace."""
    prob = cos_problem(d=0.0, lam=lam0)
    settings = ct.ContinuationSettings(ds0=ds, ds_max=ds, bif_detection=True)
    work = ct.FemWorkspace(mesh, prob)
    state = ct.ContinuationState(mesh, np.zeros(mesh.num_nodes), prob, ds=ds)
    seed = np.zeros(mesh.num_nodes + 1)
    seed[-1] = 1.0
    state.tangent = ct.compute_tangent(work, state.u, prob, seed)
    n_lo = ct.stability_index(mesh, state.u, prob, work)
    new, info = ct.cont_step(state, settings, work)
    n_hi = ct.stability_index(mesh, new.u, new.prob, work)
    assert n_hi == n_lo + 1
    return state, n_lo, new, n_hi, info["ds_used"], settings, work


class TestBranchPointLocalization:
    def test_located_at_discrete_eigenvalues(self, run):
        eig = pencil_eigenvalues(run.state.mesh)
        bps = [e for e in run.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == 3
        for bp, expected in zip(bps, eig[:3]):
            assert not bp.approximate
            assert abs(bp.param - expected) < 1e-6

    def test_simple_crossings_take_at_most_two_counts(self, monkeypatch):
        inside, per_bp = [], []
        real_count, real_detect = ct.stability_index, ct.detect_bifurcation

        def count(*args):
            if inside:
                per_bp[-1] += 1
            return real_count(*args)

        def detect(*args):
            inside.append(True)
            per_bp.append(0)
            try:
                return real_detect(*args)
            finally:
                inside.pop()

        def no_eigsh(*args, **kwargs):
            raise AssertionError("eigsh is only the count's fallback")

        monkeypatch.setattr(ct, "stability_index", count)
        monkeypatch.setattr(ct, "detect_bifurcation", detect)
        monkeypatch.setattr(spla, "eigsh", no_eigsh)
        m = cos_mesh(25, 13)
        settings = ct.ContinuationSettings(ds0=0.02, ds_max=0.05, nsteps=60,
                                           ds_min=1e-8, bif_detection=True,
                                           param_max=0.9)
        result = ct.run_continuation(
            ct.ContinuationState(m, np.zeros(m.num_nodes),
                                 cos_problem(d=0.0, lam=-0.2), ds=0.02),
            settings)
        bps = [e for e in result.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == len(per_bp) == 3
        assert not any(bp.approximate for bp in bps)
        assert all(calls <= 2 for calls in per_bp), per_bp

    @pytest.mark.parametrize("state", ["trivial", "switched_state"])
    def test_critical_eigenpair_matches_dense(self, state, request):
        if state == "trivial":
            m = cos_mesh(25, 13)
            u, prob = np.zeros(m.num_nodes), cos_problem(d=0.0, lam=0.45)
        else:
            m, u, prob = request.getfixturevalue(state)
        val, phi = ct.critical_eigenpair(m, u, prob)
        work = ct.FemWorkspace(m, prob)
        w, V = scipy.linalg.eigh(ct._reduced_symmetric(work, u, prob).toarray(),
                                 work.M_free.toarray())
        j = int(np.argmin(np.abs(w)))
        phi_d = np.zeros(m.num_nodes)
        phi_d[work.free] = V[:, j] / np.max(np.abs(V[:, j]))
        assert val == pytest.approx(w[j], rel=1e-8)
        assert abs(abs(phi @ phi_d) / (phi_d @ phi_d) - 1.0) < 1e-8

    def test_critical_eigenpair_reuses_the_count_lu(self, monkeypatch):
        m = cos_mesh(21, 11)
        u, prob = np.zeros(m.num_nodes), cos_problem(d=0.0, lam=0.4)
        work = ct.FemWorkspace(m, prob)
        assert ct.stability_index(m, u, prob, work) == 1
        lus = []
        real = ct.factorize
        monkeypatch.setattr(ct, "factorize",
                            lambda *a, **k: lus.append(1) or real(*a, **k))
        val, _ = ct.critical_eigenpair(m, u, prob, work)
        assert not lus                    # inverse iteration on the count's LU
        assert ct.critical_eigenpair(m, u, prob)[0] == pytest.approx(val,
                                                                    rel=1e-10)
        assert len(lus) == 1              # a fresh workspace factors once
        # the solver drops the count's LU before it factors its own
        work.solver.factor(work.jacobian(u, prob))
        assert work.solver.count_lu is None

    def test_corrector_failure_is_approximate(self, monkeypatch, caplog):
        args = crossing_step(cos_mesh(17, 9), 0.29)
        new = args[2]
        monkeypatch.setattr(ct, "_correct",
                            lambda work, prob, u, p, *rest: (u, p, 0, False))
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            bp = ct.detect_bifurcation(*args)
        assert bp.approximate
        assert "corrector failed" in caplog.text
        # the last corrected point is the new state
        assert bp.param == new.prob.get_param() and bp.u is new.u

    def test_count_failure_is_approximate(self, monkeypatch, caplog):
        args = crossing_step(cos_mesh(17, 9), 0.29)
        monkeypatch.setattr(ct, "stability_index", lambda *a: None)
        with caplog.at_level(logging.WARNING, logger=ct.logger.name):
            bp = ct.detect_bifurcation(*args)
        assert bp.approximate
        assert "stability count failed" in caplog.text
        assert bp.param == args[2].prob.get_param()

    def test_double_crossing_by_bisection(self):
        # on a square the Dirichlet modes (1, 2) and (2, 1) share an
        # eigenvalue, also on the mesh, so the count jumps by 2 in one step
        m = ac.build_rect_mesh(np.pi, np.pi, 13, 13)
        eig = pencil_eigenvalues(m)
        assert eig[2] - eig[1] < 1e-10 * eig[1]
        settings = ct.ContinuationSettings(ds0=0.05, ds_max=0.05, nsteps=8,
                                           bif_detection=True)
        result = ct.run_continuation(
            ct.ContinuationState(m, np.zeros(m.num_nodes),
                                 cos_problem(d=0.0, lam=1.0), ds=0.05),
            settings)
        bps = [e for e in result.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == 1
        bp = bps[0]
        assert (bp.n_neg_before, bp.n_neg_after) == (1, 3)
        assert not bp.approximate
        assert abs(bp.param - eig[1]) < settings.bp_param_tol

    def test_bp_state_solves_at_its_parameter(self):
        # with gamma = 0.2 the branch switched off the trivial branch at its
        # second branch point folds back and then loses stability at a
        # branch point of its own, far from u = 0
        m = cos_mesh(25, 13)
        gamma = 0.2
        settings = ct.ContinuationSettings(ds0=0.03, ds_max=0.05, nsteps=20,
                                           bif_detection=True, param_max=0.6)
        trivial = ct.run_continuation(
            ct.ContinuationState(m, np.zeros(m.num_nodes),
                                 cos_problem(d=0.0, lam=0.2, gamma=gamma),
                                 ds=0.03), settings)
        bp = [e for e in trivial.events if isinstance(e, ct.BPEvent)][1]
        prob = cos_problem(d=0.0, lam=bp.param, gamma=gamma)
        settings = replace(settings, ds_max=0.1, nsteps=40, param_max=1.5)
        start = ct.branch_switch(ct.ContinuationState(m, bp.u, prob, ds=0.03),
                                 bp.phi, settings)
        result = ct.run_continuation(start, settings)
        bps = [e for e in result.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == 1 and not bps[0].approximate
        bp = bps[0]
        assert np.abs(bp.u).max() > 1.0
        prob.set_param(bp.param)
        residual = ct.FemWorkspace(m, prob).residual(bp.u, prob)
        assert np.abs(residual).max() <= settings.newton_tol
        assert [r.param_value for r in result.records
                if r.flag == "BP"] == [bp.param]
