import numpy as np
import pytest

import anisocont as ac
from anisocont import continuation as ct
from anisocont import metric
from conftest import cos_problem, spot_problem_2d

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
