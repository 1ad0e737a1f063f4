"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria that share an
expensive continuation run reuse module-scoped fixtures.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

import anisocont as ac
from anisocont import adapt, continuation as ct, metric
from conftest import cos_problem, spot_problem_2d, spot_problem_3d

LAM_ANALYTIC = (0.3125, 0.5, 0.8125)
L_LOW = 1.0 / np.sqrt(2.0)
L_UP = np.sqrt(2.0)

# one line per criterion, echoed in the pytest terminal summary (see conftest)
RESULTS = []


@contextmanager
def criterion(number, name, budget_s, fixture_s=0.0):
    """Report one acceptance criterion; `fixture_s` charges shared fixture
    runtime against this criterion's budget."""
    start = time.time()

    def report(verdict):
        line = (f"ACCEPTANCE {number:02d} {name}: {verdict} "
                f"({fixture_s + time.time() - start:.1f}s)")
        RESULTS.append(line)
        print("\n" + line)

    try:
        yield
    except Exception:
        report("FAIL")
        raise
    if fixture_s + time.time() - start < budget_s:
        report("PASS")
    else:
        report("FAIL (over time budget)")
        raise AssertionError(f"criterion {number} exceeded its "
                             f"{budget_s}s time budget")


@pytest.fixture(scope="module")
def cos_run():
    """Trivial-branch continuation on the h <= 0.15 mesh, detection on."""
    mesh = ac.build_rect_mesh(2 * np.pi, np.pi, 85, 43)
    assert 4 * np.pi / 84 <= 0.15
    prob = cos_problem(d=0.0, lam=-0.2)
    settings = ct.ContinuationSettings(ds0=0.02, ds_min=1e-8, ds_max=0.05,
                                       nsteps=60, bif_detection=True,
                                       param_max=0.9)
    state = ct.ContinuationState(mesh, np.zeros(mesh.num_nodes), prob, ds=0.02)
    t0 = time.time()
    result = ct.run_continuation(state, settings)
    return mesh, result, time.time() - t0


@pytest.fixture(scope="module")
def tanh_adapted():
    """Adapted mesh for the layered test function.

    Each tradapt call is re-driven by analytic nodal values, as within
    continuation where the field is re-solved after every adaptation; calls
    repeat until the node count settles (less than 15% change)."""
    f = lambda nodes: np.tanh(10.0 * (nodes[:, 0] - 1.0))
    mesh = ac.build_rect_mesh(2.0, 2.0, 41, 41)
    opts = ac.AdaptOptions.for_dim(2, innerit=10)
    counts = [mesh.num_nodes]
    for _ in range(12):
        u = f(mesh.nodes)
        mesh, u, stats = ac.tradapt(mesh, u, opts)
        counts.append(stats.np_after)
        if abs(counts[-1] - counts[-2]) < 0.15 * counts[-2]:
            break
    return mesh, f, opts, counts


@pytest.fixture(scope="module")
def wspot2d_run():
    mesh = ac.build_rect_mesh(2 * np.pi, np.pi, 33, 17)
    prob = spot_problem_2d(xi=0.0)
    settings = ct.ContinuationSettings(ds0=0.05, ds_min=1e-8, ds_max=0.06,
                                       nsteps=80, amod=5, bif_detection=False,
                                       param_max=4.0)
    trop = ac.AdaptOptions.for_dim(
        2, eta_policy=metric.EtaPolicy.linear_in_np(1e-6))
    trcop = ac.CoarsenOptions.from_trop(trop, npb=400, crmax=10)
    state = ct.ContinuationState(mesh, np.zeros(mesh.num_nodes), prob, ds=0.05)
    t0 = time.time()
    result = ct.run_continuation(state, settings, trop=trop, trcop=trcop)
    return result, time.time() - t0


def test_criterion_01_bifurcation_values(cos_run):
    with criterion(1, "bifurcation values", 120, fixture_s=cos_run[2]):
        mesh, result, _ = cos_run
        bps = [e for e in result.events if isinstance(e, ct.BPEvent)]
        assert len(bps) == 3
        params = [e.param for e in bps]
        assert params == sorted(params)
        for got, ana in zip(params, LAM_ANALYTIC):
            assert abs(got - ana) <= 5e-3, (got, ana)


def test_criterion_02_eigenfunction_shape(cos_run):
    with criterion(2, "eigenfunction shape", 60):
        mesh, result, _ = cos_run
        bp = [e for e in result.events if isinstance(e, ct.BPEvent)][0]
        x, y = bp.mesh.nodes[:, 0], bp.mesh.nodes[:, 1]
        phi_ana = np.sin((x + 2 * np.pi) / 4.0) * np.sin((y + np.pi) / 2.0)
        corr = abs(bp.phi @ phi_ana) / (np.linalg.norm(bp.phi)
                                        * np.linalg.norm(phi_ana))
        assert corr > 0.99, corr


def test_criterion_03_sw_decoding():
    with criterion(3, "sw decoding", 10):
        table = {0: "", 1: "m", 2: "r", 3: "mr", 4: "c", 5: "cm", 6: "cr",
                 7: "crm", 8: "s", 9: "ms", 10: "rs", 11: "mrs", 12: "cs",
                 13: "cms", 14: "crs", 15: "crms"}
        for sw, actions in table.items():
            mask = ac.decode_sw(sw)
            got = "".join(ch for ch, on in zip(
                "mrcs", (mask.move, mask.refine, mask.coarsen, mask.swap))
                if on)
            assert sorted(got) == sorted(actions), sw
            assert ac.encode_sw(mask) == sw


def test_criterion_04_coarsening_budget():
    with criterion(4, "coarsening budget", 60):
        mesh = ac.build_rect_mesh(2.0, 2.0, 80, 80)
        assert mesh.num_nodes >= 6000
        u = np.tanh(10.0 * (mesh.nodes[:, 0] - 1.0))
        trop = ac.AdaptOptions.for_dim(2)
        trcop = ac.CoarsenOptions.from_trop(trop, npb=3000, crmax=10)
        _, _, stats = ac.two_step_adapt(mesh, u, trop, trcop)
        assert stats.np_after_coarsen is not None
        assert stats.np_after_coarsen <= 3300, stats.np_after_coarsen


def test_criterion_05_metric_uniformity_and_interp_error(tanh_adapted):
    with criterion(5, "metric uniformity + interpolation error", 60):
        mesh, f, opts, counts = tanh_adapted
        # idempotence in the limit: the last call changed node count < 15%
        assert abs(counts[-1] - counts[-2]) < 0.15 * counts[-2], counts

        # uniform structured mesh at matched node count (within 10%)
        n_side = int(round(np.sqrt(mesh.num_nodes)))
        uniform = ac.build_rect_mesh(2.0, 2.0, n_side, n_side)
        assert abs(uniform.num_nodes - mesh.num_nodes) <= 0.1 * mesh.num_nodes

        xs = np.linspace(-1.999, 1.999, 301)
        sample = np.array([(x, y) for y in xs for x in xs])

        def linf_interp_error(m):
            probe = ac.SimplicialMesh(2, sample, np.zeros((0, 3), dtype=int), m.box)
            vals = ac.interpolate(m, f(m.nodes), probe)
            return np.abs(vals - f(sample)).max()

        err_adapted = linf_interp_error(mesh)
        err_uniform = linf_interp_error(uniform)
        print(f"\n  np={mesh.num_nodes} (uniform {uniform.num_nodes}); "
              f"Linf error adapted {err_adapted:.3e} vs uniform "
              f"{err_uniform:.3e}")
        assert err_adapted <= err_uniform

        # edge-length census in the final metric
        z = f(mesh.nodes)
        psi = metric.metric_for_field(mesh, z, opts.eta_policy, opts.ppar)
        lens = metric.edge_lengths(mesh.nodes, psi.tensors, mesh.edges())
        frac = float(np.mean((lens >= 0.85 * L_LOW) & (lens <= 1.15 * L_UP)))
        print(f"  edge fraction in [0.85*L_low, 1.15*L_up]: {frac:.3f}")
        assert frac >= 0.85, frac


def test_criterion_06_mesh_validity_fuzz():
    with criterion(6, "mesh validity fuzz", 300):
        rng = np.random.default_rng(42)
        mesh = ac.build_rect_mesh(1.0, 1.0, 9, 9)
        f = lambda nodes: 0.05 * np.sin(2 * nodes[:, 0]) * np.cos(2 * nodes[:, 1])
        tol = 1e-9 * mesh.diameter()
        for it in range(500):
            sw = int(rng.integers(0, 16))
            eta = float(10.0 ** rng.uniform(-4, -2))
            opts = ac.AdaptOptions.for_dim(
                2, sw=sw, innerit=1, eta_policy=metric.EtaPolicy.constant(eta))
            u = f(mesh.nodes)
            # tradapt validates after every enabled pass and raises on defects
            mesh, u, _ = ac.tradapt(mesh, u, opts)
            if mesh.num_nodes > 2500:    # keep the fuzz bounded
                trcop = ac.CoarsenOptions.from_trop(opts, npb=800, crmax=2)
                mesh, u, _ = ac.tradapt(mesh, u, trcop)
            rep = ac.validate(mesh)
            assert rep.total_defects == 0, (it, rep)
            smap = mesh.segment_map
            for i in range(mesh.num_nodes):
                for seg in mesh.boundary_node_flags[i]:
                    assert smap.on_segment(mesh.nodes[i], seg, tol), (it, i)


def test_criterion_07_adaptation_transparency_2d(wspot2d_run):
    with criterion(7, "2D spot adaptation transparency", 300,
                   fixture_s=wspot2d_run[1]):
        result, _ = wspot2d_run
        accepted = max(r.step for r in result.records)
        assert accepted >= 40, accepted
        jumps = []
        for i, rec in enumerate(result.records):
            if rec.flag == "ADAPT":
                prev = result.records[i - 1]
                jumps.append(abs(rec.l2 - prev.l2) / max(prev.l2, 1e-30))
        assert jumps
        print(f"\n  steps={accepted}, ADAPT events={len(jumps)}, "
              f"max jump={max(jumps):.4%}")
        assert max(jumps) < 0.02, jumps


def test_criterion_08_3d_smoke():
    with criterion(8, "3D spot smoke", 900):
        mesh = ac.build_box_mesh(np.pi, 3 * np.pi / 2, np.pi, 13, 21, 13)
        assert abs(mesh.num_nodes - 3543) < 200
        prob = spot_problem_3d()
        settings = ct.ContinuationSettings(ds0=0.08, ds_min=1e-8, ds_max=0.15,
                                           nsteps=20, amod=5,
                                           bif_detection=False)
        trop = ac.AdaptOptions.for_dim(
            3, eta_policy=metric.EtaPolicy.linear_in_np(1e-5))
        trcop = ac.CoarsenOptions.from_trop(trop, npb=3000, crmax=10)
        state = ct.ContinuationState(mesh, np.zeros(mesh.num_nodes), prob,
                                     ds=0.08)
        result = ct.run_continuation(state, settings, trop=trop, trcop=trcop)
        assert max(r.step for r in result.records) == 20
        post_adapt = [r.np for r in result.records if r.flag == "ADAPT"]
        assert post_adapt
        assert max(r.np for r in result.records) <= 2 * max(post_adapt)
        final = result.state
        assert ac.validate(final.mesh).total_defects == 0
        print(f"\n  post-adaptation np: {post_adapt}")


def test_criterion_09_jacobian_fd_consistency():
    with criterion(9, "Jacobian/FD consistency", 60):
        rng = np.random.default_rng(11)
        cases = []
        for k in range(10):   # 2D
            nx, ny = int(rng.integers(4, 8)), int(rng.integers(4, 8))
            mesh = ac.build_rect_mesh(1 + k * 0.2, 1.0, nx, ny)
            prob = cos_problem(d=float(rng.uniform(-1, 1)),
                               lam=float(rng.uniform(-1, 1)))
            cases.append((mesh, prob))
        for k in range(10):   # 3D
            n = int(rng.integers(3, 5))
            mesh = ac.build_box_mesh(1.0, 1.0 + 0.1 * k, 1.0, n, n, n)
            prob = spot_problem_3d(xi=float(rng.uniform(-1, 1)),
                                   lam=float(rng.uniform(-0.5, 0.5)))
            cases.append((mesh, prob))
        for mesh, prob in cases:
            u = rng.standard_normal(mesh.num_nodes) * 0.5
            J = ac.jacobian(mesh, u, prob).toarray()
            Jfd = np.zeros_like(J)
            for j in range(mesh.num_nodes):
                h = 1e-6 * (1 + abs(u[j]))
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                Jfd[:, j] = (ac.residual(mesh, up, prob)
                             - ac.residual(mesh, um, prob)) / (2 * h)
            rel = np.abs(J - Jfd).max() / max(1.0, np.abs(J).max())
            assert rel < 1e-6, rel


def test_criterion_10_stability_index_oracle(cos_run):
    with criterion(10, "stability index oracle", 60):
        mesh, _, _ = cos_run
        prob = cos_problem(d=0.0, lam=1.2)
        n_neg = ct.stability_index(mesh, np.zeros(mesh.num_nodes), prob)
        assert n_neg == 4, n_neg
