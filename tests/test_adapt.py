import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisocont as ac
from anisocont import adapt, continuation, metric
from anisocont import mesh as mesh_module
from anisocont.config import load_config
from anisocont.metric import MetricField

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def uniform_metric(mesh, tensor):
    return MetricField(np.tile(np.asarray(tensor, dtype=float),
                               (mesh.num_nodes, 1, 1)))


def opts2d(**kw):
    return ac.AdaptOptions.for_dim(2, **kw)


# action table: sw -> enabled passes, m/r/c/s for move/refine/coarsen/swap
SW_ACTIONS = {0: "", 1: "m", 2: "r", 3: "mr", 4: "c", 5: "cm", 6: "cr",
              7: "crm", 8: "s", 9: "ms", 10: "rs", 11: "mrs", 12: "cs",
              13: "cms", 14: "crs", 15: "crms"}


class TestActionMask:
    def test_exhaustive_against_table(self):
        for sw, actions in SW_ACTIONS.items():
            mask = ac.decode_sw(sw)
            got = "".join(ch for ch, on in zip(
                "mrcs", (mask.move, mask.refine, mask.coarsen, mask.swap)) if on)
            assert sorted(got) == sorted(actions), sw

    @given(st.integers(0, 15))
    def test_roundtrip(self, sw):
        assert ac.encode_sw(ac.decode_sw(sw)) == sw

    def test_named_examples(self):
        assert ac.decode_sw(5) == adapt.ActionMask(move=True, coarsen=True)
        assert ac.decode_sw(15) == adapt.ActionMask(True, True, True, True)
        assert ac.decode_sw(3) == adapt.ActionMask(move=True, refine=True)
        assert ac.decode_sw(0) == adapt.ActionMask()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ac.decode_sw(16)
        with pytest.raises(ValueError):
            ac.decode_sw(-1)


class TestOptions:
    def test_defaults(self):
        o = ac.AdaptOptions()
        assert o.ppar == 1000 and o.innerit == 2 and o.sw == 15
        assert o.l_low == pytest.approx(1 / np.sqrt(2))
        assert o.l_up == pytest.approx(np.sqrt(2))

    def test_dim_defaults(self):
        assert ac.AdaptOptions.for_dim(2).qual_p == 0.0
        assert ac.AdaptOptions.for_dim(3).qual_p == 2.0

    def test_coarsen_defaults(self):
        o = ac.CoarsenOptions()
        assert o.sw == 5 and o.npb == 0 and o.crmax == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            ac.AdaptOptions(l_low=2.0, l_up=1.0)
        with pytest.raises(ValueError):
            ac.AdaptOptions(innerit=0)
        with pytest.raises(ValueError):
            ac.CoarsenOptions(npb=-1)


def simplex_quality(pts, mats, qual_p):
    """Combined quality of one simplex from its vertex coords and metrics."""
    pts = np.asarray(pts, dtype=float)
    return float(ac.quality(pts, np.asarray(mats, dtype=float),
                            np.arange(len(pts))[None], qual_p)[0])


class TestCombinedQuality:
    def test_identity_metric_reduces_to_euclidean_power(self, square_mesh):
        m = square_mesh
        psi = uniform_metric(m, np.eye(2))
        qe = ac.quality(m.nodes, None, m.elements)
        for qual_p in (0.0, 1.0, 2.0):
            q = ac.quality(m.nodes, psi.tensors, m.elements, qual_p)
            assert q == pytest.approx(qe ** (1 + qual_p), rel=1e-12)

    def test_equilateral_identity_metric(self):
        tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        mats = np.tile(np.eye(2), (3, 1, 1))
        assert simplex_quality(tri, mats, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_anisotropic_equilateral_under_metric(self):
        # map the equilateral triangle through diag(1/2, 1): it becomes
        # equilateral again under the metric diag(4, 1)
        tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        squeezed = tri @ np.diag([0.5, 1.0])
        mats = np.tile(np.diag([4.0, 1.0]), (3, 1, 1))
        assert simplex_quality(squeezed, mats, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_is_zero(self):
        tri = np.array([[0, 0], [1, 0], [2, 0]])
        mats = np.tile(np.eye(2), (3, 1, 1))
        assert simplex_quality(tri, mats, 0.0) == 0.0


class TestCoarsenPass:
    def test_noop_when_all_edges_long(self):
        m = ac.build_rect_mesh(1, 1, 3, 3)      # h = 1 >= l_low under identity
        u = np.zeros(m.num_nodes)
        psi = uniform_metric(m, np.eye(2))
        m2, u2, _, n = adapt.coarsen_pass(m, u, psi, opts2d())
        assert n == 0
        assert m2.num_nodes == m.num_nodes

    @pytest.mark.parametrize("dim", [2, 3])
    def test_noop_skips_editor_in_normal_form(self, dim, monkeypatch):
        # the pass without collapses must still return what the oracle's
        # editor builds (`OracleEditor.to_mesh`), bitwise, without building
        # its own round state
        m = (ac.build_rect_mesh(1, 1, 3, 3) if dim == 2
             else ac.build_box_mesh(1.0, 1.0, 1.0, 3, 3, 3))
        rng = np.random.default_rng(5)
        u = rng.standard_normal(m.num_nodes)
        psi = uniform_metric(m, np.eye(dim))      # h = 1 >= l_low
        opts = ac.CoarsenOptions.from_trop(ac.AdaptOptions.for_dim(dim),
                                           npb=m.num_nodes + 1)
        ref_mesh, ref_u, ref_psi = OracleEditor(m, u, psi, opts.qual_p).to_mesh()

        def no_rounds(*args):
            raise AssertionError("round state built for a pass with nothing to try")

        monkeypatch.setattr(adapt, "_CollapseRounds", no_rounds)
        m2, u2, psi2, n = adapt.coarsen_pass(m, u, psi, opts)
        assert n == 0
        for got, ref in ((m2.nodes, ref_mesh.nodes), (m2.elements, ref_mesh.elements),
                         (m2.boundary_facets, ref_mesh.boundary_facets),
                         (m2.facet_segments, ref_mesh.facet_segments),
                         (m2.box, ref_mesh.box), (u2, ref_u),
                         (psi2.tensors, ref_psi.tensors)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert m2.boundary_node_flags == ref_mesh.boundary_node_flags

    def test_all_short_edges_coarsen(self):
        m = ac.build_rect_mesh(1, 1, 9, 9)      # h = 0.25
        opts = opts2d()
        scale = (opts.l_low / (2 * 0.25)) ** 2
        psi = uniform_metric(m, scale * np.eye(2))
        u = m.nodes[:, 0].copy()
        m2, u2, _, n = adapt.coarsen_pass(m, u, psi, opts)
        assert n > 0
        assert m2.num_nodes < m.num_nodes
        assert ac.validate(m2).total_defects == 0

    def test_corner_nodes_survive(self):
        m = ac.build_rect_mesh(1, 1, 9, 9)
        psi = uniform_metric(m, 1e-4 * np.eye(2))   # everything metric-short
        u = np.zeros(m.num_nodes)
        m2, _, _, _ = adapt.coarsen_pass(m, u, psi, opts2d())
        corners = {(-1, -1), (1, -1), (1, 1), (-1, 1)}
        got = {tuple(np.round(p, 9)) for p in m2.nodes}
        assert corners <= got
        assert ac.validate(m2).total_defects == 0

    def test_values_preserved_at_survivors(self):
        m = ac.build_rect_mesh(1, 1, 9, 9)
        psi = uniform_metric(m, 0.01 * np.eye(2))
        u = np.arange(m.num_nodes, dtype=float)
        m2, u2, _, _ = adapt.coarsen_pass(m, u, psi, opts2d())
        old = {tuple(p): v for p, v in zip(map(tuple, m.nodes), u)}
        for p, v in zip(map(tuple, m2.nodes), u2):
            assert old[p] == v


class OracleEditor:
    """The one-at-a-time collapse editor `adapt.coarsen_pass` replaced, on
    node -> element sets: collapsing r into s removes the elements holding
    both and rewires r's others to s, in place."""

    def __init__(self, mesh, u, psi, qual_p):
        n = mesh.num_nodes
        self.mesh, self.qual_p = mesh, qual_p
        self.coords, self.tensors = mesh.nodes, psi.tensors
        self.u = np.asarray(u, dtype=float)
        self.alive = [True] * n
        self.n_alive_nodes = n
        self.flags = mesh.boundary_node_flags
        self.elems = list(map(tuple, mesh.elements.tolist()))
        self.node2el = [set() for _ in range(n)]
        for e, nodes in enumerate(self.elems):
            for v in nodes:
                self.node2el[v].add(e)
        self.elem_q = adapt.quality(mesh.nodes, psi.tensors, mesh.elements,
                                    qual_p).tolist()

    def plan(self, s, r):
        """The topology of collapsing r into s: (s, r, dying elements,
        rewired rows), or None if a vertex would lose its last element."""
        dying = self.node2el[s] & self.node2el[r]
        if not dying:
            return None
        new_elems = [(e, tuple(s if v == r else v for v in self.elems[e]))
                     for e in sorted(self.node2el[r] - dying)]
        if any(self.node2el[v] <= dying
               for e in dying for v in self.elems[e] if v != r):
            return None
        return (s, r, dying, new_elems)

    def commit(self, plan, q_new):
        s, r, dying, new_elems = plan
        for e in dying:
            for v in self.elems[e]:
                self.node2el[v].discard(e)
            self.elems[e] = None
        for (e, nodes), q in zip(new_elems, q_new):
            self.elems[e] = nodes
            self.node2el[r].discard(e)
            self.node2el[s].add(e)
            self.elem_q[e] = q
        self.alive[r] = False
        self.node2el[r] = set()
        self.n_alive_nodes -= 1

    def to_mesh(self):
        """Mesh, field and metric on the alive nodes."""
        keep = np.flatnonzero(self.alive)
        remap = np.cumsum(self.alive) - 1
        elements = np.array([e for e in self.elems if e is not None], dtype=np.int64)
        return (ac.SimplicialMesh(self.mesh.dim, self.coords[keep], remap[elements],
                                  self.mesh.box),
                self.u[keep], MetricField(self.tensors[keep]))


def coarsen_oracle(mesh, u, psi, opts):
    """The coarsen loop `adapt.coarsen_pass` replaced, kept as its bitwise
    reference: it tries the edges one at a time, shortest first, on an
    `OracleEditor`, and scores each attempt's plans in a quality call of
    its own. The survivor must carry every segment flag of the removed
    node; the plan whose rewired rows score best wins, the first on ties,
    unless a row inverts or drops below `_QUALITY_FLOOR_FACTOR` times the
    worst quality of both stars.

    It also tracks the boundary facets through each committed collapse of r
    into s, on a dict of its own: a facet through r dies if it holds s too,
    and moves onto s otherwise. A plan that would move a facet onto another
    boundary facet is counted; none may be committed. It keeps the sorted
    element keys too: a plan whose rewired rows would duplicate an element
    is counted, must score <= 0 and is never committed. Returns the pass's
    result and a log: the edges reached with both endpoints alive, the
    tracked boundary (sorted rows in the result's node ids, in order, and
    their segment ids) and the numbers of such plans."""
    edges = mesh_module.unique_edges(mesh.elements)
    lens = metric.edge_lengths(mesh.nodes, psi.tensors, edges)
    npb = int(getattr(opts, "npb", 0))
    ed = OracleEditor(mesh, u, psi, opts.qual_p)
    facets = {tuple(f): s for f, s in zip(mesh.boundary_facets.tolist(),
                                          mesh.facet_segments.tolist())}
    elem_keys = {tuple(sorted(e)) for e in ed.elems}
    log = SimpleNamespace(reached=[], merging_plans=0, duplicating_plans=0)

    def facet_moves(plan):
        """The (old, new) keys of the facets `plan` moves onto s, and
        whether one of them lands on a boundary facet."""
        s, r = plan[:2]
        moves = [(key, tuple(sorted(s if v == r else v for v in key)))
                 for key in facets if r in key and s not in key]
        new = [key for _, key in moves]
        return moves, len(set(new)) < len(new) or any(key in facets for key in new)

    def duplicates(plan):
        """Whether a rewired row of `plan` repeats an element or another row."""
        new = [tuple(sorted(nodes)) for _, nodes in plan[3]]
        return len(set(new)) < len(new) or any(key in elem_keys for key in new)

    def try_collapse(a, b):
        fa, fb = ed.flags[a], ed.flags[b]
        directions = []
        if fb <= fa:
            directions.append((a, b))
        if fa <= fb:
            directions.append((b, a))
        plans = [plan for plan in (ed.plan(s, r) for s, r in directions)
                 if plan is not None]
        log.merging_plans += sum(facet_moves(plan)[1] for plan in plans)
        if not plans:
            return False
        rows = [nodes for plan in plans for _, nodes in plan[3]]
        q = adapt.quality(ed.coords, ed.tensors, rows, ed.qual_p).tolist()
        touched = ed.node2el[a] | ed.node2el[b]
        thresh = adapt._QUALITY_FLOOR_FACTOR * min(ed.elem_q[e] for e in touched)
        best = None
        k = 0
        for plan in plans:
            q_plan = q[k:k + len(plan[3])]
            k += len(q_plan)
            min_q = min(q_plan, default=np.inf)
            if duplicates(plan):
                log.duplicating_plans += 1
                assert min_q <= 0.0, plan[:2]
            if min_q <= 0.0 or min_q < thresh:
                continue
            if best is None or min_q > best[0]:
                best = (min_q, plan, q_plan)
        if best is None:
            return False
        moves, merges = facet_moves(best[1])
        assert not merges and not duplicates(best[1]), best[1][:2]
        s, r, dying, new_elems = best[1]
        for e in [*dying, *(e for e, _ in new_elems)]:
            elem_keys.remove(tuple(sorted(ed.elems[e])))
        elem_keys.update(tuple(sorted(nodes)) for _, nodes in new_elems)
        for old, new in moves:
            facets[new] = facets.pop(old)
        for key in [key for key in facets if r in key]:     # through s too
            del facets[key]
        ed.commit(*best[1:])
        return True

    n_collapsed = 0
    for k in np.argsort(lens, kind="stable"):
        if lens[k] >= opts.l_low and (npb <= 0 or ed.n_alive_nodes <= npb):
            break
        a, b = int(edges[k, 0]), int(edges[k, 1])
        if not (ed.alive[a] and ed.alive[b]):
            continue
        log.reached.append((a, b))
        if ed.node2el[a] & ed.node2el[b] and try_collapse(a, b):
            n_collapsed += 1
    remap = np.cumsum(ed.alive) - 1
    rows = sorted((tuple(remap[list(key)].tolist()), seg) for key, seg in facets.items())
    log.facets = np.array([row for row, _ in rows], dtype=np.int64).reshape(-1, mesh.dim)
    log.segs = np.array([seg for _, seg in rows], dtype=np.int64)
    return (*ed.to_mesh(), n_collapsed), log


def assert_coarsen_matches_oracle(mesh, u, psi, opts):
    """The pass against `coarsen_oracle`; returns the pass's mesh, its
    collapse count and the oracle's log."""
    m2, u2, psi2, n = adapt.coarsen_pass(mesh, u, psi, opts)
    (m1, u1, psi1, n_ref), log = coarsen_oracle(mesh, u, psi, opts)
    assert n == n_ref
    for got, want in ((m2.nodes, m1.nodes), (m2.elements, m1.elements),
                      (m2.boundary_facets, log.facets), (m2.facet_segments, log.segs),
                      (u2, u1), (psi2.tensors, psi1.tensors)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    flags, _, _ = mesh_module._node_flags(m2.num_nodes, log.facets, log.segs)
    assert m2.boundary_node_flags == flags
    assert ac.validate(m2).total_defects == 0
    return m2, n, log


def sheared_metric(mesh, base):
    """An anisotropic metric, sheared and graded in x: `base` scales the
    diagonal, so it sets how many edges are metric-short."""
    x = mesh.nodes[:, 0]
    diag = np.tile(np.asarray(base, dtype=float), (mesh.num_nodes, 1))
    diag[:, 0] *= 1.0 + 15.0 * x ** 2
    tensors = np.einsum("ni,ij->nij", diag, np.eye(mesh.dim))
    tensors[:, 0, 1] = tensors[:, 1, 0] = 0.4 * np.sqrt(diag[:, 0] * diag[:, 1])
    return MetricField(tensors)


def count_calls(monkeypatch, owner, name):
    """Wrap `owner.name` so each call appends its arguments to a list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCoarsenAgainstOracle:
    def test_anisotropic_2d(self):
        m = perturbed(ac.build_rect_mesh(2, 1, 25, 13), 0.02, seed=1)
        u = np.sin(m.nodes[:, 0]) * m.nodes[:, 1]
        psi = sheared_metric(m, [4.0, 30.0])
        _, n, _ = assert_coarsen_matches_oracle(m, u, psi, opts2d())
        assert n > 40

    def test_anisotropic_3d(self):
        m = perturbed(ac.build_box_mesh(1, 1, 1, 6, 6, 6), 0.04, seed=2)
        u = m.nodes @ np.array([1.0, -0.5, 0.25])
        psi = sheared_metric(m, [1.0, 6.0, 3.0])
        _, n, _ = assert_coarsen_matches_oracle(m, u, psi, ac.AdaptOptions.for_dim(3))
        assert n > 20

    def test_budget_box_rejects_facet_merging_plans(self):
        # coarsened far below the box's grid, the pass plans collapses that
        # would land a boundary facet on another one or duplicate an
        # element; the oracle counts them and checks that the quality test
        # rejects them all
        m = perturbed(ac.build_box_mesh(1, 1, 1, 7, 7, 7), 0.04, seed=2)
        psi = sheared_metric(m, [1.0, 6.0, 3.0])
        opts = ac.CoarsenOptions.from_trop(ac.AdaptOptions.for_dim(3), npb=60)
        _, n, log = assert_coarsen_matches_oracle(m, m.nodes[:, 0].copy(), psi, opts)
        assert n > 200
        assert log.merging_plans >= 1
        assert log.duplicating_plans >= 1

    @pytest.mark.parametrize("cut", [5, 20, 40])
    def test_budget_stops_inside_a_window(self, cut, monkeypatch):
        # every edge is metric-long, so only the budget drives the pass
        m = perturbed(ac.build_rect_mesh(1, 1, 13, 13), 0.02, seed=3)
        psi = sheared_metric(m, [64.0, 64.0])
        opts = ac.CoarsenOptions.from_trop(opts2d(), npb=m.num_nodes - cut)
        _, log = coarsen_oracle(m, np.zeros(m.num_nodes), psi, opts)
        rounds = count_calls(monkeypatch, adapt._CollapseRounds, "round")
        m2, n, _ = assert_coarsen_matches_oracle(m, np.zeros(m.num_nodes), psi, opts)
        assert n == cut and m2.num_nodes == opts.npb
        # the last round's window held edges the one-at-a-time loop never
        # reached, and rounds decided several collapses each
        windows = [set(zip(args[1].tolist(), args[2].tolist())) for args in rounds]
        assert windows[-1] - set(log.reached)
        assert len(rounds) < cut

    def test_everything_short_keeps_corners_and_boundary(self):
        m = ac.build_rect_mesh(1, 1, 9, 9)
        psi = uniform_metric(m, 1e-4 * np.eye(2))
        u = np.arange(m.num_nodes, dtype=float)
        m2, n, _ = assert_coarsen_matches_oracle(m, u, psi, opts2d())
        assert n > 0
        corners = {(-1, -1), (1, -1), (1, 1), (-1, 1)}
        assert corners <= {tuple(np.round(p, 9)) for p in m2.nodes}
        assert set(m2.facet_segments.tolist()) == {1, 2, 3, 4}

    @staticmethod
    def grid_with_short_edges(moves):
        """The 9 x 9 grid of h = 0.25 with the nodes at the given (x, y)
        moved by the given (dx, dy), and the node id lookup."""
        m = ac.build_rect_mesh(1, 1, 9, 9)
        nodes = m.nodes.copy()

        def node(x, y):
            return int(np.flatnonzero((np.abs(m.nodes - [x, y]) < 1e-12).all(axis=1))[0])

        for (x, y), shift in moves.items():
            nodes[node(x, y)] += shift
        return ac.SimplicialMesh(2, nodes, m.elements, m.box), node

    def test_two_short_edges_at_one_corner_take_two_rounds(self, monkeypatch):
        # metric 16 I: every edge is metric-long but three. The shortest,
        # near the top, and the first of the two at the corner c are
        # decided in the first round; the second shares c with it, so it
        # waits for the next round and sees c keep its place
        m, node = self.grid_with_short_edges({(-0.75, -1): [-0.1, 0],
                                              (-1, -0.75): [0, -0.095],
                                              (0, 0.75): [0, 0.14]})
        c, q1, q2, y, top = (node(-1, -1), node(-0.75, -1), node(-1, -0.75),
                             node(0, 0.75), node(0, 1))
        psi = uniform_metric(m, 16.0 * np.eye(2))
        opts = opts2d()
        lens = metric.edge_lengths(m.nodes, psi.tensors, mesh_module.unique_edges(m.elements))
        assert (lens < opts.l_low).sum() == 3
        rounds = count_calls(monkeypatch, adapt._CollapseRounds, "round")
        _, n, log = assert_coarsen_matches_oracle(m, np.zeros(m.num_nodes), psi, opts)
        assert n == 3
        assert log.reached == [(y, top), (c, q1), (c, q2)]
        windows = [list(zip(args[1].tolist(), args[2].tolist())) for args in rounds]
        assert windows == [[(y, top), (c, q1), (c, q2)], [(c, q2)]]

    def test_shared_vertex_alone_does_not_conflict(self, monkeypatch):
        # two short edges one cell apart on a row: the elements of their
        # stars share the vertex between them, but no element, endpoint or
        # vertex of a dying element, so one round decides both
        m, node = self.grid_with_short_edges({(-0.25, 0): [-0.1, 0],
                                              (0.25, 0): [0.1, 0]})
        e1, e2 = (node(-0.5, 0), node(-0.25, 0)), (node(0.25, 0), node(0.5, 0))
        stars = [{k for k, row in enumerate(m.elements.tolist()) if set(row) & set(e)}
                 for e in (e1, e2)]
        assert not stars[0] & stars[1]
        assert node(0, 0) in set(m.elements[list(stars[0])].ravel()) \
            & set(m.elements[list(stars[1])].ravel())
        psi = uniform_metric(m, 16.0 * np.eye(2))
        rounds = count_calls(monkeypatch, adapt._CollapseRounds, "round")
        _, n, log = assert_coarsen_matches_oracle(m, np.zeros(m.num_nodes), psi, opts2d())
        assert n == 2 and log.reached == [e1, e2]
        assert len(rounds) == 1


class TestCoarsenKernelCalls:
    def test_windows_call_the_kernel_far_less_than_one_per_attempt(self, monkeypatch):
        # h = 1/24 and metric 320 I: the jitter makes 1.8k edges short, in
        # an order that scatters them over the mesh
        m = perturbed(ac.build_rect_mesh(2, 1, 97, 49), 0.005, seed=4)
        u = np.cos(m.nodes[:, 0])
        psi = uniform_metric(m, 320.0 * np.eye(2))
        opts = opts2d()
        calls = count_calls(monkeypatch, adapt, "quality")
        (_, _, _, n_ref), log = coarsen_oracle(m, u, psi, opts)
        oracle_calls = len(calls)
        assert len(log.reached) >= 1000
        del calls[:]
        rounds = count_calls(monkeypatch, adapt._CollapseRounds, "round")
        assert adapt.coarsen_pass(m, u, psi, opts)[3] == n_ref
        # one call scores the input elements, then one per round
        assert len(calls) == len(rounds) + 1
        assert 3 * len(calls) < oracle_calls


class TestCoarsenOnARealState:
    def test_first_wspot3d_coarsen_pass(self, monkeypatch):
        # the first coarsen pass of the 3D spot run adapting at step 5 with
        # eta = 5e-5 np, as the benchmark's wspot3d workload does
        cfg = load_config(os.path.join(CONFIG_DIR, "ac3d_wspot.cfg"))
        policy = metric.EtaPolicy.linear_in_np(5e-5)
        settings = replace(cfg.cont, nsteps=5, param_max=None)
        mesh = cfg.build_mesh()
        state = continuation.ContinuationState(mesh, np.zeros(mesh.num_nodes), cfg.prob,
                                               ds=settings.ds0)
        captured = []

        class Captured(Exception):
            pass

        def capture(*args):
            captured.append(args)
            raise Captured

        monkeypatch.setattr(adapt, "coarsen_pass", capture)
        with pytest.raises(Captured):
            continuation.run_continuation(
                state, settings, trop=replace(cfg.trop, eta_policy=policy),
                trcop=replace(cfg.trcop, eta_policy=policy), direction=cfg.direction)
        monkeypatch.undo()
        mesh, u, psi, opts = captured[0]
        assert mesh.num_nodes == 3549
        _, n, _ = assert_coarsen_matches_oracle(mesh, u, psi, opts)
        assert n > 2000


def refine_oracle(mesh, u, psi, opts):
    """The refine pass `adapt.refine_pass` replaced, kept as its bitwise
    reference: it splits the marked edges of a round one at a time, in
    (-length, node ids) order, on node -> element and node -> facet maps,
    appending the two children of each split element to the element list."""
    d = mesh.dim
    pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    coords, vals, tens = list(mesh.nodes), list(np.asarray(u, float)), list(psi.tensors)
    elems = [tuple(int(v) for v in e) for e in mesh.elements]
    node2el = [set() for _ in coords]
    for e, nodes in enumerate(elems):
        for v in nodes:
            node2el[v].add(e)
    facets = {tuple(sorted(int(v) for v in f)): int(s)
              for f, s in zip(mesh.boundary_facets, mesh.facet_segments)}

    def split_edge(a, b):
        m = len(coords)
        coords.append(0.5 * (coords[a] + coords[b]))
        vals.append(0.5 * (vals[a] + vals[b]))
        tens.append(0.5 * (tens[a] + tens[b]))
        node2el.append(set())
        for e in sorted(node2el[a] & node2el[b]):
            nodes = elems[e]
            elems[e] = None
            for v in nodes:
                node2el[v].discard(e)
            for child in (tuple(m if v == b else v for v in nodes),
                          tuple(m if v == a else v for v in nodes)):
                for v in child:
                    node2el[v].add(len(elems))
                elems.append(child)
        for key in [k for k in facets if a in k and b in k]:
            seg = facets.pop(key)
            for repl in (a, b):
                facets[tuple(sorted(m if v == repl else v for v in key))] = seg

    n_split = 0
    for _ in range(adapt._MAX_REFINE_ROUNDS):
        alive = np.array([e for e in elems if e is not None], dtype=np.int64)
        C, T = np.array(coords), np.array(tens)
        lens = np.column_stack([metric.edge_lengths(C, T, alive[:, [i, j]])
                                for i, j in pairs])
        longest, which = lens.max(axis=1), lens.argmax(axis=1)
        marked = {}
        for row in np.nonzero(longest > opts.l_up)[0]:
            i, j = pairs[which[row]]
            key = tuple(sorted((int(alive[row, i]), int(alive[row, j]))))
            marked[key] = max(marked.get(key, 0.0), float(longest[row]))
        if not marked:
            break
        for a, b in sorted(marked, key=lambda k: (-marked[k], k)):
            split_edge(a, b)
            n_split += 1
    fkeys = sorted(facets)
    fac = np.array(fkeys, dtype=np.int64).reshape(len(fkeys), d)
    segs = np.array([facets[k] for k in fkeys], dtype=np.int64)
    return (np.array(coords), np.array([e for e in elems if e is not None]),
            fac, segs, np.array(vals), np.array(tens), n_split)


def assert_refine_matches_oracle(mesh, u, psi, opts):
    m2, u2, psi2, n = adapt.refine_pass(mesh, u, psi, opts)
    nodes, elems, facets, segs, vals, tens, n_ref = refine_oracle(mesh, u, psi, opts)
    assert n == n_ref
    for got, want in ((m2.nodes, nodes), (m2.elements, elems),
                      (m2.boundary_facets, facets), (m2.facet_segments, segs),
                      (u2, vals), (psi2.tensors, tens)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    flags, _, _ = mesh_module._node_flags(len(nodes), facets, segs)
    assert m2.boundary_node_flags == flags
    return n


class TestRefinePass:
    def test_noop_when_within_bounds(self):
        m = ac.build_rect_mesh(0.5, 0.5, 2, 2)   # edges 1 and sqrt(2)
        psi = uniform_metric(m, np.eye(2))
        u = np.zeros(m.num_nodes)
        m2, _, _, n = adapt.refine_pass(m, u, psi, opts2d())
        assert n == 0 and m2.num_nodes == 4

    def test_all_long_splits_every_edge(self):
        m = ac.build_rect_mesh(0.5, 0.5, 2, 2)
        opts = opts2d()
        psi = uniform_metric(m, (2 * opts.l_up) ** 2 * np.eye(2))
        u = m.nodes[:, 0].copy()
        m2, u2, _, n = adapt.refine_pass(m, u, psi, opts)
        assert m2.num_nodes > m.num_nodes
        new_edges = {tuple(sorted(map(tuple, m2.nodes[e]))) for e in m2.edges()}
        for e in m.edges():
            assert tuple(sorted(map(tuple, m.nodes[e]))) not in new_edges
        # boundary midpoints stay on the box
        rep = ac.validate(m2)
        assert rep.total_defects == 0
        # new values are endpoint averages of the linear field -> still linear
        assert np.abs(u2 - m2.nodes[:, 0]).max() < 1e-12

    def test_interior_edge_conformity_closure(self):
        # under 0.4 I the sides of the 2-triangle square measure 1.265 < l_up
        # and the diagonal 1.789 > l_up: splitting the diagonal must split
        # both triangles, giving exactly 4 triangles around the centre
        m = ac.build_rect_mesh(1, 1, 2, 2)
        opts = opts2d()
        m2, _, _, n = adapt.refine_pass(m, np.zeros(4),
                                        uniform_metric(m, 0.4 * np.eye(2)), opts)
        assert n == 1
        assert m2.num_nodes == 5
        assert m2.num_elements == 4
        assert np.array_equal(m2.nodes[4], [0.0, 0.0])
        assert ac.validate(m2).total_defects == 0

    def test_round_cap_warns(self, monkeypatch, caplog):
        m = ac.build_rect_mesh(1, 1, 3, 3)
        psi = uniform_metric(m, 25.0 * np.eye(2))
        u = np.zeros(m.num_nodes)
        with caplog.at_level("WARNING", logger="anisocont.adapt"):
            adapt.refine_pass(m, u, psi, opts2d())
        assert not caplog.records
        monkeypatch.setattr(adapt, "_MAX_REFINE_ROUNDS", 1)
        with caplog.at_level("WARNING", logger="anisocont.adapt"):
            m2, _, _, n = adapt.refine_pass(m, u, psi, opts2d())
        assert n > 0
        pairs = [[0, 1], [0, 2], [1, 2]]
        lens = metric.edge_lengths(m2.nodes, uniform_metric(m2, 25.0 * np.eye(2)).tensors,
                                   m2.elements[:, pairs].reshape(-1, 2)).reshape(-1, 3)
        n_viol = int(np.sum(lens.max(axis=1) > opts2d().l_up))
        assert n_viol > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"refine stopped after 1 rounds with {n_viol} elements still above l_up"]


class TestRefineAgainstOracle:
    def test_anisotropic_rect(self):
        m = ac.build_rect_mesh(2, 1, 9, 5)
        x, y = m.nodes.T
        diag = np.column_stack([9.0 + 40.0 * x ** 2, 2.0 + y ** 2])
        tensors = np.einsum("ni,ij->nij", diag, np.eye(2))
        tensors[:, 0, 1] = tensors[:, 1, 0] = 0.3 * np.sqrt(diag.prod(axis=1))
        u = np.sin(x) * np.cos(2 * y)
        assert assert_refine_matches_oracle(m, u, MetricField(tensors), opts2d()) > 0

    def test_criterion_05_start_mesh(self):
        m = ac.build_rect_mesh(2.0, 2.0, 41, 41)
        u = np.tanh(10.0 * (m.nodes[:, 0] - 1.0))
        opts = ac.AdaptOptions.for_dim(2, innerit=10)
        psi = metric.metric_for_field(m, u, opts.eta_policy, opts.ppar)
        assert assert_refine_matches_oracle(m, u, psi, opts) > 1000

    def test_box_with_two_marked_edges_per_element(self):
        m = perturbed(ac.build_box_mesh(1, 1, 1, 4, 4, 4), 0.1, seed=0)
        x, y, z = m.nodes.T
        diag = np.column_stack([4.0 + 30.0 * x ** 2, 6.0 + 20.0 * y ** 2,
                                3.0 + 10.0 * z ** 2])
        psi = MetricField(np.einsum("ni,ij->nij", diag, np.eye(3)))
        opts = ac.AdaptOptions.for_dim(3)
        # the sub-round order matters where one element holds two marked
        # edges of a round, as some do in the first round here
        pairs = np.array([(i, j) for i in range(4) for j in range(i + 1, 4)])
        ends = np.sort(m.elements[:, pairs], axis=2)
        lens = metric.edge_lengths(m.nodes, psi.tensors,
                                   ends.reshape(-1, 2)).reshape(-1, 6)
        viol = lens.max(axis=1) > opts.l_up
        marked = {tuple(e) for e in ends[viol, lens[viol].argmax(axis=1)]}
        held = [sum(tuple(e) in marked for e in row) for row in ends]
        assert max(held) >= 2
        assert assert_refine_matches_oracle(m, x * y + z, psi, opts) > 0

    def test_without_splits(self):
        # facets are still returned sorted, and the flags recomputed
        m = TestSwapPass().kite()
        psi = uniform_metric(m, np.eye(2))
        assert assert_refine_matches_oracle(m, np.zeros(4), psi, opts2d(l_up=10.0)) == 0


class TestMovePass:
    def test_uniform_grid_is_fixed_point(self):
        m = ac.build_rect_mesh(1, 1, 7, 7)
        psi = uniform_metric(m, np.eye(2))
        u = np.sin(m.nodes[:, 0])
        m2, u2, _, n = adapt.move_pass(m, u, psi, opts2d())
        assert np.abs(m2.nodes - m.nodes).max() < 1e-10

    def test_perturbed_node_moves_back(self):
        m = ac.build_rect_mesh(1, 1, 7, 7)
        center = next(i for i in range(m.num_nodes)
                      if np.allclose(m.nodes[i], (0, 0)))
        nodes = m.nodes.copy()
        nodes[center] += (0.08, 0.05)
        pert = ac.SimplicialMesh(2, nodes, m.elements, m.box)
        psi = uniform_metric(pert, np.eye(2))
        u = np.zeros(m.num_nodes)
        m2, _, _, _ = adapt.move_pass(pert, u, psi, opts2d())
        before = np.linalg.norm(nodes[center])
        after = np.linalg.norm(m2.nodes[center])
        assert after < before

    def test_no_inversions_and_boundary_preserved(self):
        rng = np.random.default_rng(5)
        m = ac.build_rect_mesh(1, 1, 7, 7)
        nodes = m.nodes.copy()
        interior = [i for i in range(m.num_nodes)
                    if not m.boundary_node_flags[i]]
        nodes[interior] += rng.uniform(-0.05, 0.05, (len(interior), 2))
        pert = ac.SimplicialMesh(2, nodes, m.elements, m.box)
        psi = uniform_metric(pert, np.eye(2))
        u = nodes[:, 0] ** 2
        m2, _, _, _ = adapt.move_pass(pert, u, psi, opts2d())
        rep = ac.validate(m2)
        assert rep.inverted_elements == 0
        assert rep.boundary_defects == 0


def perturbed(mesh, amplitude, seed):
    """`mesh` with its interior nodes moved at random."""
    rng = np.random.default_rng(seed)
    nodes = mesh.nodes.copy()
    interior = [i for i in range(mesh.num_nodes) if not mesh.boundary_node_flags[i]]
    nodes[interior] += rng.uniform(-amplitude, amplitude, (len(interior), mesh.dim))
    return ac.SimplicialMesh(mesh.dim, nodes, mesh.elements, mesh.box)


def graded_metric(mesh):
    """A smooth anisotropic metric that varies across the mesh."""
    x = mesh.nodes[:, 0]
    diag = np.ones((mesh.num_nodes, mesh.dim))
    diag[:, 0] = 1.0 + 4.0 * x ** 2
    diag[:, -1] = 3.0
    return MetricField(np.einsum("ni,ij->nij", diag, np.eye(mesh.dim)))


@pytest.fixture(params=[2, 3])
def moved_case(request):
    if request.param == 2:
        m = perturbed(ac.build_rect_mesh(1, 1, 9, 9), 0.06, seed=5)
    else:
        m = perturbed(ac.build_box_mesh(1, 1, 1, 4, 4, 4), 0.08, seed=6)
    psi = graded_metric(m)
    u = 1.5 * m.nodes[:, 0] - 0.5 * m.nodes[:, -1] + 0.25
    opts = ac.AdaptOptions.for_dim(m.dim)
    return m, u, psi, opts, adapt.move_pass(m, u, psi, opts)


class TestBatchedMovePass:
    def test_moves_without_lowering_min_quality(self, moved_case):
        m, _, psi, opts, (m2, _, _, n) = moved_case
        assert n > 0
        assert ac.validate(m2).inverted_elements == 0
        q_before = ac.quality(m.nodes, psi.tensors, m.elements, opts.qual_p)
        q_after = ac.quality(m2.nodes, psi.tensors, m2.elements, opts.qual_p)
        assert q_after.min() >= q_before.min() - 1e-12

    def test_boundary_nodes_keep_their_face(self, moved_case):
        m, _, _, _, (m2, _, _, _) = moved_case
        assert ac.validate(m2).boundary_defects == 0
        smap = m.segment_map
        slid = 0
        for i, flags in enumerate(m.boundary_node_flags):
            if len(flags) >= 2:
                assert np.array_equal(m2.nodes[i], m.nodes[i])
            elif flags:
                axis, value = smap.plane(next(iter(flags)))
                assert m2.nodes[i, axis] == value
                slid += not np.array_equal(m2.nodes[i], m.nodes[i])
        assert slid > 0

    def test_moved_nodes_are_reinterpolated(self, moved_case):
        m, u, psi, _, (m2, u2, psi2, _) = moved_case
        # u is affine, so its P1 interpolant reproduces it at the new positions
        affine = 1.5 * m2.nodes[:, 0] - 0.5 * m2.nodes[:, -1] + 0.25
        assert np.abs(u2 - affine).max() < 1e-12
        same = np.all(m2.nodes == m.nodes, axis=1)
        assert np.array_equal(u2[same], u[same])
        assert np.array_equal(psi2.tensors[same], psi.tensors[same])
        # the tensors use the same P1 weights as the field
        for k in range(m.dim):
            expect = ac.interpolate(m, psi.tensors[:, k, k], m2)
            assert np.abs(psi2.tensors[:, k, k] - expect).max() < 1e-12

    def test_deterministic(self, moved_case):
        m, u, psi, opts, (m2, u2, psi2, n) = moved_case
        m3, u3, psi3, n3 = adapt.move_pass(m, u, psi, opts)
        assert n3 == n
        assert np.array_equal(m3.nodes, m2.nodes)
        assert np.array_equal(u3, u2)
        assert np.array_equal(psi3.tensors, psi2.tensors)


def flip_lookups(mesh):
    """Per interior edge of a 2D mesh, in the order `_swap_sweep_2d` sees
    them: whether a topology lookup rejects its flip (the new diagonal c-dd
    is an existing edge, or c == dd), and whether the orientation test
    passes it (the quad is strictly convex)."""
    n, elems, coords = mesh.num_nodes, mesh.elements, mesh.nodes
    edges, elem_edges, counts = mesh_module.facet_topology(elems, n)
    slots, inner = mesh_module._slots_by_count(elem_edges.ravel(), counts, 2)
    c, dd = elems.ravel()[slots].T
    a, b = edges[inner].T
    va = mesh_module.signed_volumes(coords, np.column_stack([c, dd, a]))
    vb = mesh_module.signed_volumes(coords, np.column_stack([c, dd, b]))
    lookup = (c == dd) | np.isin(adapt._edge_keys(c, dd, n),
                                 mesh_module._facet_keys(edges, n))
    return lookup, va * vb < 0.0


def swap_lookups_3d(mesh):
    """The same for the 2-3 and 3-2 candidates of `_swap_sweep_3d`: a 2-3
    swap is rejected by a lookup if p-q is an existing edge or p == q, and
    passes the orientation test if its three volumes share a sign; a 3-2
    swap around a closed ring a, b, c is rejected if not a < b < c or if
    face abc exists, and passes if abc separates the edge's ends."""
    n, elems, coords = mesh.num_nodes, mesh.elements, mesh.nodes
    keys = mesh_module._facet_keys
    faces, elem_faces, face_counts = mesh_module.facet_topology(elems, n)
    edges, elem_edges, edge_counts = mesh_module.sub_simplices(elems, n,
                                                               mesh_module._pairs(4))
    slots, inner = mesh_module._slots_by_count(elem_faces.ravel(), face_counts, 2)
    p, q = elems.ravel()[slots].T
    f0, f1, f2 = faces[inner].T
    tets = np.stack([np.column_stack([p, f0, f1, q]), np.column_stack([p, f1, f2, q]),
                     np.column_stack([p, f2, f0, q])], axis=1)
    vols = mesh_module.signed_volumes(coords, tets.reshape(-1, 4)).reshape(-1, 3)
    lookup23 = (p == q) | np.isin(adapt._edge_keys(p, q, n), keys(edges, n))
    pierces = np.all(vols > 0.0, axis=1) | np.all(vols < 0.0, axis=1)
    slots, ring = mesh_module._slots_by_count(elem_edges.ravel(), edge_counts, 3)
    e0, e1 = edges[ring].T
    others = np.sort(elems[slots // 6].reshape(-1, 12), axis=1)
    others = others[(others != e0[:, None]) & (others != e1[:, None])].reshape(-1, 6)
    a, b, c = others[:, 0::2].T
    closed = np.all(others[:, 0::2] == others[:, 1::2], axis=1)
    v0 = mesh_module.signed_volumes(coords, np.column_stack([a, b, c, e0]))
    v1 = mesh_module.signed_volumes(coords, np.column_stack([a, b, c, e1]))
    lookup32 = ~((a < b) & (b < c)) | np.isin(keys(others[:, 0::2], n), keys(faces, n))
    return (lookup23, pierces), (lookup32[closed], (v0 * v1 < 0.0)[closed])


class TestSwapPass:
    def kite(self):
        # two triangles on the long diagonal of a kite
        nodes = np.array([[0.0, 0.0], [1.0, -0.2], [2.0, 0.0], [1.0, 1.0]])
        elements = np.array([[0, 1, 2], [0, 2, 3]])
        box = np.array([[0.0, 2.0], [-0.2, 1.0]])
        return ac.SimplicialMesh(2, nodes, elements, box)

    def test_flip_improves_kite(self):
        m = self.kite()
        psi = uniform_metric(m, np.eye(2))
        q_before = ac.quality(m.nodes, None, m.elements).min()
        m2, _, _, n = adapt.swap_pass(m, np.zeros(4), psi, opts2d())
        assert n == 1
        q_after = ac.quality(m2.nodes, None, m2.elements).min()
        assert q_after > q_before
        keys = {tuple(sorted(e)) for e in m2.elements}
        assert keys == {(0, 1, 3), (1, 2, 3)}

    def test_uniform_mesh_no_flips(self):
        m = ac.build_rect_mesh(1, 1, 5, 5)
        psi = uniform_metric(m, np.eye(2))
        _, _, _, n = adapt.swap_pass(m, np.zeros(m.num_nodes), psi, opts2d())
        assert n == 0

    def test_nonconvex_pair_rejected(self):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [1.0, 1.0]])
        elements = np.array([[0, 1, 2], [0, 2, 3]])  # edge (0,2) not flippable
        box = np.array([[0.0, 2.0], [0.0, 1.0]])
        m = ac.SimplicialMesh(2, nodes, elements, box)
        # note: this mesh's boundary is not on the box faces; the flip guard
        # is what we exercise here
        psi = uniform_metric(m, np.eye(2))
        m2, _, _, n = adapt.swap_pass(m, np.zeros(4), psi,
                                      opts2d())
        keys = {tuple(sorted(e)) for e in m2.elements}
        assert (0, 1, 3) not in keys   # flip would need the quad to be convex

    def test_3d_swaps_keep_mesh_valid(self):
        m = ac.build_box_mesh(1, 1, 1, 3, 3, 3)
        rng = np.random.default_rng(2)
        nodes = m.nodes.copy()
        interior = [i for i in range(m.num_nodes)
                    if not m.boundary_node_flags[i]]
        nodes[interior] += rng.uniform(-0.06, 0.06, (len(interior), 3))
        pert = ac.SimplicialMesh(3, nodes, m.elements, m.box)
        psi = uniform_metric(pert, np.eye(3))
        m2, _, _, n = adapt.swap_pass(pert, np.zeros(m.num_nodes), psi,
                                      ac.AdaptOptions.for_dim(3))
        assert ac.validate(m2).total_defects == 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_swaps_never_lower_min_quality(self, dim):
        if dim == 2:
            m = perturbed(ac.build_rect_mesh(1, 1, 9, 9), 0.1, seed=8)
        else:
            m = perturbed(ac.build_box_mesh(1, 1, 1, 5, 5, 5), 0.15, seed=9)
        psi = graded_metric(m)
        opts = ac.AdaptOptions.for_dim(dim)
        m2, _, _, n = adapt.swap_pass(m, np.zeros(m.num_nodes), psi, opts)
        assert n > 0
        assert ac.validate(m2).total_defects == 0
        q_before = ac.quality(m.nodes, psi.tensors, m.elements, opts.qual_p)
        q_after = ac.quality(m2.nodes, psi.tensors, m2.elements, opts.qual_p)
        assert q_after.min() >= q_before.min()

    def test_orientation_rejects_what_the_lookups_reject(self):
        # the sweeps look up no existing edge or face: on these meshes the
        # lookups reject candidates, and the orientation test rejects each
        m = ac.build_rect_mesh(2, 2, 15, 15)
        m2, _, _ = ac.tradapt(m, np.tanh(5 * (m.nodes[:, 0] - 0.5)), opts2d())
        box = perturbed(ac.build_box_mesh(1, 1, 1, 7, 7, 7), 0.04, seed=2)
        opts = ac.CoarsenOptions.from_trop(ac.AdaptOptions.for_dim(3), npb=60)
        m3, _, _, _ = adapt.coarsen_pass(box, box.nodes[:, 0].copy(),
                                         sheared_metric(box, [1.0, 6.0, 3.0]), opts)
        assert ac.validate(m2).ok and ac.validate(m3).ok
        flips, (swaps_23, swaps_32) = flip_lookups(m2), swap_lookups_3d(m3)
        for lookup, passes in (flips, swaps_23, swaps_32):
            assert not (lookup & passes).any()
        assert flips[0].any() and swaps_23[0].any()


class TestTradapt:
    def test_sw0_identity(self, square_mesh):
        u = np.sin(square_mesh.nodes[:, 0])
        m2, u2, stats = ac.tradapt(square_mesh, u, opts2d(sw=0))
        assert m2 is square_mesh
        assert np.array_equal(u2, u)
        assert stats.np_before == stats.np_after

    def test_sw15_reports_activity(self):
        m = ac.build_rect_mesh(2, 2, 15, 15)
        u = np.tanh(5 * (m.nodes[:, 0] - 0.5))
        m2, u2, stats = ac.tradapt(m, u, opts2d())
        assert m2.num_nodes != m.num_nodes
        assert len(u2) == m2.num_nodes
        total = {}
        for it in stats.iterations:
            for k, v in it.items():
                total[k] = total.get(k, 0) + v
        assert total.get("splits", 0) > 0
        assert total.get("collapses", 0) > 0
        assert ac.validate(m2).total_defects == 0

    def test_coarsen_only_never_increases(self):
        m = ac.build_rect_mesh(2, 2, 15, 15)
        u = np.tanh(5 * (m.nodes[:, 0] - 0.5))
        counts = [m.num_nodes]
        trcop = ac.CoarsenOptions()
        for _ in range(3):
            m, u, _ = ac.tradapt(m, u, trcop)
            counts.append(m.num_nodes)
        assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_innerit_bounds_iterations(self):
        m = ac.build_rect_mesh(2, 2, 11, 11)
        u = np.tanh(5 * m.nodes[:, 0])
        _, _, stats = ac.tradapt(m, u, opts2d(innerit=3))
        assert len(stats.iterations) <= 3

    def test_calls_each_layer_through_its_module_attribute(self, monkeypatch):
        """The benchmark tracer wraps these attributes of `adapt`; a pass
        `tradapt` held elsewhere would drop out of traced runs silently."""
        names = ("swap_pass", "coarsen_pass", "refine_pass", "move_pass",
                 "metric_for_field", "validate")
        calls = {name: count_calls(monkeypatch, adapt, name) for name in names}
        m = ac.build_rect_mesh(2, 2, 11, 11)
        u = np.tanh(5 * m.nodes[:, 0])
        _, _, stats = ac.tradapt(m, u, opts2d(innerit=2))
        n_iter = len(stats.iterations)
        for name in names[:4]:
            assert len(calls[name]) == n_iter, name
        assert len(calls["validate"]) == 4 * n_iter
        assert len(calls["metric_for_field"]) == n_iter + 1


class TestTwoStep:
    def test_guard_npb_zero_equals_plain(self):
        m = ac.build_rect_mesh(2, 2, 11, 11)
        u = np.tanh(5 * m.nodes[:, 0])
        trop = opts2d()
        trcop = ac.CoarsenOptions.from_trop(trop, npb=0)
        m_a, u_a, st = ac.two_step_adapt(m, u, trop, trcop)
        m_b, u_b, _ = ac.tradapt(m, u, trop)
        assert st.coarsen_stats == []
        assert np.array_equal(m_a.nodes, m_b.nodes)
        assert np.array_equal(u_a, u_b)

    def test_huge_npb_skips_coarsening(self):
        m = ac.build_rect_mesh(2, 2, 11, 11)
        u = np.tanh(5 * m.nodes[:, 0])
        trop = opts2d()
        trcop = ac.CoarsenOptions.from_trop(trop, npb=10 ** 6)
        _, _, st = ac.two_step_adapt(m, u, trop, trcop)
        assert st.coarsen_stats == []

    def test_budget_coarsening(self):
        m = ac.build_rect_mesh(2, 2, 40, 40)
        u = np.tanh(10 * (m.nodes[:, 0] - 1))
        trop = opts2d()
        trcop = ac.CoarsenOptions.from_trop(trop, npb=700, crmax=10)
        _, _, st = ac.two_step_adapt(m, u, trop, trcop)
        assert st.np_after_coarsen is not None
        assert st.np_after_coarsen <= 770 or len(st.coarsen_stats) == 10


class TestInvariantsUnderFuzz:
    # 3D keeps eta large, so that each example stays at a few hundred to a
    # few thousand nodes; the tanh layer refines fast as eta falls
    ETA = {2: (1e-4, 1e-2), 3: (3e-2, 1e-1)}

    @pytest.mark.parametrize("dim", [2, 3])
    @settings(max_examples=10, deadline=None)
    @given(sw=st.integers(0, 15), data=st.data())
    def test_passes_preserve_validity(self, dim, sw, data):
        eta = data.draw(st.floats(*self.ETA[dim]), label="eta")
        if dim == 2:
            m = ac.build_rect_mesh(1, 1, 7, 7)
            u = 0.05 * np.sin(2 * m.nodes[:, 0]) * np.cos(m.nodes[:, 1])
        else:
            m = ac.build_box_mesh(1, 1, 1, 5, 5, 5)
            u = np.tanh(5.0 * (m.nodes[:, 0] - 0.2))
        opts = ac.AdaptOptions.for_dim(dim, sw=sw, innerit=1,
                                       eta_policy=metric.EtaPolicy.constant(eta))
        m2, u2, _ = ac.tradapt(m, u, opts)    # validates after every pass
        rep = ac.validate(m2)
        assert rep.total_defects == 0
        assert len(u2) == m2.num_nodes
