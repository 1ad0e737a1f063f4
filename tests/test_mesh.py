import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisocont as ac
from anisocont import adapt, cli, meshio
from anisocont.mesh import (_KUHN_PERMS, _Locator, _node_flags, _opposite,
                            _p1_weights, _pairs, _sym_linspace, facet_topology,
                            quality, segment_table, signed_volumes,
                            sub_simplices, unique_edges)


class TestRectMesh:
    def test_minimal_grid(self):
        m = ac.build_rect_mesh(2 * np.pi, np.pi, 2, 2)
        assert m.num_nodes == 4
        assert m.num_elements == 2
        assert len(m.boundary_facets) == 4
        assert sorted(set(int(s) for s in m.facet_segments)) == [1, 2, 3, 4]

    def test_node_count_and_validity(self):
        m = ac.build_rect_mesh(2 * np.pi, np.pi, 33, 9)
        assert m.num_nodes == 297
        assert ac.validate(m).ok

    def test_corner_membership(self):
        m = ac.build_rect_mesh(1, 1, 3, 3)
        corner = next(i for i in range(m.num_nodes)
                      if np.allclose(m.nodes[i], (-1, -1)))
        assert set(m.boundary_node_flags[corner]) == {1, 4}

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            ac.build_rect_mesh(1, 1, 1, 5)
        with pytest.raises(ValueError):
            ac.build_rect_mesh(-1, 1, 3, 3)

    def test_positive_orientation(self):
        m = ac.build_rect_mesh(3, 2, 7, 5)
        assert np.all(signed_volumes(m.nodes, m.elements) > 0)

    def test_mirror_symmetry_odd_counts(self):
        # odd nx with alternating diagonals makes the mesh x-mirror symmetric
        m = ac.build_rect_mesh(2, 1, 9, 5)
        coords = {tuple(np.round(p, 12)) for p in m.nodes}
        mirrored = {tuple(np.round((-p[0], p[1]), 12)) for p in m.nodes}
        assert coords == mirrored
        keys = {tuple(sorted(map(tuple, np.round(m.nodes[e], 12)))) for e in m.elements}
        mkeys = {tuple(sorted((round(-x, 12), round(y, 12)) for x, y in
                              np.round(m.nodes[e], 12))) for e in m.elements}
        assert keys == mkeys


class TestBoxMesh:
    def test_single_cube(self):
        m = ac.build_box_mesh(1, 1, 1, 2, 2, 2)
        assert m.num_nodes == 8
        assert m.num_elements == 6
        assert len(m.boundary_facets) == 12
        assert ac.validate(m).ok

    def test_front_face_segment(self):
        m = ac.build_box_mesh(np.pi, 3 * np.pi / 2, np.pi, 5, 7, 5)
        front = [i for i in range(m.num_nodes)
                 if abs(m.nodes[i, 1] + 3 * np.pi / 2) < 1e-12]
        assert front
        assert all(3 in m.boundary_node_flags[i] for i in front)

    def test_generator_contract(self):
        m = ac.build_box_mesh(0.5, 2.0, 1.0, 3, 4, 3)
        rep = ac.validate(m)
        assert rep.total_defects == 0
        assert np.all(signed_volumes(m.nodes, m.elements) > 0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            ac.build_box_mesh(1, 1, 1, 2, 1, 2)


# The loop-built generators the array-built ones replaced: the reference
# they are checked against.

def _oracle_rect_mesh(lx, ly, nx, ny):
    xs = _sym_linspace(float(lx), nx)
    ys = _sym_linspace(float(ly), ny)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i + nx * j

    elems = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            n00, n10 = nid(i, j), nid(i + 1, j)
            n01, n11 = nid(i, j + 1), nid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                elems.append((n00, n10, n11))
                elems.append((n00, n11, n01))
            else:
                elems.append((n00, n10, n01))
                elems.append((n10, n11, n01))
    return nodes, np.array(elems, dtype=np.int64), np.array([[-lx, lx], [-ly, ly]],
                                                            dtype=float)


def _oracle_box_mesh(lx, ly, lz, nx, ny, nz):
    xs = _sym_linspace(float(lx), nx)
    ys = _sym_linspace(float(ly), ny)
    zs = _sym_linspace(float(lz), nz)
    nodes = np.empty((nx * ny * nz, 3))
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                nodes[i + nx * (j + ny * k)] = (xs[i], ys[j], zs[k])

    def nid(i, j, k):
        return i + nx * (j + ny * k)

    elems = []
    for k in range(nz - 1):
        for j in range(ny - 1):
            for i in range(nx - 1):
                corner = np.array([i, j, k])
                for perm in _KUHN_PERMS:
                    path = [corner.copy()]
                    b = corner.copy()
                    for axis in perm:
                        b = b.copy()
                        b[axis] += 1
                        path.append(b)
                    elems.append(tuple(nid(*p) for p in path))
    elements = np.array(elems, dtype=np.int64)
    flip = signed_volumes(nodes, elements) < 0
    elements[flip] = elements[flip][:, [0, 2, 1, 3]]
    return nodes, elements, np.array([[-lx, lx], [-ly, ly], [-lz, lz]], dtype=float)


def _assert_same_mesh(m, nodes, elements, box):
    facets, segs, flags = _oracle_boundary(m.dim, nodes, elements, box)
    for got, want in ((m.nodes, nodes), (m.elements, elements),
                      (m.boundary_facets, facets), (m.facet_segments, segs),
                      (m.box, box)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert m.boundary_node_flags == flags


class TestBuildersAgainstLoops:
    @pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (7, 4), (8, 6), (9, 5)])
    def test_rect(self, nx, ny):
        _assert_same_mesh(ac.build_rect_mesh(2.0, 1.5, nx, ny),
                          *_oracle_rect_mesh(2.0, 1.5, nx, ny))

    @pytest.mark.parametrize("counts", [(2, 2, 2), (2, 3, 2), (3, 4, 5), (4, 4, 4),
                                        (5, 3, 6)])
    def test_box(self, counts):
        _assert_same_mesh(ac.build_box_mesh(1.0, 1.5, 0.5, *counts),
                          *_oracle_box_mesh(1.0, 1.5, 0.5, *counts))


class TestValidate:
    def test_fresh_mesh_clean(self, rect_mesh):
        assert ac.validate(rect_mesh).total_defects == 0

    def test_duplicate_element(self, square_mesh):
        m = square_mesh
        elements = np.vstack([m.elements, m.elements[:1]])
        bad = ac.SimplicialMesh(2, m.nodes, elements, m.box)
        assert ac.validate(bad).nonconforming_facets > 0

    def test_inverted_element(self, square_mesh):
        m = square_mesh
        elements = m.elements.copy()
        elements[0] = elements[0][[1, 0, 2]]
        bad = ac.SimplicialMesh(2, m.nodes, elements, m.box)
        assert ac.validate(bad).inverted_elements == 1

    def test_orphan_node(self, square_mesh):
        m = square_mesh
        nodes = np.vstack([m.nodes, [[0.123, 0.456]]])
        bad = ac.SimplicialMesh(2, nodes, m.elements, m.box)
        assert ac.validate(bad).orphan_nodes == 1


class TestInterpolate:
    def test_identity_exact(self, rect_mesh):
        u = np.sin(rect_mesh.nodes[:, 0]) * rect_mesh.nodes[:, 1]
        out = ac.interpolate(rect_mesh, u, rect_mesh)
        assert np.array_equal(out, u)

    def test_affine_reproduction(self):
        old = ac.build_rect_mesh(1, 1, 5, 7)
        new = ac.build_rect_mesh(1, 1, 11, 4)
        f = lambda p: 1.5 * p[:, 0] - 0.3 * p[:, 1] + 2.0
        out = ac.interpolate(old, f(old.nodes), new)
        assert np.abs(out - f(new.nodes)).max() < 1e-10

    def test_affine_reproduction_3d(self):
        old = ac.build_box_mesh(1, 1, 1, 3, 4, 3)
        new = ac.build_box_mesh(1, 1, 1, 4, 3, 5)
        f = lambda p: p[:, 0] - 2 * p[:, 1] + 0.5 * p[:, 2]
        out = ac.interpolate(old, f(old.nodes), new)
        assert np.abs(out - f(new.nodes)).max() < 1e-10

    def test_refined_midpoint_average(self):
        old = ac.build_rect_mesh(1, 1, 2, 2)
        new = ac.build_rect_mesh(1, 1, 3, 3)
        u_old = old.nodes[:, 0]
        out = ac.interpolate(old, u_old, new)
        center = next(i for i in range(9) if np.allclose(new.nodes[i], (0, 0)))
        assert out[center] == pytest.approx(0.0, abs=1e-13)

    def test_length_mismatch_raises(self, square_mesh):
        with pytest.raises(ValueError):
            ac.interpolate(square_mesh, np.ones(3), square_mesh)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=25, max_size=25))
    def test_monotonicity(self, values):
        old = ac.build_rect_mesh(1, 1, 5, 5)
        new = ac.build_rect_mesh(1, 1, 6, 7)
        u = np.array(values)
        out = ac.interpolate(old, u, new)
        assert out.min() >= u.min() - 1e-12
        assert out.max() <= u.max() + 1e-12

    def test_outside_point_extrapolates_and_counts(self, square_mesh):
        pts = np.array([[0.0, 0.0], [0.9, 1.2]])   # second point outside
        probe = ac.SimplicialMesh(2, pts, np.zeros((0, 3), dtype=int), square_mesh.box)
        f = lambda p: 2.0 * p[:, 0] + p[:, 1]
        out, n_extrap = ac.interpolate(square_mesh, f(square_mesh.nodes),
                                       probe, return_stats=True)
        assert n_extrap == 1
        # linear extrapolation of a linear field is still exact
        assert np.abs(out - f(pts)).max() < 1e-10


def simplex_quality(coords):
    """Euclidean quality of one simplex from its (d+1, d) vertex coords."""
    coords = np.asarray(coords, dtype=float)
    return float(quality(coords, None, np.arange(len(coords))[None])[0])


def _oracle_interpolate(old_mesh, u_old, pts):
    """The per-point P1 loop the batched evaluation replaced."""
    loc = old_mesh.locator()
    seeds = loc.tree.query(pts)[1]
    lam = loc.bary_many(seeds, pts)
    out, n_extrap = np.empty(len(pts)), 0
    for i in range(len(pts)):
        e, lam_i = int(seeds[i]), lam[i]
        if not lam_i.min() >= -1e-12:
            e, lam_i, inside = loc.locate(pts[i])
            n_extrap += not inside
        ids = old_mesh.elements[e]
        j = int(np.argmax(lam_i))
        if lam_i[j] >= 1.0 - 1e-12 and np.array_equal(old_mesh.nodes[ids[j]], pts[i]):
            out[i] = u_old[ids[j]]
        else:
            out[i] = float(lam_i @ u_old[ids])
    return out, n_extrap


def _oracle_walk(loc, x, e):
    """The per-point element walk the batched one replaced: (elem, lam), or
    None when it reaches the boundary or an element it visited."""
    visited = set()
    while True:
        rest = loc.Tinv[e] @ (x - loc.p0[e])
        lam = np.concatenate([[1.0 - rest.sum()], rest])
        j = int(np.argmin(lam))
        if lam[j] >= -loc.lam_tol[e]:
            return e, lam
        visited.add(e)
        nxt = int(loc.neighbors[e, j])
        if nxt < 0 or nxt in visited:
            return None
        e = nxt


class TestBatchedWalk:
    @pytest.mark.parametrize("case", ["adapted", "box"])
    def test_matches_per_point_walk(self, case):
        m = KERNEL_MESHES[case]()
        loc = m.locator()
        rng = np.random.default_rng(5)
        pts = rng.uniform(m.box[:, 0], m.box[:, 1], (3000, m.dim))
        seeds = loc.tree.query(pts)[1]
        miss = ~(loc.bary_many(seeds, pts).min(axis=1) >= -1e-12)
        assert miss.sum() >= 50             # points the nearest centroid misses
        pts = np.vstack([pts[miss], m.box[:, 1] + 0.05])
        ref = []
        for x in pts:
            hit = _oracle_walk(loc, x, int(loc.tree.query(x)[1]))
            if hit is None:                 # the exhaustive scan
                ref.append(loc.locate(x))
            else:
                lam = np.maximum(hit[1], 0.0)
                ref.append((hit[0], lam / lam.sum(), True))
        assert [r[2] for r in ref].count(False) == 1 and not ref[-1][2]
        ids, lam, n_extrap = _p1_weights(m, pts)
        assert n_extrap == 1
        assert np.array_equal(ids, m.elements[[e for e, _, _ in ref]])
        assert lam.tobytes() == np.array([w for _, w, _ in ref]).tobytes()
        for x, (e, w, inside) in zip(pts[::10], ref[::10]):
            got = loc.locate(x)
            assert got[0] == e and got[1].tobytes() == w.tobytes()
            assert got[2] == inside


class TestBatchedInterpolation:
    @pytest.mark.parametrize("case", ["rect", "box", "adapted"])
    def test_matches_per_point_loop(self, case):
        old = KERNEL_MESHES[case]()
        rng = np.random.default_rng(11)
        pts = rng.uniform(old.box[:, 0], old.box[:, 1], (400, old.dim))
        pts = np.vstack([pts, old.nodes[::7], old.box[:, 1] + 0.05])
        probe = ac.SimplicialMesh(old.dim, pts, np.zeros((0, old.dim + 1), dtype=int),
                                  old.box)
        u = np.sin(3 * old.nodes[:, 0]) + old.nodes[:, -1] ** 2
        got, n_extrap = ac.interpolate(old, u, probe, return_stats=True)
        ref, n_ref = _oracle_interpolate(old, u, pts)
        assert n_extrap == n_ref == 1
        on_node = slice(400, 400 + len(old.nodes[::7]))
        assert np.array_equal(got[on_node], u[::7])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(u).max()

    def test_outside_point_warns(self, square_mesh, caplog):
        pts = np.array([[0.0, 0.0], [0.9, 1.2]])
        probe = ac.SimplicialMesh(2, pts, np.zeros((0, 3), dtype=int), square_mesh.box)
        with caplog.at_level("WARNING", logger="anisocont.mesh"):
            ac.interpolate(square_mesh, square_mesh.nodes[:, 0], probe)
        assert "1 of 2 points fell outside" in caplog.text

    def test_kd_tree_imported_on_first_location_only(self):
        src = str(Path(ac.__file__).resolve().parent.parent)
        code = ("import sys\n"
                f"sys.path.insert(0, {src!r})\n"
                "import anisocont\n"
                "assert 'scipy.spatial' not in sys.modules\n"
                "anisocont.build_rect_mesh(1, 1, 3, 3).locator()\n"
                "assert 'scipy.spatial' in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestQuality:
    def test_equilateral_is_one(self):
        tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        assert simplex_quality(tri) == pytest.approx(1.0, abs=1e-12)

    def test_right_isoceles_regression(self):
        # structured-grid triangle; value frozen from the quality formula
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert simplex_quality(tri) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_needle(self):
        tri = np.array([[0, 0], [1, 0], [0.5, 0.01]])
        assert simplex_quality(tri) < 0.05

    def test_degenerate_is_zero(self):
        tri = np.array([[0, 0], [1, 0], [2, 0]])
        assert simplex_quality(tri) == 0.0

    def test_inverted_is_zero(self):
        tri = np.array([[0, 0], [0.5, np.sqrt(3) / 2], [1, 0]])
        tet = np.array([[0, 0, 0], [0.5, np.sqrt(3) / 2, 0], [1, 0, 0],
                        [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]])
        assert simplex_quality(tri) == 0.0
        assert simplex_quality(tet) == 0.0

    def test_regular_tet_is_one(self):
        tet = np.array([[0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0],
                        [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]])
        assert simplex_quality(tet) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.floats(-5, 5), st.floats(-5, 5),
           st.floats(0.01, 100.0))
    def test_rigid_motion_and_scaling_invariance(self, angle, tx, ty, scale):
        tri = np.array([[0, 0], [1.3, 0], [0.2, 0.9]])
        q0 = simplex_quality(tri)
        R = np.array([[np.cos(angle), -np.sin(angle)],
                      [np.sin(angle), np.cos(angle)]])
        moved = scale * tri @ R.T + np.array([tx, ty])
        assert simplex_quality(moved) == pytest.approx(q0, rel=1e-10)

    def test_mesh_element_rows(self, square_mesh):
        q = quality(square_mesh.nodes, None, square_mesh.elements)
        assert q.shape == (square_mesh.num_elements,)
        assert q == pytest.approx(np.sqrt(3) / 2, rel=1e-12)

    def test_zero_determinant_metric_is_zero(self):
        tri = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
        singular = np.tile(np.diag([1.0, 0.0]), (3, 1, 1))
        assert quality(tri, singular, [[0, 1, 2]], 2.0).tolist() == [0.0]


def test_unique_edges_counts():
    m = ac.build_rect_mesh(1, 1, 3, 3)
    edges = unique_edges(m.elements)
    # 9 nodes, 8 triangles: 12 grid edges + 4 diagonals
    assert len(edges) == 16
    assert np.all(edges[:, 0] < edges[:, 1])


# Dict-built facet maps: the reference the vectorized facet kernel is
# checked against.

def _oracle_facet_counts(dim, elements):
    count = {}
    for elem in elements:
        verts = tuple(int(v) for v in elem)
        for i in range(dim + 1):
            key = tuple(sorted(verts[:i] + verts[i + 1:]))
            count[key] = count.get(key, 0) + 1
    return count


def _oracle_boundary(dim, nodes, elements, box):
    count = _oracle_facet_counts(dim, elements)
    bkeys = sorted(k for k, c in count.items() if c == 1)
    table = segment_table(dim)
    tol = 1e-9 * float(np.linalg.norm(box[:, 1] - box[:, 0]))
    segs = []
    for key in bkeys:
        candidates = None
        for node in key:
            mine = {seg for seg, (axis, side) in table.items()
                    if abs(nodes[node, axis] - box[axis, 0 if side < 0 else 1]) <= tol}
            candidates = mine if candidates is None else candidates & mine
        segs.append(candidates.pop() if len(candidates) == 1 else 0)
    flags = [set() for _ in range(len(nodes))]
    for key, seg in zip(bkeys, segs):
        for node in key:
            flags[node].add(seg)
    facets = np.array(bkeys, dtype=np.int64).reshape(len(bkeys), dim)
    return facets, np.array(segs, dtype=np.int64), [frozenset(f) for f in flags]


def _oracle_neighbors(dim, elements):
    facet2elems = {}
    for e, elem in enumerate(elements):
        verts = tuple(int(v) for v in elem)
        for i in range(dim + 1):
            key = tuple(sorted(verts[:i] + verts[i + 1:]))
            facet2elems.setdefault(key, []).append((e, i))
    neighbors = -np.ones((len(elements), dim + 1), dtype=np.int64)
    for members in facet2elems.values():
        if len(members) == 2:
            (e1, i1), (e2, i2) = members
            neighbors[e1, i1] = e2
            neighbors[e2, i2] = e1
    return neighbors


def _oracle_validate(mesh, boundary_tol=1e-9):
    rep = ac.ValidationReport()
    rep.inverted_elements = int(np.sum(mesh.element_volumes() <= 0))
    count = _oracle_facet_counts(mesh.dim, mesh.elements)
    rep.nonconforming_facets += sum(1 for c in count.values() if c > 2)
    used = np.zeros(mesh.num_nodes, dtype=bool)
    used[mesh.elements.ravel()] = True
    rep.orphan_nodes = int(np.sum(~used))
    # a boundary facet must lie on exactly one box face
    tol = boundary_tol * mesh.diameter()
    for key in (k for k, c in count.items() if c == 1):
        faces = [seg for seg in mesh.segment_map.ids()
                 if all(mesh.segment_map.on_segment(mesh.nodes[v], seg, tol) for v in key)]
        rep.boundary_defects += len(faces) != 1
    return rep


def _adapted_mesh():
    m = ac.build_rect_mesh(2, 2, 15, 15)
    u = np.tanh(5 * (m.nodes[:, 0] - 0.5))
    m2, _, _ = ac.tradapt(m, u, ac.AdaptOptions.for_dim(2))
    return m2


def _duplicated_element_mesh():
    m = ac.build_rect_mesh(1, 1, 5, 5)
    elements = np.vstack([m.elements, m.elements[7:8]])
    return ac.SimplicialMesh(2, m.nodes, elements, m.box)


KERNEL_MESHES = {
    "rect": lambda: ac.build_rect_mesh(2 * np.pi, np.pi, 17, 9),
    "box": lambda: ac.build_box_mesh(1.0, 1.5, 1.0, 4, 5, 4),
    "adapted": _adapted_mesh,
    "duplicated": _duplicated_element_mesh,
}


@pytest.fixture(scope="module", params=sorted(KERNEL_MESHES))
def kernel_mesh(request):
    return KERNEL_MESHES[request.param]()


class TestFacetTopology:
    def test_facets_and_counts_match_dict(self, kernel_mesh):
        m = kernel_mesh
        facets, _, counts = facet_topology(m.elements, m.num_nodes)
        oracle = _oracle_facet_counts(m.dim, m.elements)
        assert [tuple(f) for f in facets.tolist()] == sorted(oracle)
        assert counts.tolist() == [oracle[k] for k in sorted(oracle)]

    def test_element_facets_are_opposite_faces(self, kernel_mesh):
        m = kernel_mesh
        facets, elem_facets, _ = facet_topology(m.elements, m.num_nodes)
        assert elem_facets.shape == m.elements.shape
        for e, elem in enumerate(m.elements.tolist()):
            for i in range(m.dim + 1):
                assert facets[elem_facets[e, i]].tolist() == \
                    sorted(elem[:i] + elem[i + 1:])

    def test_duplicated_element_shares_its_facets(self):
        m = _duplicated_element_mesh()
        _, elem_facets, counts = facet_topology(m.elements, m.num_nodes)
        assert np.array_equal(elem_facets[-1], elem_facets[7])
        assert set(counts[elem_facets[7]].tolist()) <= {2, 3}
        assert np.sum(counts > 2) > 0

    def test_derive_boundary_matches_dict(self, kernel_mesh):
        m = kernel_mesh
        facets, segs, flags = m.boundary_facets, m.facet_segments, m.boundary_node_flags
        o_facets, o_segs, o_flags = _oracle_boundary(m.dim, m.nodes, m.elements,
                                                     m.box)
        assert facets.dtype == o_facets.dtype and segs.dtype == o_segs.dtype
        assert np.array_equal(facets, o_facets)
        assert np.array_equal(segs, o_segs)
        assert flags == o_flags
        assert all(type(s) is int for f in flags for s in f)

    def test_locator_neighbors_match_dict(self, kernel_mesh):
        m = kernel_mesh
        assert np.array_equal(_Locator(m).neighbors,
                              _oracle_neighbors(m.dim, m.elements))

    def test_validate_matches_dict(self, kernel_mesh):
        assert ac.validate(kernel_mesh) == _oracle_validate(kernel_mesh)

    @pytest.mark.parametrize("defect", ["moved", "hole"])
    def test_validate_defects_match_dict(self, defect):
        m = ac.build_rect_mesh(1, 1, 5, 5)
        nodes, elements = m.nodes.copy(), m.elements
        if defect == "moved":
            nodes[2, 1] += 0.1                  # bottom node off its face
        else:
            elements = np.delete(elements, 10, axis=0)  # three facets inside
        bad = ac.SimplicialMesh(2, nodes, elements, m.box)
        rep = ac.validate(bad)
        assert not rep.ok
        assert rep == _oracle_validate(bad)

    def test_facet_off_the_box_faces_raises(self, monkeypatch):
        # the check after a pass raises, and the dump it writes reads back as
        # a mesh that `anisocont validate` reports (exit 1), not as a bad
        # file (exit 2)
        m = ac.build_rect_mesh(1, 1, 3, 3)
        nodes = m.nodes.copy()
        nodes[1, 1] += 0.25         # bottom edge midpoint leaves the bottom face
        bad = ac.SimplicialMesh(2, nodes, m.elements, m.box)
        assert bad.facet_segments.tolist().count(0) == 2
        assert bad.boundary_node_flags[1] == frozenset({0})
        assert ac.validate(bad).boundary_defects == 2
        monkeypatch.setattr(adapt, "move_pass",
                            lambda mesh, u, psi, opts: (bad, u, psi, 1))
        opts = ac.AdaptOptions.for_dim(2, sw=1, innerit=1)
        with pytest.raises(ac.AdaptationError, match="move pass.*dumped to") as err:
            ac.tradapt(m, m.nodes[:, 0] ** 2, opts)
        dump = Path(str(err.value).rsplit("dumped to ", 1)[1])
        try:
            back = meshio.read_mesh_text(dump)
            assert np.array_equal(back.facet_segments, bad.facet_segments)
            assert cli.main(["validate", str(dump)]) == 1
        finally:
            dump.unlink()


# The axis-0 `np.unique` calls the integer keys replaced: the reference
# they are checked against.

def _oracle_unique_edges(elements):
    nv = elements.shape[1]
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    raw = np.concatenate([elements[:, p] for p in pairs], axis=0)
    raw.sort(axis=1)
    return np.unique(raw, axis=0)


def _oracle_node_flags(n_nodes, facets, segs):
    seg_ids, col = np.unique(segs, return_inverse=True)
    member = np.zeros((n_nodes, len(seg_ids)), dtype=bool)
    for j in range(facets.shape[1]):
        member[facets[:, j], col] = True
    patterns, which = np.unique(member, axis=0, return_inverse=True)
    sets = [frozenset(seg_ids[row].tolist()) for row in patterns]
    return [sets[k] for k in which.ravel()], seg_ids, member


def _assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _oracle_sub_simplices(elements, local):
    raw = np.sort(elements[:, local].reshape(-1, len(local[0])), axis=1)
    rows, inverse, counts = np.unique(raw, axis=0, return_inverse=True,
                                      return_counts=True)
    return rows, inverse.reshape(len(elements), len(local)), counts


class TestIntegerKeyUniques:
    @pytest.mark.parametrize("kind", ["facets", "edges"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_sub_simplices_match_axis0(self, kernel_mesh, kind, dtype):
        elements = kernel_mesh.elements.astype(dtype)
        nv = elements.shape[1]
        local = _opposite(nv) if kind == "facets" else _pairs(nv)
        got = sub_simplices(elements, kernel_mesh.num_nodes, local)
        for g, w in zip(got, _oracle_sub_simplices(elements, local)):
            _assert_identical(g, w)
        assert got[0].dtype == dtype


    def test_unique_edges_match_axis0(self, kernel_mesh):
        elements = kernel_mesh.elements
        _assert_identical(unique_edges(elements), _oracle_unique_edges(elements))
        _assert_identical(unique_edges(elements.astype(np.int32)),
                          _oracle_unique_edges(elements.astype(np.int32)))

    def test_unique_rows_match_axis0(self, kernel_mesh):
        m = kernel_mesh
        # every element's two lowest node ids, with repeats
        rows = np.sort(m.elements, axis=1)[:, :2]
        got, ids, _ = sub_simplices(rows, m.num_nodes, [(0, 1)])
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        _assert_identical(got, want)
        _assert_identical(ids.ravel(), want_inverse)

    def test_node_flags_match_axis0(self, kernel_mesh):
        m = kernel_mesh
        got = _node_flags(m.num_nodes, m.boundary_facets, m.facet_segments)
        want = _oracle_node_flags(m.num_nodes, m.boundary_facets,
                                  m.facet_segments)
        assert got[0] == want[0]
        assert all(type(s) is int for f in got[0] for s in f)
        _assert_identical(got[1], want[1])
        _assert_identical(got[2], want[2])

    def test_empty(self):
        for nv in (3, 4):
            elements = np.zeros((0, nv), dtype=np.int64)
            _assert_identical(unique_edges(elements),
                              _oracle_unique_edges(elements))
            for local in (_opposite(nv), _pairs(nv)):
                for dtype in (np.int64, np.int32):
                    got = sub_simplices(elements.astype(dtype), 5, local)
                    want = _oracle_sub_simplices(elements.astype(dtype), local)
                    for g, w in zip(got, want):
                        _assert_identical(g, w)
        rows = np.zeros((0, 2), dtype=np.int64)
        got, ids, _ = sub_simplices(rows, 5, [(0, 1)])
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        _assert_identical(got, want)
        _assert_identical(ids.ravel(), want_inverse)
        facets, segs = np.zeros((0, 2), dtype=np.int64), np.zeros(0, np.int64)
        for n_nodes in (0, 4):
            got = _node_flags(n_nodes, facets, segs)
            want = _oracle_node_flags(n_nodes, facets, segs)
            assert got[0] == want[0]
            _assert_identical(got[2], want[2])


# The scalar quality functions the batched kernel replaced: the reference it
# is checked against.

def _oracle_quality2(coords, tensors, i, j, k, qual_p):
    x0 = coords[i, 0]
    y0 = coords[i, 1]
    e1x = coords[j, 0] - x0
    e1y = coords[j, 1] - y0
    e2x = coords[k, 0] - x0
    e2y = coords[k, 1] - y0
    vol = 0.5 * (e1x * e2y - e1y * e2x)
    if vol <= 0.0:
        return 0.0
    m00 = (tensors[i, 0, 0] + tensors[j, 0, 0] + tensors[k, 0, 0]) / 3.0
    m01 = (tensors[i, 0, 1] + tensors[j, 0, 1] + tensors[k, 0, 1]) / 3.0
    m11 = (tensors[i, 1, 1] + tensors[j, 1, 1] + tensors[k, 1, 1]) / 3.0
    det = m00 * m11 - m01 * m01
    if det <= 0.0:
        return 0.0
    e3x = e2x - e1x
    e3y = e2y - e1y
    ssq_m = (m00 * (e1x * e1x + e2x * e2x + e3x * e3x)
             + 2.0 * m01 * (e1x * e1y + e2x * e2y + e3x * e3y)
             + m11 * (e1y * e1y + e2y * e2y + e3y * e3y))
    norm = 4.0 * np.sqrt(3.0)
    q_m = norm * vol * math.sqrt(det) / ssq_m
    if qual_p == 0.0:
        return q_m
    ssq_e = e1x * e1x + e1y * e1y + e2x * e2x + e2y * e2y + e3x * e3x + e3y * e3y
    q_e = norm * vol / ssq_e
    return q_m * q_e ** qual_p


def _oracle_tet_volume(coords, i, j, k, l):
    x0, y0, z0 = coords[i].tolist()
    ax, ay, az = (v - w for v, w in zip(coords[j].tolist(), (x0, y0, z0)))
    bx, by, bz = (v - w for v, w in zip(coords[k].tolist(), (x0, y0, z0)))
    cx, cy, cz = (v - w for v, w in zip(coords[l].tolist(), (x0, y0, z0)))
    return (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
            + az * (bx * cy - by * cx)) / 6.0


def _oracle_quality3(coords, tensors, i, j, k, l, qual_p):
    vol = _oracle_tet_volume(coords, i, j, k, l)
    if vol <= 0.0:
        return 0.0
    p0 = coords[i].tolist()
    ax, ay, az = (v - w for v, w in zip(coords[j].tolist(), p0))
    bx, by, bz = (v - w for v, w in zip(coords[k].tolist(), p0))
    cx, cy, cz = (v - w for v, w in zip(coords[l].tolist(), p0))
    m00, m01, m02, m11, m12, m22 = (
        (tensors[i, a, b] + tensors[j, a, b] + tensors[k, a, b] + tensors[l, a, b]) / 4.0
        for a, b in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)))
    det = (m00 * (m11 * m22 - m12 * m12) - m01 * (m01 * m22 - m12 * m02)
           + m02 * (m01 * m12 - m11 * m02))
    if det <= 0.0:
        return 0.0
    ssq_m = 0.0
    ssq_e = 0.0
    for (vx, vy, vz) in ((ax, ay, az), (bx, by, bz), (cx, cy, cz),
                         (bx - ax, by - ay, bz - az),
                         (cx - ax, cy - ay, cz - az),
                         (cx - bx, cy - by, cz - bz)):
        ssq_e += vx * vx + vy * vy + vz * vz
        ssq_m += (m00 * vx * vx + m11 * vy * vy + m22 * vz * vz
                  + 2.0 * (m01 * vx * vy + m02 * vx * vz + m12 * vy * vz))
    norm = 72.0 * np.sqrt(3.0)
    q_m = norm * vol * math.sqrt(det) / ssq_m ** 1.5
    if qual_p == 0.0:
        return q_m
    q_e = norm * vol / ssq_e ** 1.5
    return q_m * q_e ** qual_p


def _oracle_qualities(mesh, tensors, qual_p):
    scalar = _oracle_quality2 if mesh.dim == 2 else _oracle_quality3
    return np.array([scalar(mesh.nodes, tensors, *e, qual_p)
                     for e in mesh.elements.tolist()])


def _random_spd(n, d, seed):
    A = np.random.default_rng(seed).normal(size=(n, d, d))
    T = A @ np.transpose(A, (0, 2, 1)) + 0.1 * np.eye(d)
    return 0.5 * (T + np.transpose(T, (0, 2, 1)))


@pytest.fixture(scope="module", params=["rect", "box", "adapted"])
def quality_mesh(request):
    return KERNEL_MESHES[request.param]()


class TestQualityKernel:
    @pytest.mark.parametrize("qual_p", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("metric", ["random", "identity"])
    def test_matches_scalar_oracle(self, quality_mesh, qual_p, metric):
        m = quality_mesh
        if metric == "random":
            T = _random_spd(m.num_nodes, m.dim, seed=7)
            got = quality(m.nodes, T, m.elements, qual_p)
        else:
            T = np.tile(np.eye(m.dim), (m.num_nodes, 1, 1))
            got = quality(m.nodes, None, m.elements, qual_p)
        ref = _oracle_qualities(m, T, qual_p)
        assert np.all(ref > 0)
        if m.dim == 2 and qual_p == 0.0:
            # same operations in the same order as the scalar code
            assert np.array_equal(got, ref)
        else:
            # the 3D edge sums are grouped differently, and numpy's vectorized
            # pow may round ssq ** 1.5 and q ** p differently from Python's
            assert np.max(np.abs(got - ref) / ref) <= 1e-14

    def test_inverted_elements_score_zero(self, quality_mesh):
        m = quality_mesh
        T = _random_spd(m.num_nodes, m.dim, seed=3)
        bad = np.arange(0, m.num_elements, 5)
        elems = m.elements.copy()
        elems[bad] = elems[bad][:, [1, 0] + list(range(2, m.dim + 1))]
        got = quality(m.nodes, T, elems, 2.0)
        assert np.all(got[bad] == 0.0)
        keep = np.ones(m.num_elements, dtype=bool)
        keep[bad] = False
        assert np.array_equal(got[keep], quality(m.nodes, T, m.elements[keep], 2.0))

    def test_volumes_are_the_scalar_cofactor_expression(self):
        m = KERNEL_MESHES["box"]()
        nodes = m.nodes + np.random.default_rng(4).uniform(-0.05, 0.05, m.nodes.shape)
        ref = [_oracle_tet_volume(nodes, *e) for e in m.elements.tolist()]
        assert signed_volumes(nodes, m.elements).tolist() == ref

    def test_empty_batch(self):
        m = ac.build_rect_mesh(1, 1, 3, 3)
        assert quality(m.nodes, None, np.zeros((0, 3), dtype=int)).shape == (0,)
