"""Simplicial mesh kernel.

Structured rectangle/cuboid generators, conformity and orientation
validation, point location by element walking, piecewise-linear
interpolation between meshes, and a scale-invariant element quality.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# Boundary segment ids of the generating box, 1-based.
# 2D rectangle: bottom, right, top, left.
# 3D cuboid: bottom, left, front, right, back, top.
# Each entry maps segment id -> (axis, side) with side -1 = low face, +1 = high face.
RECT_SEGMENTS = {1: (1, -1), 2: (0, +1), 3: (1, +1), 4: (0, -1)}
BOX_SEGMENTS = {1: (2, -1), 2: (0, -1), 3: (1, -1), 4: (0, +1), 5: (1, +1), 6: (2, +1)}

# Quality normalization so the equilateral simplex scores exactly 1:
# q = C_d * vol / (sum of squared edge lengths)^(d/2).
_QUALITY_NORM = {2: 4.0 * np.sqrt(3.0), 3: 72.0 * np.sqrt(3.0)}


def segment_table(dim):
    """Segment id -> (axis, side) table for the given dimension."""
    if dim == 2:
        return RECT_SEGMENTS
    if dim == 3:
        return BOX_SEGMENTS
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class SegmentMap:
    """Mapping from the faces of the generating box to segment ids."""

    dim: int
    box: np.ndarray  # (dim, 2) low/high coordinate per axis

    def ids(self):
        return tuple(sorted(segment_table(self.dim)))

    def plane(self, seg):
        """Return (axis, coordinate value) of the face carrying segment `seg`."""
        axis, side = segment_table(self.dim)[seg]
        return axis, self.box[axis, 0 if side < 0 else 1]

    def planes(self):
        """Segment ids, ascending, with the axis and coordinate of each face."""
        axes, values = zip(*(self.plane(seg) for seg in self.ids()))
        return np.array(self.ids()), np.array(axes), np.array(values)

    def on_segment(self, point, seg, tol):
        axis, value = self.plane(seg)
        return abs(point[axis] - value) <= tol


@dataclass
class SimplicialMesh:
    """Conforming simplicial mesh of a coordinate-aligned box.

    All elements are positively oriented. The boundary is derived from the
    elements and the box on first use, once per mesh: `boundary_facets` are
    the facets of exactly one element, as sorted node-id rows in
    lexicographic order; `facet_segments[k]` is the id of the box face that
    holds facet k, or 0 unless exactly one face holds it; and
    `boundary_node_flags[i]` is the frozenset of segment ids of the boundary
    facets containing node i, empty for interior nodes. Meshes are treated
    as immutable once built: adaptation passes construct new instances.
    """

    dim: int
    nodes: np.ndarray            # (n_nodes, dim) float
    elements: np.ndarray         # (n_elems, dim+1) int
    box: np.ndarray              # (dim, 2) low/high per axis
    # derived on first use; `dataclasses.replace` starts them afresh. `_vtk`
    # is the geometry text of `meshio.write_vtk`.
    _derived: tuple = field(default=None, init=False, repr=False, compare=False)
    _locator: object = field(default=None, init=False, repr=False, compare=False)
    _vtk: str = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_nodes(self):
        return self.nodes.shape[0]

    @property
    def num_elements(self):
        return self.elements.shape[0]

    @property
    def segment_map(self):
        return SegmentMap(self.dim, self.box)

    def diameter(self):
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def element_volumes(self):
        return signed_volumes(self.nodes, self.elements)

    def edges(self):
        return unique_edges(self.elements)

    def _derived_boundary(self):
        """Boundary facets, their segment ids, `_node_flags` of them, and the
        number of facets in more than two elements, from one `facet_topology`
        call whose arrays are not kept."""
        if self._derived is None:
            facets, _, counts = facet_topology(self.elements, self.num_nodes)
            boundary = facets[counts == 1]
            segs = _facet_segments(self.nodes, boundary, self.segment_map)
            self._derived = (boundary, segs, *_node_flags(self.num_nodes, boundary, segs),
                             int(np.sum(counts > 2)))
        return self._derived

    @property
    def boundary_facets(self):
        """(n_facets, dim) int64 node ids, each row sorted, rows in order."""
        return self._derived_boundary()[0]

    @property
    def facet_segments(self):
        """(n_facets,) int64 segment ids, 0 for a facet off the box faces."""
        return self._derived_boundary()[1]

    @property
    def boundary_node_flags(self):
        """Per node, the frozenset of segment ids of its boundary facets."""
        return self._derived_boundary()[2]

    @property
    def segment_membership(self):
        """The ascending segment ids of the boundary facets, and the
        (n_nodes, n_ids) bool matrix of the nodes on a facet of each."""
        return self._derived_boundary()[3:5]

    def locator(self):
        if self._locator is None:
            self._locator = _Locator(self)
        return self._locator


def _edge_vectors(nodes, elements):
    """Vectors from vertex 0 to vertices 1..d of each simplex, d arrays (m, d)."""
    elements = np.asarray(elements, dtype=np.int64)
    p0 = nodes[elements[:, 0]]
    return [nodes[elements[:, k]] - p0 for k in range(1, elements.shape[1])]


def _volume(e):
    """Signed volumes from the edge vectors of `_edge_vectors`."""
    if len(e) == 2:
        return 0.5 * (e[0][:, 0] * e[1][:, 1] - e[0][:, 1] * e[1][:, 0])
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = (v.T for v in e)
    return (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
            + az * (bx * cy - by * cx)) / 6.0


def signed_volumes(nodes, elements):
    """Signed volumes (areas in 2D) of the given simplices, vectorized."""
    return _volume(_edge_vectors(nodes, elements))


def quality(coords, tensors, elems, qual_p=0.0):
    """Combined metric/Euclidean quality of the simplices `elems`, (m, d+1).

    The metric quality is the Euclidean quality of the simplex mapped by the
    square root of the vertex-averaged metric `Mbar`, in the invariant form
    `C_d vol sqrt(det Mbar) / (sum of squared Mbar-edge lengths)^(d/2)`; it
    is multiplied by the Euclidean quality to the power `qual_p`. Both are 1
    for the equilateral simplex. Inverted or degenerate simplices and those
    with `det(Mbar) <= 0` score 0. `tensors=None` is the identity metric, so
    `quality(coords, None, elems)` is the Euclidean quality.
    """
    d = coords.shape[1]
    elems = np.asarray(elems, dtype=np.int64).reshape(-1, d + 1)
    e = _edge_vectors(coords, elems)
    vol = _volume(e)
    # every edge, in the order (0,1), (0,2), .., (1,2), ..; then per pair of
    # components a <= b the sum of v_a * v_b over the edges, edge by edge
    edges = e + [e[j] - e[i] for i in range(d) for j in range(i + 1, d)]
    comps = [[v[:, a] for v in edges] for a in range(d)]
    S = {(a, b): sum(x * y for x, y in zip(comps[a], comps[b]))
         for a in range(d) for b in range(a, d)}
    ssq_e = sum(S[a, a] for a in range(d))
    if tensors is None:
        det, ssq_m = 1.0, ssq_e
    else:
        Msum = tensors[elems[:, 0]]
        for k in range(1, d + 1):
            Msum = Msum + tensors[elems[:, k]]
        M = Msum / (d + 1)
        if d == 2:
            det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 0, 1]
        else:
            m00, m01, m02, m11, m12, m22 = (M[:, a, b] for a, b in S)
            det = (m00 * (m11 * m22 - m12 * m12) - m01 * (m01 * m22 - m12 * m02)
                   + m02 * (m01 * m12 - m11 * m02))
        ssq_m = sum((1.0 if a == b else 2.0) * M[:, a, b] * S[a, b] for a, b in S)
    norm = _QUALITY_NORM[d]
    with np.errstate(invalid="ignore", divide="ignore"):
        q = norm * vol * np.sqrt(det) / ssq_m ** (d / 2)
        if qual_p != 0.0:
            q = q * (norm * vol / ssq_e ** (d / 2)) ** qual_p
    return np.where((vol > 0.0) & (det > 0.0), q, 0.0)


def _sym_linspace(extent, n):
    """Node coordinates on [-extent, extent], exactly antisymmetric about 0."""
    if n % 2:
        half = np.linspace(0.0, extent, (n + 1) // 2)
        return np.concatenate([-half[:0:-1], half])
    # even count: no node at 0
    step = 2.0 * extent / (n - 1)
    half = step / 2.0 + step * np.arange(n // 2)
    half[-1] = extent
    return np.concatenate([-half[::-1], half])


def _facet_keys(rows, n_nodes):
    """One int64 key per row of sorted node ids: its base-`n_nodes` digits,
    so the key order is the lexicographic order of the rows."""
    rows = np.asarray(rows, dtype=np.int64)
    if int(n_nodes) ** rows.shape[1] >= 2 ** 63:
        raise ValueError(f"{n_nodes} nodes overflow the int64 facet keys")
    key = rows[:, 0].copy()
    for k in range(1, rows.shape[1]):
        key *= n_nodes
        key += rows[:, k]
    return key


def _pairs(nv):
    """The local vertex pairs (i, j), i < j, of a simplex with `nv` vertices."""
    return [(i, j) for i in range(nv) for j in range(i + 1, nv)]


def _opposite(nv):
    """Per local vertex i of a simplex with `nv` vertices, the others: the
    local vertices of the facet opposite i."""
    return [[j for j in range(nv) if j != i] for i in range(nv)]


def sub_simplices(elements, n_nodes, local):
    """Sub-simplices of a simplicial element array, from one integer-keyed
    `np.unique`: the rows `elements[:, local[i]]`, each sorted.

    Returns `(rows, ids, counts)`: the unique rows as sorted node ids in
    lexicographic order, in the dtype of `elements`, shape (m, k); the id of
    row `local[i]` of element e in `ids[e, i]`, shape (ne, len(local)); and
    the number of (element, i) slots holding each row.
    """
    ne = len(elements)
    cols = [elements[:, [sub[j] for sub in local]].ravel() for j in range(len(local[0]))]
    # each row sorted by an odd-even transposition network on whole columns:
    # on rows this short, np.sort's per-row calls cost more
    for p in range(len(cols)):
        for j in range(p % 2, len(cols) - 1, 2):
            cols[j], cols[j + 1] = (np.minimum(cols[j], cols[j + 1]),
                                    np.maximum(cols[j], cols[j + 1]))
    raw = np.column_stack(cols)
    _, first, inverse, counts = np.unique(_facet_keys(raw, n_nodes),
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
    return raw[first], inverse.reshape(ne, len(local)), counts


def facet_topology(elements, n_nodes):
    """Facets of a simplicial element array (`sub_simplices`, int64).

    Returns `(facets, elem_facets, counts)`: the unique facets as sorted
    node-id rows in lexicographic order, shape (nf, d); the id of the facet
    opposite local vertex i of element e in `elem_facets[e, i]`, shape
    (ne, d+1); and the number of elements sharing each facet (1 on the
    boundary, 2 inside a conforming mesh).
    """
    elements = np.asarray(elements, dtype=np.int64)
    return sub_simplices(elements, n_nodes, _opposite(elements.shape[1]))


def unique_edges(elements):
    """Unique undirected edges (m, 2) with sorted node ids, lexicographic order,
    in the dtype of `elements`."""
    n_nodes = int(elements.max()) + 1 if elements.size else 1
    return sub_simplices(elements, n_nodes, _pairs(elements.shape[1]))[0]


def _slots_by_count(ids, counts, k):
    """Positions in the flat id array `ids` of every id that occurs exactly
    `k` times (`counts[id]` occurrences), as rows (m, k) of ascending
    positions in ascending id order; also those ids."""
    slots = np.argsort(ids, kind="stable")
    which = np.nonzero(counts == k)[0]
    start = (np.cumsum(counts) - counts)[which]
    return slots[start[:, None] + np.arange(k)], which


def _node_flags(n_nodes, facets, segs):
    """Per node, the frozenset of segment ids of the facets containing it;
    also the ascending segment ids and the (n_nodes, n_ids) membership matrix."""
    seg_ids, col = np.unique(segs, return_inverse=True)
    member = np.zeros((n_nodes, len(seg_ids)), dtype=bool)
    for j in range(facets.shape[1]):
        member[facets[:, j], col] = True
    # each row as the bits of one key, first column most significant
    if len(seg_ids) >= 63:
        raise ValueError(f"{len(seg_ids)} segment ids overflow the int64 flag keys")
    bits = np.int64(1) << np.arange(len(seg_ids) - 1, -1, -1, dtype=np.int64)
    patterns, which = np.unique(member @ bits, return_inverse=True)
    sets = [frozenset(seg_ids[(key & bits) != 0].tolist()) for key in patterns]
    return [sets[k] for k in which.ravel()], seg_ids, member


def _facet_segments(nodes, facets, smap):
    """Per facet, the id of the box face of `smap` that holds all its nodes
    within 1e-9 of the box diameter; 0 when no face or several do."""
    ids, axes, values = smap.planes()
    tol = 1e-9 * float(np.linalg.norm(smap.box[:, 1] - smap.box[:, 0]))
    on_face = np.abs(nodes[:, axes] - values) <= tol        # (n_nodes, n_segs)
    candidates = np.logical_and.reduce(on_face[facets], axis=1)
    return np.where(candidates.sum(axis=1) == 1, ids[candidates.argmax(axis=1)], 0)


def _grid(extents, counts):
    """Nodes of the structured grid on the box (-l, l) per axis, with the
    first axis running fastest, and the box (dim, 2)."""
    for n in counts:
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"node counts must be integers >= 2, got {counts}")
    if min(extents) <= 0:
        raise ValueError("box half-extents must be positive")
    axes = [_sym_linspace(float(ext), n) for ext, n in zip(extents, counts)]
    coords = np.meshgrid(*axes[::-1], indexing="ij")[::-1]
    nodes = np.column_stack([c.ravel() for c in coords])
    return nodes, np.array([[-ext, ext] for ext in extents], dtype=float)


# The two triangles of a grid quad with corners (n00, n10, n01, n11), for
# even and odd i + j: the diagonals alternate.
_RECT_SPLITS = np.array([[[0, 1, 3], [0, 3, 2]], [[0, 1, 2], [1, 3, 2]]])


def build_rect_mesh(lx, ly, nx, ny):
    """Structured triangulation of (-lx,lx) x (-ly,ly) with nx*ny nodes.

    Each grid quad is split into 2 triangles with alternating diagonals so
    that meshes with odd nx/ny are mirror symmetric. Boundary facets carry
    segment ids 1..4 in order bottom, right, top, left.
    """
    nodes, box = _grid((lx, ly), (nx, ny))
    # per grid quad, j outer and i inner, its corners n00, n10, n01, n11 and
    # its two triangles, by the parity of i + j
    j, i = np.divmod(np.arange((nx - 1) * (ny - 1)), nx - 1)
    n00 = i + nx * j
    quad = np.column_stack([n00, n00 + 1, n00 + nx, n00 + nx + 1])
    tris = _RECT_SPLITS[(i + j) % 2].reshape(len(quad), 6)
    elements = np.take_along_axis(quad, tris, axis=1).reshape(-1, 3)
    return SimplicialMesh(2, nodes, elements, box)


# All six permutations of (0,1,2); tets of the Kuhn cube split follow the
# vertex path corner -> +e_p0 -> +e_p1 -> +e_p2, identical in every cube so
# shared faces are triangulated consistently.
_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def build_box_mesh(lx, ly, lz, nx, ny, nz):
    """Structured tetrahedral mesh of (-lx,lx) x (-ly,ly) x (-lz,lz).

    Each grid cube is split into 6 tetrahedra (Kuhn split); segment ids 1..6
    are assigned in order bottom, left, front, right, back, top.
    """
    nodes, box = _grid((lx, ly, lz), (nx, ny, nz))
    # node id offsets along each tet's path, per permutation; cubes k outer,
    # then j, i inner, the six tets of each in `_KUHN_PERMS` order
    steps = np.array([1, nx, nx * ny])[list(_KUHN_PERMS)]
    path = np.column_stack([np.zeros(6, dtype=np.int64), np.cumsum(steps, axis=1)])
    k, j, i = np.unravel_index(np.arange((nx - 1) * (ny - 1) * (nz - 1)),
                               (nz - 1, ny - 1, nx - 1))
    corner = i + nx * (j + ny * k)
    elements = (corner[:, None, None] + path).reshape(-1, 4)
    vols = signed_volumes(nodes, elements)
    flip = vols < 0
    elements[flip] = elements[flip][:, [0, 2, 1, 3]]
    return SimplicialMesh(3, nodes, elements, box)


@dataclass
class ValidationReport:
    """Defect counts from `validate`; all zeros for a sound mesh."""

    inverted_elements: int = 0
    nonconforming_facets: int = 0
    orphan_nodes: int = 0
    boundary_defects: int = 0

    @property
    def total_defects(self):
        return (self.inverted_elements + self.nonconforming_facets
                + self.orphan_nodes + self.boundary_defects)

    @property
    def ok(self):
        return self.total_defects == 0


def validate(mesh):
    """Check orientation, conformity, orphan nodes and boundary geometry.

    A boundary defect is a boundary facet that no single box face holds
    (segment 0 in `facet_segments`). Never mutates the mesh; defects are
    reported as counts, not raised.
    """
    rep = ValidationReport()
    rep.inverted_elements = int(np.sum(mesh.element_volumes() <= 0))
    rep.nonconforming_facets = mesh._derived_boundary()[5]
    used = np.zeros(mesh.num_nodes, dtype=bool)
    used[mesh.elements.ravel()] = True
    rep.orphan_nodes = int(np.sum(~used))
    rep.boundary_defects = int(np.sum(mesh.facet_segments == 0))
    return rep


class _Locator:
    """Point location by element walking with KD-tree seeding."""

    def __init__(self, mesh):
        self.mesh = mesh
        d = mesh.dim
        nodes, elements = mesh.nodes, mesh.elements
        p0 = nodes[elements[:, 0]]
        T = nodes[elements[:, 1:]] - p0[:, None, :]          # (ne, d, d) rows = edge vectors
        self.Tinv = np.linalg.inv(np.transpose(T, (0, 2, 1)))  # maps (x - p0) -> lam[1:]
        self.p0 = p0
        # imported here: it takes 0.1 s, and runs that never adapt never locate
        from scipy.spatial import cKDTree
        self.tree = cKDTree(nodes[elements].mean(axis=1))
        # neighbors[e, i]: the element across the facet opposite vertex i, or
        # -1 unless exactly two elements share that facet
        _, elem_facets, counts = facet_topology(elements, len(nodes))
        s1, s2 = _slots_by_count(elem_facets.ravel(), counts, 2)[0].T
        neighbors = -np.ones(elem_facets.size, dtype=np.int64)
        neighbors[s1] = s2 // (d + 1)
        neighbors[s2] = s1 // (d + 1)
        self.neighbors = neighbors.reshape(elem_facets.shape)
        # barycentric tolerance equivalent to 1e-9 * diameter in distance,
        # per element through its minimum height, d * volume / largest facet
        largest = np.zeros(len(elements))
        for facet in _opposite(d + 1):
            e = _edge_vectors(nodes, elements[:, facet])
            size = (np.sqrt(np.einsum("ij,ij->i", e[0], e[0])) if d == 2
                    else 0.5 * np.linalg.norm(np.cross(*e), axis=1))
            largest = np.maximum(largest, size)
        h_min = d * np.abs(signed_volumes(nodes, elements)) / np.maximum(largest, 1e-300)
        self.lam_tol = 1e-9 * mesh.diameter() / np.maximum(h_min, 1e-300)

    def bary_many(self, elems, pts):
        lam_rest = np.einsum("eij,ej->ei", self.Tinv[elems], pts - self.p0[elems])
        lam0 = 1.0 - lam_rest.sum(axis=1)
        return np.column_stack([lam0, lam_rest])

    def walk(self, pts, start):
        """Element walks of many points at once, round by round: (elements,
        barycentrics, found) for the rows of `pts` walked from the elements
        `start`. Each round steps every unfinished walk to the neighbor
        across the facet of its smallest barycentric (first index on ties);
        a walk ends found once that barycentric is within `lam_tol`, and
        fails at the boundary or on an element it visited before. The
        barycentrics come from one stacked matrix product, which, unlike
        `bary_many`'s einsum, gives each row the bits of a matrix-vector
        product of its own."""
        k = len(pts)
        elems = np.array(start, dtype=np.int64)
        lam_out = np.empty((k, self.mesh.dim + 1))
        found = np.zeros(k, dtype=bool)
        rows = np.arange(k)                 # unfinished walks
        path = elems[:, None]               # their visited elements
        for _ in range(4 * len(self.mesh.elements) + 16):
            if not rows.size:
                break
            e = path[:, -1]
            rest = (self.Tinv[e] @ (pts[rows] - self.p0[e])[:, :, None])[:, :, 0]
            lam = np.column_stack([1.0 - rest.sum(axis=1), rest])
            j = lam.argmin(axis=1)
            hit = lam[np.arange(len(e)), j] >= -self.lam_tol[e]
            elems[rows[hit]], lam_out[rows[hit]] = e[hit], lam[hit]
            found[rows[hit]] = True
            nxt = self.neighbors[e, j]
            go = ~hit & (nxt >= 0) & ~np.any(path == nxt[:, None], axis=1)
            rows, path = rows[go], np.column_stack([path[go], nxt[go]])
        return elems, lam_out, found

    def locate(self, x):
        """Locate point x; returns (elem, lam, inside).

        `inside` is False only when x lies outside every element beyond
        tolerance; `lam` is then the (extrapolating) barycentric coordinate
        in the least-bad element.
        """
        x = np.asarray(x, dtype=float)
        seed = int(self.tree.query(x)[1])
        e, lam, found = self.walk(x[None], [seed])
        if found[0]:
            return int(e[0]), _clamp_lam(lam[0]), True
        # walk failed (non-convex cavity of dead ends is impossible on a box,
        # but guard against round-off): exhaustive scan
        ne = len(self.mesh.elements)
        all_e = np.arange(ne)
        lam = self.bary_many(all_e, np.broadcast_to(x, (ne, x.size)))
        margin = lam.min(axis=1) / np.maximum(self.lam_tol, 1e-300)
        best = int(np.argmax(margin))
        lam_best = lam[best]
        if lam_best.min() >= -self.lam_tol[best]:
            return best, _clamp_lam(lam_best), True
        return best, lam_best, False


def _clamp_lam(lam):
    """Barycentrics (one per row) clipped at 0 and rescaled to sum 1."""
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum(axis=-1, keepdims=True)


def interpolate(old_mesh, u_old, new_mesh, return_stats=False):
    """P1-interpolate nodal values from `old_mesh` onto the nodes of `new_mesh`.

    Both meshes must cover the same box. Points that fall outside the old
    mesh beyond round-off tolerance are extrapolated from the nearest element
    and counted; the count is returned when `return_stats` is true.
    """
    u_old = np.asarray(u_old, dtype=float)
    if u_old.shape != (old_mesh.num_nodes,):
        raise ValueError(f"field length {u_old.shape} does not match node count "
                         f"{old_mesh.num_nodes}")
    if old_mesh.dim != new_mesh.dim or not np.allclose(old_mesh.box, new_mesh.box,
                                                       rtol=1e-9, atol=1e-12):
        raise ValueError("meshes must cover the same box")
    pts = new_mesh.nodes
    ids, lam, n_extrap = _p1_weights(old_mesh, pts)
    u_new = (lam * u_old[ids]).sum(axis=1)
    if n_extrap:
        logger.warning("interpolate: %d of %d points fell outside the source mesh",
                       n_extrap, len(pts))
    if return_stats:
        return u_new, n_extrap
    return u_new


def _p1_weights(mesh, pts):
    """P1 evaluation weights of `mesh` at the points `pts`, batched.

    Returns the node ids (k, d+1) of the element holding each point, its
    barycentric weights (k, d+1) and the number of points outside the mesh
    beyond round-off, whose weights extrapolate from the least-bad element.
    A point on a mesh node gets that node's unit weight, so it reproduces
    nodal values exactly. The nearest-centroid element is tried for all
    points in one batch; the misses walk the mesh together
    (`_Locator.walk`), and only failed walks are located one by one.
    """
    loc = mesh.locator()
    elems = loc.tree.query(pts)[1]
    lam = loc.bary_many(elems, pts)
    miss = np.flatnonzero(~(lam.min(axis=1) >= -1e-12))
    elems[miss], lam_miss, found = loc.walk(pts[miss], elems[miss])
    lam[miss[found]] = _clamp_lam(lam_miss[found])
    n_extrap = 0
    for i in miss[~found]:
        elems[i], lam[i], inside = loc.locate(pts[i])
        n_extrap += not inside
    ids = mesh.elements[elems]
    rows = np.arange(len(pts))
    j = lam.argmax(axis=1)
    exact = (lam[rows, j] >= 1.0 - 1e-12) & np.all(mesh.nodes[ids[rows, j]] == pts,
                                                   axis=1)
    lam[exact] = 0.0
    lam[exact, j[exact]] = 1.0
    return ids, lam, n_extrap
