"""Metric-driven mesh adaptation: coarsen, refine, move and swap passes.

The passes are selected by the 4-bit `sw` mask (bit 1 move, bit 2 refine,
bit 4 coarsen, bit 8 swap) and chained by `tradapt`, which recomputes the
metric between inner iterations and stops once the longest metric edge drops
below the upper threshold. `two_step_adapt` optionally coarsens to a node
budget first and then adapts with refinement enabled.
"""
from __future__ import annotations

import logging
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .mesh import (SimplicialMesh, _QUALITY_NORM, _node_flags, unique_edges,
                   validate)
from .metric import MetricField, EtaPolicy, edge_lengths, metric_for_field

logger = logging.getLogger(__name__)

_MAX_REFINE_ROUNDS = 64
_SWAP_SWEEPS = 3
# a collapse/move may not drop any touched element below this fraction of the
# pre-operation worst combined quality
_QUALITY_FLOOR_FACTOR = 0.1
_MOVE_DAMPING = 0.5


class AdaptationError(RuntimeError):
    """Raised when a pass would return an invalid mesh."""


@dataclass(frozen=True)
class ActionMask:
    """Decoded pass switches."""

    move: bool = False
    refine: bool = False
    coarsen: bool = False
    swap: bool = False


def decode_sw(sw):
    """Decode the 4-bit action mask: bits 1/2/4/8 = move/refine/coarsen/swap."""
    sw = int(sw)
    if not 0 <= sw <= 15:
        raise ValueError(f"sw must be in 0..15, got {sw}")
    return ActionMask(move=bool(sw & 1), refine=bool(sw & 2),
                      coarsen=bool(sw & 4), swap=bool(sw & 8))


def encode_sw(mask):
    return (1 * mask.move) | (2 * mask.refine) | (4 * mask.coarsen) | (8 * mask.swap)


@dataclass
class AdaptOptions:
    """Adaptation parameter block.

    `l_low`/`l_up` are the metric-space edge thresholds below/above which
    edges are collapsed/split; `qual_p` weights the Euclidean quality into
    the combined element quality (0 keeps metric-space quality only, the 2D
    default; 3D uses 2 to avoid overly acute tetrahedra).
    """

    eta_policy: EtaPolicy = field(default_factory=EtaPolicy.constant)
    ppar: int = 1000
    innerit: int = 2
    l_low: float = 1.0 / math.sqrt(2.0)
    l_up: float = math.sqrt(2.0)
    qual_p: float = 0.0
    sw: int = 15
    field_selector: object = None

    def __post_init__(self):
        if not 0.0 < self.l_low < self.l_up:
            raise ValueError(f"need 0 < l_low < l_up, got {self.l_low}, {self.l_up}")
        if self.innerit < 1:
            raise ValueError("innerit must be >= 1")
        if not 0 <= int(self.sw) <= 15:
            raise ValueError(f"sw must be in 0..15, got {self.sw}")
        if self.qual_p < 0:
            raise ValueError("qual_p must be >= 0")

    @classmethod
    def for_dim(cls, dim, **kwargs):
        kwargs.setdefault("qual_p", 0.0 if dim == 2 else 2.0)
        return cls(**kwargs)


@dataclass
class CoarsenOptions(AdaptOptions):
    """Options for the pure coarsening step: node budget plus pass cap."""

    sw: int = 5
    npb: int = 0
    crmax: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.npb < 0 or self.crmax < 0:
            raise ValueError("npb and crmax must be >= 0")

    @classmethod
    def from_trop(cls, trop, **overrides):
        base = {k: getattr(trop, k) for k in
                ("eta_policy", "ppar", "innerit", "l_low", "l_up", "qual_p",
                 "field_selector")}
        base.update(overrides)
        return cls(**base)


@dataclass
class AdaptStats:
    np_before: int = 0
    np_after: int = 0
    lmax_history: list = field(default_factory=list)
    iterations: list = field(default_factory=list)

    def to_lines(self):
        lines = [f"tradapt np_before={self.np_before} np_after={self.np_after} "
                 f"iters={len(self.iterations)}"]
        for k, it in enumerate(self.iterations, 1):
            parts = [f"iter={k}"] + [f"{key}={val:g}" if isinstance(val, float)
                                     else f"{key}={val}" for key, val in it.items()]
            lines.append(" ".join(parts))
        return lines


@dataclass
class TwoStepStats:
    coarsen_stats: list
    adapt_stats: AdaptStats

    @property
    def np_after_coarsen(self):
        if self.coarsen_stats:
            return self.coarsen_stats[-1].np_after
        return None

    def to_lines(self):
        lines = []
        for st in self.coarsen_stats:
            lines.extend("coarsen-step " + ln for ln in st.to_lines())
        lines.extend(self.adapt_stats.to_lines())
        return lines


def _tet_edges(coords, i, j, k, l):
    """Edge vectors j-i, k-i, l-i as nine Python floats (cheaper to combine
    than numpy scalars, and rounded identically)."""
    x0, y0, z0 = coords[i].tolist()
    x1, y1, z1 = coords[j].tolist()
    x2, y2, z2 = coords[k].tolist()
    x3, y3, z3 = coords[l].tolist()
    return (x1 - x0, y1 - y0, z1 - z0, x2 - x0, y2 - y0, z2 - z0,
            x3 - x0, y3 - y0, z3 - z0)


def _tet_volume(coords, i, j, k, l):
    """Signed volume of tetrahedron (i, j, k, l); scalar hot path."""
    ax, ay, az, bx, by, bz, cx, cy, cz = _tet_edges(coords, i, j, k, l)
    return (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
            + az * (bx * cy - by * cx)) / 6.0


def _quality2(coords, tensors, i, j, k, qual_p):
    """Combined quality of triangle (i, j, k); scalar hot path."""
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
    norm = _QUALITY_NORM[2]
    q_m = norm * vol * math.sqrt(det) / ssq_m
    if qual_p == 0.0:
        return q_m
    ssq_e = e1x * e1x + e1y * e1y + e2x * e2x + e2y * e2y + e3x * e3x + e3y * e3y
    q_e = norm * vol / ssq_e
    return q_m * q_e ** qual_p


def _quality3(coords, tensors, i, j, k, l, qual_p):
    """Combined quality of tetrahedron (i, j, k, l); scalar hot path."""
    vol = _tet_volume(coords, i, j, k, l)
    if vol <= 0.0:
        return 0.0
    ax, ay, az, bx, by, bz, cx, cy, cz = _tet_edges(coords, i, j, k, l)
    m00 = (tensors[i, 0, 0] + tensors[j, 0, 0] + tensors[k, 0, 0] + tensors[l, 0, 0]) / 4.0
    m01 = (tensors[i, 0, 1] + tensors[j, 0, 1] + tensors[k, 0, 1] + tensors[l, 0, 1]) / 4.0
    m02 = (tensors[i, 0, 2] + tensors[j, 0, 2] + tensors[k, 0, 2] + tensors[l, 0, 2]) / 4.0
    m11 = (tensors[i, 1, 1] + tensors[j, 1, 1] + tensors[k, 1, 1] + tensors[l, 1, 1]) / 4.0
    m12 = (tensors[i, 1, 2] + tensors[j, 1, 2] + tensors[k, 1, 2] + tensors[l, 1, 2]) / 4.0
    m22 = (tensors[i, 2, 2] + tensors[j, 2, 2] + tensors[k, 2, 2] + tensors[l, 2, 2]) / 4.0
    det = (m00 * (m11 * m22 - m12 * m12) - m01 * (m01 * m22 - m12 * m02)
           + m02 * (m01 * m12 - m11 * m02))
    if det <= 0.0:
        return 0.0
    ssq_m = 0.0
    ssq_e = 0.0
    # the six edges: j-i, k-i, l-i, k-j, l-j, l-k
    for (vx, vy, vz) in ((ax, ay, az), (bx, by, bz), (cx, cy, cz),
                         (bx - ax, by - ay, bz - az),
                         (cx - ax, cy - ay, cz - az),
                         (cx - bx, cy - by, cz - bz)):
        ssq_e += vx * vx + vy * vy + vz * vz
        ssq_m += (m00 * vx * vx + m11 * vy * vy + m22 * vz * vz
                  + 2.0 * (m01 * vx * vy + m02 * vx * vz + m12 * vy * vz))
    norm = _QUALITY_NORM[3]
    q_m = norm * vol * math.sqrt(det) / ssq_m ** 1.5
    if qual_p == 0.0:
        return q_m
    q_e = norm * vol / ssq_e ** 1.5
    return q_m * q_e ** qual_p


def _quality_ids(coords, tensors, ids, qual_p):
    if len(ids) == 3:
        return _quality2(coords, tensors, ids[0], ids[1], ids[2], qual_p)
    return _quality3(coords, tensors, ids[0], ids[1], ids[2], ids[3], qual_p)


def combined_quality_coords(pts, mats, qual_p):
    """Combined quality of one simplex from vertex coords and metrics.

    The metric-space quality is the Euclidean quality of the simplex mapped
    by the square root of the vertex-averaged metric, computed via the
    invariant form vol*sqrt(det(Mbar)) / (sum of M-edge lengths^2)^(d/2).
    """
    pts = np.asarray(pts, dtype=float)
    mats = np.asarray(mats, dtype=float)
    ids = tuple(range(pts.shape[0]))
    return _quality_ids(pts, mats, ids, qual_p)


def combined_quality(mesh, psi, elem, qual_p):
    """Combined metric/Euclidean quality of mesh element `elem`."""
    if np.isscalar(elem):
        ids = mesh.elements[int(elem)]
    else:
        ids = np.asarray(elem, dtype=np.int64)
    return combined_quality_coords(mesh.nodes[ids], psi.tensors[ids], qual_p)


def max_metric_edge_length(mesh, psi):
    edges = unique_edges(mesh.elements)
    if len(edges) == 0:
        return 0.0
    return float(edge_lengths(mesh.nodes, psi.tensors, edges).max())


class _Editor:
    """Mutable topology scratchpad for coarsen/refine passes."""

    def __init__(self, mesh, u, psi):
        n = mesh.num_nodes
        self.dim = mesh.dim
        self.box = mesh.box
        cap = max(16, 2 * n)
        self.coords = np.empty((cap, self.dim))
        self.coords[:n] = mesh.nodes
        self.u = np.empty(cap)
        self.u[:n] = u
        self.tensors = np.empty((cap, self.dim, self.dim))
        self.tensors[:n] = psi.tensors
        self.alive = np.zeros(cap, dtype=bool)
        self.alive[:n] = True
        self.n_nodes = n
        self.n_alive_nodes = n
        self.flags = [set(f) for f in mesh.boundary_node_flags]
        self.elems = [tuple(int(v) for v in e) for e in mesh.elements]
        self.n_alive_elems = len(self.elems)
        self.elem_key = {}
        self.node2el = [set() for _ in range(n)]
        for e, nodes in enumerate(self.elems):
            self.elem_key[tuple(sorted(nodes))] = e
            for v in nodes:
                self.node2el[v].add(e)
        self.facets = {}
        self.node2facets = [set() for _ in range(n)]
        for facet, seg in zip(mesh.boundary_facets, mesh.facet_segments):
            key = tuple(sorted(int(v) for v in facet))
            self.facets[key] = int(seg)
            for v in key:
                self.node2facets[v].add(key)
        # per-element combined quality, lazily filled; coords/tensors of
        # existing nodes never change inside one pass, so entries only need
        # invalidation when an element is killed, added or rewired
        self._qcache = {}

    def _grow(self):
        cap = 2 * len(self.u)
        for name in ("coords", "u", "tensors", "alive"):
            arr = getattr(self, name)
            new = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
            new[: len(arr)] = arr
            setattr(self, name, new)

    def add_node(self, pos, uval, tensor, flags):
        i = self.n_nodes
        if i == len(self.u):
            self._grow()
        self.coords[i] = pos
        self.u[i] = uval
        self.tensors[i] = tensor
        self.alive[i] = True
        self.flags.append(set(flags))
        self.node2el.append(set())
        self.node2facets.append(set())
        self.n_nodes += 1
        self.n_alive_nodes += 1
        return i

    def add_elem(self, nodes):
        key = tuple(sorted(nodes))
        e = len(self.elems)
        self.elems.append(tuple(nodes))
        self.elem_key[key] = e
        for v in nodes:
            self.node2el[v].add(e)
        self.n_alive_elems += 1
        return e

    def kill_elem(self, e):
        nodes = self.elems[e]
        del self.elem_key[tuple(sorted(nodes))]
        for v in nodes:
            self.node2el[v].discard(e)
        self.elems[e] = None
        self.n_alive_elems -= 1
        self._qcache.pop(e, None)

    def edge_exists(self, a, b):
        return bool(self.node2el[a] & self.node2el[b])

    def elem_quality(self, e, qual_p):
        q = self._qcache.get(e)
        if q is None:
            q = _quality_ids(self.coords, self.tensors, self.elems[e], qual_p)
            self._qcache[e] = q
        return q

    def quality_of(self, nodes, qual_p):
        return _quality_ids(self.coords, self.tensors, nodes, qual_p)

    # -- coarsening -------------------------------------------------------

    def try_collapse(self, a, b, qual_p):
        """Collapse edge (a, b) into one endpoint if all guards pass."""
        fa, fb = self.flags[a], self.flags[b]
        directions = []
        # the survivor must carry every segment flag of the removed node, so
        # boundary endpoints win over interior ones and corners never vanish
        if fb <= fa:
            directions.append((a, b))       # keep a, remove b
        if fa <= fb:
            directions.append((b, a))
        best = None
        for s, r in directions:
            plan = self._plan_collapse(s, r, qual_p)
            if plan is not None and (best is None or plan[0] > best[0]):
                best = plan
        if best is None:
            return False
        self._commit_collapse(best)
        return True

    def _plan_collapse(self, s, r, qual_p):
        dying = self.node2el[s] & self.node2el[r]
        if not dying:
            return None
        touched = self.node2el[s] | self.node2el[r]
        q_before = min(self.elem_quality(e, qual_p) for e in touched)
        thresh = _QUALITY_FLOOR_FACTOR * q_before
        new_elems = []
        plan_keys = set()
        min_q = np.inf
        for e in sorted(self.node2el[r] - dying):
            nodes = tuple(s if v == r else v for v in self.elems[e])
            key = tuple(sorted(nodes))
            if key in self.elem_key or key in plan_keys:
                return None                 # would duplicate an element
            q = _quality_ids(self.coords, self.tensors, nodes, qual_p)
            if q <= 0.0:
                return None                 # would invert
            if q < thresh:
                return None                 # would wreck local quality
            plan_keys.add(key)
            min_q = min(min_q, q)
            new_elems.append((e, nodes, key, q))
        # no vertex of a dying element may lose its last element
        for e in dying:
            for v in self.elems[e]:
                if v == r:
                    continue
                if not (self.node2el[v] - dying):
                    return None
        dead_facets = []
        remapped = []
        new_fkeys = set()
        for key in sorted(self.node2facets[r]):
            if s in key:
                dead_facets.append(key)
                continue
            newkey = tuple(sorted(s if v == r else v for v in key))
            if newkey in self.facets or newkey in new_fkeys:
                return None                 # would merge boundary facets
            new_fkeys.add(newkey)
            remapped.append((key, newkey))
        return (min_q, s, r, dying, new_elems, dead_facets, remapped)

    def _commit_collapse(self, plan):
        _, s, r, dying, new_elems, dead_facets, remapped = plan
        for e in sorted(dying):
            self.kill_elem(e)
        for e, nodes, key, q in new_elems:
            del self.elem_key[tuple(sorted(self.elems[e]))]
            self.elems[e] = nodes
            self.elem_key[key] = e
            self.node2el[r].discard(e)
            self.node2el[s].add(e)
            self._qcache[e] = q
        for key in dead_facets:
            del self.facets[key]
            for v in key:
                self.node2facets[v].discard(key)
        for old, new in remapped:
            seg = self.facets.pop(old)
            self.facets[new] = seg
            for v in old:
                self.node2facets[v].discard(old)
            for v in new:
                self.node2facets[v].add(new)
        self.alive[r] = False
        self.node2el[r] = set()
        self.node2facets[r] = set()
        self.n_alive_nodes -= 1

    # -- refinement -------------------------------------------------------

    def split_edge(self, a, b):
        """Bisect edge (a, b) at its midpoint, splitting every element on it."""
        bkeys = sorted(self.node2facets[a] & self.node2facets[b])
        segs = {self.facets[k] for k in bkeys}
        m = self.add_node(0.5 * (self.coords[a] + self.coords[b]),
                          0.5 * (self.u[a] + self.u[b]),
                          0.5 * (self.tensors[a] + self.tensors[b]),
                          segs)
        for e in sorted(self.node2el[a] & self.node2el[b]):
            nodes = self.elems[e]
            self.kill_elem(e)
            self.add_elem(tuple(m if v == b else v for v in nodes))
            self.add_elem(tuple(m if v == a else v for v in nodes))
        for key in bkeys:
            seg = self.facets.pop(key)
            for v in key:
                self.node2facets[v].discard(key)
            for repl in (a, b):
                newkey = tuple(sorted(m if v == repl else v for v in key))
                self.facets[newkey] = seg
                for v in newkey:
                    self.node2facets[v].add(newkey)
        return m

    def alive_elements_array(self):
        ids = [e for e, nodes in enumerate(self.elems) if nodes is not None]
        return ids, np.array([self.elems[e] for e in ids], dtype=np.int64)

    def to_mesh(self):
        keep = np.nonzero(self.alive[: self.n_nodes])[0]
        remap = -np.ones(self.n_nodes, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        nodes = self.coords[keep].copy()
        u = self.u[keep].copy()
        tensors = self.tensors[keep].copy()
        _, elems = self.alive_elements_array()
        elements = remap[elems]
        fkeys = sorted(self.facets)
        facets = np.array([sorted(remap[list(k)]) for k in fkeys],
                          dtype=np.int64).reshape(len(fkeys), self.dim)
        segs = np.array([self.facets[k] for k in fkeys], dtype=np.int64)
        flags, _, _ = _node_flags(len(keep), facets, segs)
        mesh = SimplicialMesh(self.dim, nodes, elements, facets, segs, flags,
                              self.box.copy())
        return mesh, u, MetricField(tensors)


def coarsen_pass(mesh, u, psi, opts):
    """Collapse metric-short edges, shortest first.

    When `opts` carries a positive node budget `npb`, edges beyond `l_low`
    are also collapsed (still in ascending length order) until the node
    count drops to the budget.
    """
    ed = _Editor(mesh, u, psi)
    edges = unique_edges(mesh.elements)
    lens = edge_lengths(mesh.nodes, psi.tensors, edges)
    order = np.argsort(lens, kind="stable")
    npb = int(getattr(opts, "npb", 0))
    n_collapsed = 0
    for k in order:
        if lens[k] >= opts.l_low and (npb <= 0 or ed.n_alive_nodes <= npb):
            break
        a, b = int(edges[k, 0]), int(edges[k, 1])
        if not (ed.alive[a] and ed.alive[b]) or not ed.edge_exists(a, b):
            continue
        if ed.try_collapse(a, b, opts.qual_p):
            n_collapsed += 1
    new_mesh, new_u, new_psi = ed.to_mesh()
    return new_mesh, new_u, new_psi, n_collapsed


def refine_pass(mesh, u, psi, opts):
    """Bisect the longest edge of every element whose longest metric edge
    exceeds `l_up`; splitting an edge splits all elements sharing it, which
    keeps the mesh conforming. Repeats until no element violates the bound.
    """
    ed = _Editor(mesh, u, psi)
    d = mesh.dim
    pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    n_split = 0
    for _ in range(_MAX_REFINE_ROUNDS):
        _, elems = ed.alive_elements_array()
        if len(elems) == 0:
            break
        coords = ed.coords[: ed.n_nodes]
        tensors = ed.tensors[: ed.n_nodes]
        lens = np.empty((len(elems), len(pairs)))
        for c, (i, j) in enumerate(pairs):
            lens[:, c] = edge_lengths(coords, tensors,
                                      np.column_stack([elems[:, i], elems[:, j]]))
        longest = lens.max(axis=1)
        which = lens.argmax(axis=1)
        viol = np.nonzero(longest > opts.l_up)[0]
        if viol.size == 0:
            break
        marked = {}
        for row in viol:
            i, j = pairs[which[row]]
            key = tuple(sorted((int(elems[row, i]), int(elems[row, j]))))
            marked[key] = max(marked.get(key, 0.0), float(longest[row]))
        for key in sorted(marked, key=lambda k: (-marked[k], k)):
            a, b = key
            if ed.edge_exists(a, b):
                ed.split_edge(a, b)
                n_split += 1
    new_mesh, new_u, new_psi = ed.to_mesh()
    return new_mesh, new_u, new_psi, n_split


def _group_by_node(owner, value, n):
    """Per node id in range(n), the values whose owner it is, in input order."""
    order = np.argsort(owner, kind="stable")
    return np.split(value[order], np.cumsum(np.bincount(owner, minlength=n))[:-1])


def move_pass(mesh, u, psi, opts):
    """One smoothing sweep: propose each node at the metric-weighted average
    of its neighbors (weights 1/L^2), damped by 0.5; reject moves that invert
    an incident element or lower the worst combined quality of the star.
    Boundary nodes slide within their face only; nodes on several segments
    stay fixed. Field values at moved nodes are re-interpolated from the
    pre-move mesh.
    """
    d = mesh.dim
    coords = mesh.nodes.copy()
    tensors = psi.tensors
    flags = mesh.boundary_node_flags
    smap = mesh.segment_map
    n = mesh.num_nodes
    a, b = unique_edges(mesh.elements).T
    nbrs = _group_by_node(np.concatenate([b, a]), np.concatenate([a, b]), n)
    n2e = _group_by_node(mesh.elements.ravel(),
                         np.arange(mesh.elements.size) // (d + 1), n)
    scale = mesh.diameter()
    frozen = mesh.nodes                       # proposals from sweep-start positions
    elem_q = np.full(mesh.num_elements, np.nan)
    moved = []
    for i in range(n):
        f = flags[i]
        if len(f) >= 2:
            continue
        cand = nbrs[i]
        if f:
            cand = cand[np.array([f <= flags[j] for j in cand], dtype=bool)]
        if len(cand) == 0:
            continue
        pts = frozen[cand]
        vecs = pts - frozen[i]
        Mbar = 0.5 * (tensors[cand] + tensors[i])
        lsq = np.maximum(np.einsum("ij,ijk,ik->i", vecs, Mbar, vecs), 1e-300)
        w = 1.0 / lsq
        proposal = (w[:, None] * pts).sum(axis=0) / w.sum()
        new = coords[i] + _MOVE_DAMPING * (proposal - coords[i])
        if f:
            axis, value = smap.plane(next(iter(f)))
            new[axis] = value
        if np.max(np.abs(new - coords[i])) < 1e-14 * scale:
            continue
        q_old = np.inf
        for e in n2e[i]:
            if np.isnan(elem_q[e]):
                elem_q[e] = _quality_ids(coords, tensors, mesh.elements[e],
                                         opts.qual_p)
            q_old = min(q_old, elem_q[e])
        old_pos = coords[i].copy()
        coords[i] = new
        ok = True
        q_new = np.inf
        trial = []
        for e in n2e[i]:
            q = _quality_ids(coords, tensors, mesh.elements[e], opts.qual_p)
            if q <= 0.0:
                ok = False
                break
            trial.append((e, q))
            q_new = min(q_new, q)
        if not ok or q_new < q_old - 1e-13 * max(1.0, q_old):
            coords[i] = old_pos
            continue
        for e, q in trial:
            elem_q[e] = q
        moved.append(i)
    # re-interpolate moved nodes from the pre-move mesh and field
    u_orig = np.asarray(u, dtype=float)
    u_new = u_orig.copy()
    tensors_new = tensors.copy()
    if moved:
        loc = mesh.locator()
        for i in moved:
            e, lam, _ = loc.locate(coords[i])
            ids = mesh.elements[e]
            u_new[i] = float(lam @ u_orig[ids])
            tensors_new[i] = np.einsum("v,vjk->jk", lam, tensors[ids])
    new_mesh = SimplicialMesh(d, coords, mesh.elements.copy(),
                              mesh.boundary_facets.copy(),
                              mesh.facet_segments.copy(),
                              list(mesh.boundary_node_flags), mesh.box.copy())
    return new_mesh, u_new, MetricField(tensors_new), len(moved)


def swap_pass(mesh, u, psi, opts):
    """Quality-improving connectivity swaps.

    2D: flip the shared diagonal of adjacent triangle pairs when it strictly
    raises the pair's minimum combined quality. 3D: 2-3 face and 3-2 edge
    swaps under the same criterion. Up to three sweeps.
    """
    if mesh.dim == 2:
        return _swap_2d(mesh, u, psi, opts)
    return _swap_3d(mesh, u, psi, opts)


def _swap_2d(mesh, u, psi, opts):
    coords = mesh.nodes
    tensors = psi.tensors
    elems = [tuple(int(v) for v in e) for e in mesh.elements]
    edge2el = {}

    def edge_key(a, b):
        return (a, b) if a < b else (b, a)

    def register(e):
        a, b, c = elems[e]
        for key in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
            edge2el.setdefault(key, set()).add(e)

    def unregister(e):
        a, b, c = elems[e]
        for key in (edge_key(a, b), edge_key(b, c), edge_key(a, c)):
            edge2el[key].discard(e)

    for e in range(len(elems)):
        register(e)

    def quality(nodes):
        return _quality_ids(coords, tensors, nodes, opts.qual_p)

    qmemo = {}

    def elem_q(e):
        q = qmemo.get(e)
        if q is None:
            q = quality(elems[e])
            qmemo[e] = q
        return q

    def area2(i, j, k):
        v1 = coords[j] - coords[i]
        v2 = coords[k] - coords[i]
        return v1[0] * v2[1] - v1[1] * v2[0]

    n_flips = 0
    for _ in range(_SWAP_SWEEPS):
        flips = 0
        for key in sorted(edge2el):
            members = edge2el.get(key, ())
            if len(members) != 2:
                continue
            e1, e2 = sorted(members)
            a, b = key
            c = next(v for v in elems[e1] if v not in key)
            dd = next(v for v in elems[e2] if v not in key)
            if c == dd:
                continue
            newkey = edge_key(c, dd)
            if edge2el.get(newkey):
                continue
            va = area2(c, dd, a)
            vb = area2(c, dd, b)
            if va * vb >= 0.0:
                continue                     # quad not strictly convex
            t1 = (c, dd, a) if va > 0 else (dd, c, a)
            t2 = (c, dd, b) if vb > 0 else (dd, c, b)
            q_old = min(elem_q(e1), elem_q(e2))
            qt1, qt2 = quality(t1), quality(t2)
            if min(qt1, qt2) <= q_old * (1.0 + 1e-10):
                continue
            unregister(e1)
            unregister(e2)
            elems[e1] = t1
            elems[e2] = t2
            register(e1)
            register(e2)
            qmemo[e1] = qt1
            qmemo[e2] = qt2
            flips += 1
        n_flips += flips
        if flips == 0:
            break
    new_mesh = SimplicialMesh(2, mesh.nodes.copy(),
                              np.array(elems, dtype=np.int64),
                              mesh.boundary_facets.copy(),
                              mesh.facet_segments.copy(),
                              list(mesh.boundary_node_flags), mesh.box.copy())
    return new_mesh, np.array(u, dtype=float, copy=True), psi, n_flips


def _swap_3d(mesh, u, psi, opts):
    coords = mesh.nodes
    tensors = psi.tensors
    elems = [tuple(int(v) for v in e) for e in mesh.elements]
    alive = [True] * len(elems)
    face2el = {}
    edge2el = {}
    bfaces = set(map(tuple, np.sort(mesh.boundary_facets, axis=1).tolist()))
    bedges = set(map(tuple, unique_edges(mesh.boundary_facets).tolist()))

    def register(e):
        nodes = elems[e]
        for i in range(4):
            fkey = tuple(sorted(nodes[:i] + nodes[i + 1:]))
            face2el.setdefault(fkey, set()).add(e)
        for i in range(4):
            for j in range(i + 1, 4):
                ekey = tuple(sorted((nodes[i], nodes[j])))
                edge2el.setdefault(ekey, set()).add(e)

    def unregister(e):
        nodes = elems[e]
        for i in range(4):
            fkey = tuple(sorted(nodes[:i] + nodes[i + 1:]))
            face2el[fkey].discard(e)
        for i in range(4):
            for j in range(i + 1, 4):
                edge2el[tuple(sorted((nodes[i], nodes[j])))].discard(e)

    for e in range(len(elems)):
        register(e)

    def quality(nodes):
        return _quality_ids(coords, tensors, nodes, opts.qual_p)

    qmemo = {}

    def elem_q(e):
        q = qmemo.get(e)
        if q is None:
            q = quality(elems[e])
            qmemo[e] = q
        return q

    def orient(nodes):
        if _tet_volume(coords, *nodes) > 0:
            return nodes
        return (nodes[0], nodes[2], nodes[1], nodes[3])

    def add_tet(nodes):
        elems.append(nodes)
        alive.append(True)
        register(len(elems) - 1)

    def kill_tet(e):
        unregister(e)
        alive[e] = False
        qmemo.pop(e, None)

    n_swaps = 0
    for _ in range(_SWAP_SWEEPS):
        swaps = 0
        for fkey in sorted(face2el):
            members = face2el.get(fkey, ())
            if len(members) != 2 or fkey in bfaces:
                continue
            e1, e2 = sorted(members)
            p = next(v for v in elems[e1] if v not in fkey)
            q = next(v for v in elems[e2] if v not in fkey)
            if p == q or edge2el.get(tuple(sorted((p, q)))):
                continue
            f0, f1, f2 = fkey
            vols = [_tet_volume(coords, p, f0, f1, q), _tet_volume(coords, p, f1, f2, q),
                    _tet_volume(coords, p, f2, f0, q)]
            if not (all(v > 0 for v in vols) or all(v < 0 for v in vols)):
                continue                     # p-q does not pierce the face
            new_tets = [orient((p, f0, f1, q)), orient((p, f1, f2, q)),
                        orient((p, f2, f0, q))]
            q_old = min(elem_q(e1), elem_q(e2))
            q_new = min(quality(t) for t in new_tets)
            if q_new <= q_old * (1.0 + 1e-10):
                continue
            kill_tet(e1)
            kill_tet(e2)
            for t in new_tets:
                add_tet(t)
            swaps += 1
        for ekey in sorted(edge2el):
            members = edge2el.get(ekey, ())
            if len(members) != 3 or ekey in bedges:
                continue
            e0, e1n = ekey
            tets = sorted(members)
            ring = set()
            for e in tets:
                ring.update(elems[e])
            ring -= {e0, e1n}
            if len(ring) != 3:
                continue
            a, b, c = sorted(ring)
            fnew = (a, b, c)
            if face2el.get(fnew):
                continue
            v0 = _tet_volume(coords, a, b, c, e0)
            v1 = _tet_volume(coords, a, b, c, e1n)
            if v0 * v1 >= 0.0:
                continue
            t1 = orient((a, b, c, e0))
            t2 = orient((a, b, c, e1n))
            q_old = min(elem_q(e) for e in tets)
            q_new = min(quality(t1), quality(t2))
            if q_new <= q_old * (1.0 + 1e-10):
                continue
            for e in tets:
                kill_tet(e)
            add_tet(t1)
            add_tet(t2)
            swaps += 1
        n_swaps += swaps
        if swaps == 0:
            break
    elements = np.array([elems[e] for e in range(len(elems)) if alive[e]],
                        dtype=np.int64)
    new_mesh = SimplicialMesh(3, mesh.nodes.copy(), elements,
                              mesh.boundary_facets.copy(),
                              mesh.facet_segments.copy(),
                              list(mesh.boundary_node_flags), mesh.box.copy())
    return new_mesh, np.array(u, dtype=float, copy=True), psi, n_swaps


def _validate_after(mesh, pass_name):
    report = validate(mesh)
    if not report.ok:
        from .meshio import write_mesh_text
        fd, path = tempfile.mkstemp(prefix=f"anisocont_invalid_{pass_name}_",
                                    suffix=".txt")
        os.close(fd)
        write_mesh_text(path, mesh)
        raise AdaptationError(f"{pass_name} pass produced an invalid mesh "
                              f"({report}); dumped to {path}")


def tradapt(mesh, u, opts, validate_passes=True):
    """Run the inner adaptation loop: swap, coarsen, refine, move.

    The metric is rebuilt (Hessian recovery plus eta evaluation at the
    current node count) between inner iterations; the loop ends early once
    the longest metric edge length falls below `l_up`. Returns the adapted
    mesh, the transported field and an AdaptStats record.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_nodes,):
        raise ValueError("field length does not match node count")
    mask = decode_sw(opts.sw)
    stats = AdaptStats(np_before=mesh.num_nodes)
    psi = metric_for_field(mesh, u, opts.eta_policy, opts.ppar, opts.field_selector)
    stats.lmax_history.append(max_metric_edge_length(mesh, psi))
    for _ in range(opts.innerit):
        it_stats = {}
        if mask.swap:
            mesh, u, psi, n = swap_pass(mesh, u, psi, opts)
            it_stats["swaps"] = n
            if validate_passes:
                _validate_after(mesh, "swap")
        if mask.coarsen:
            mesh, u, psi, n = coarsen_pass(mesh, u, psi, opts)
            it_stats["collapses"] = n
            if validate_passes:
                _validate_after(mesh, "coarsen")
        if mask.refine:
            mesh, u, psi, n = refine_pass(mesh, u, psi, opts)
            it_stats["splits"] = n
            if validate_passes:
                _validate_after(mesh, "refine")
        if mask.move:
            mesh, u, psi, n = move_pass(mesh, u, psi, opts)
            it_stats["moves"] = n
            if validate_passes:
                _validate_after(mesh, "move")
        psi = metric_for_field(mesh, u, opts.eta_policy, opts.ppar,
                               opts.field_selector)
        lmax = max_metric_edge_length(mesh, psi)
        it_stats["np"] = mesh.num_nodes
        it_stats["lmax"] = lmax
        stats.iterations.append(it_stats)
        stats.lmax_history.append(lmax)
        if lmax < opts.l_up:
            break
    stats.np_after = mesh.num_nodes
    return mesh, u, stats


def two_step_adapt(mesh, u, trop, trcop=None):
    """Coarsen-then-adapt: repeat pure coarsening (trcop, default sw=5) until
    the node count reaches `trcop.npb` or `trcop.crmax` passes are spent,
    then adapt with the full option block `trop`. The coarsening step is
    skipped entirely unless both npb and crmax are positive.
    """
    coarsen_stats = []
    if trcop is not None and trcop.npb > 0 and trcop.crmax > 0:
        for _ in range(trcop.crmax):
            if mesh.num_nodes <= trcop.npb:
                break
            before = mesh.num_nodes
            mesh, u, st = tradapt(mesh, u, trcop)
            coarsen_stats.append(st)
            if mesh.num_nodes >= before:
                break                        # no progress; give up early
    mesh, u, adapt_stats = tradapt(mesh, u, trop)
    return mesh, u, TwoStepStats(coarsen_stats, adapt_stats)
