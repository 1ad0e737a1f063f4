"""Metric-driven mesh adaptation: coarsen, refine, move and swap passes.

The passes are selected by the 4-bit `sw` mask (bit 1 move, bit 2 refine,
bit 4 coarsen, bit 8 swap) and chained by `tradapt`, which recomputes the
metric between inner iterations and stops once the longest metric edge drops
below the upper threshold. `two_step_adapt` optionally coarsens to a node
budget first and then adapts with refinement enabled. Refine, move and swap
work on whole arrays. Coarsen commits one collapse at a time on `_Editor`'s
node-to-element maps, since each collapse decides which edges the next ones
see, but plans and scores its attempts in windows. Collapses and swaps look
up no existing element, face or edge: on a valid mesh the orientation test
rejects every candidate such a lookup would. Every pass returns nodes,
elements and box; the mesh derives its boundary from them.
"""
from __future__ import annotations

import logging
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from itertools import chain

import numpy as np

from .mesh import (SimplicialMesh, _facet_keys, _p1_weights, _pairs,
                   _slots_by_count, facet_topology, quality, signed_volumes,
                   sub_simplices, validate)
from .metric import MetricField, EtaPolicy, edge_lengths, metric_for_field

logger = logging.getLogger(__name__)

_MAX_REFINE_ROUNDS = 64
# a two-phase swap sweep defers the candidates an earlier swap of the sweep
# rewired, so it takes more sweeps to reach what a sequential sweep reaches
_SWAP_SWEEPS = 8
# a collapse/move may not drop any touched element below this fraction of the
# pre-operation worst combined quality
_QUALITY_FLOOR_FACTOR = 0.1
_MOVE_DAMPING = 0.5
# bounds of the adaptive number of collapse attempts a coarsen window plans
# and scores in one quality call
_WINDOW_MIN, _WINDOW_MAX = 1, 64


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
        """The options of `trop`, with sw, npb and crmax at the coarsening
        defaults unless `overrides` sets them."""
        base = {f.name: getattr(trop, f.name) for f in fields(AdaptOptions)}
        return cls(**{**base, "sw": cls.sw, **overrides})


@dataclass
class AdaptStats:
    np_before: int = 0
    np_after: int = 0
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


class _Editor:
    """Mutable topology scratchpad for the collapses of one coarsen pass.

    A collapse only removes nodes and elements, so the node arrays keep the
    input mesh's size and removed nodes are masked out by `alive`. It keeps
    node -> element sets only: collapsing r into s rewires (r, X) to (s, X),
    which can only duplicate an element across facet X from (r, X), so it is
    then inverted and scores 0.
    """

    def __init__(self, mesh, u, psi, qual_p):
        n = mesh.num_nodes
        self.mesh, self.qual_p = mesh, qual_p
        self.coords = mesh.nodes
        self.u = np.asarray(u, dtype=float)
        self.tensors = psi.tensors
        self.alive = [True] * n
        self.n_alive_nodes = n
        self.flags = mesh.boundary_node_flags
        self.elems = list(map(tuple, mesh.elements.tolist()))
        self.node2el = [set() for _ in range(n)]
        for e, nodes in enumerate(self.elems):
            for v in nodes:
                self.node2el[v].add(e)
        # combined quality per element; coords and tensors never change in a
        # pass, so an entry changes only when a collapse rewires its element
        self.elem_q = quality(mesh.nodes, psi.tensors, mesh.elements, qual_p).tolist()

    def attempt(self, a, b):
        """What trying edge (a, b), both endpoints alive, reads and plans on
        the current state: `({a, b}, [])` if the endpoints share no element,
        else the vertices of both stars and a plan for each allowed
        direction. The survivor must carry every segment flag of the removed
        node, so boundary endpoints win over interior ones and corners never
        vanish."""
        star_a, star_b = self.node2el[a], self.node2el[b]
        if star_a.isdisjoint(star_b):
            return {a, b}, []
        reads = {v for e in star_a | star_b for v in self.elems[e]}
        fa, fb = self.flags[a], self.flags[b]
        directions = []
        if fb <= fa:
            directions.append((a, b))       # keep a, remove b
        if fa <= fb:
            directions.append((b, a))
        plans = [plan for plan in (self._plan_collapse(s, r) for s, r in directions)
                 if plan is not None]
        return reads, plans

    def score(self, attempts):
        """Per plan list in `attempts`, the qualities of its plans' rewired
        rows in order, all from one kernel call (none for no rows)."""
        rows = np.fromiter(chain.from_iterable(
            nodes for plans in attempts for plan in plans for _, nodes in plan[3]),
            dtype=np.int64)
        q = iter(quality(self.coords, self.tensors, rows, self.qual_p).tolist()
                 if rows.size else ())
        return [[next(q) for plan in plans for _ in plan[3]] for plans in attempts]

    def collapse(self, a, b, plans, q):
        """Commit the plan of edge (a, b) whose rewired elements score best
        (`q` from `score`), unless it inverts an element or drops one below
        the floor of the star's current worst quality. Returns whether it
        committed."""
        if not plans:
            return False
        touched = self.node2el[a] | self.node2el[b]
        thresh = _QUALITY_FLOOR_FACTOR * min(map(self.elem_q.__getitem__, touched))
        best = None
        k = 0
        for plan in plans:
            q_plan = q[k:k + len(plan[3])]
            k += len(q_plan)
            min_q = min(q_plan, default=np.inf)
            if min_q <= 0.0 or min_q < thresh:
                continue                    # would invert or wreck local quality
            if best is None or min_q > best[0]:
                best = (min_q, plan, q_plan)
        if best is None:
            return False
        self._commit_collapse(*best[1:])
        return True

    def _plan_collapse(self, s, r):
        """The topology of collapsing r into s, or None if it is not allowed."""
        dying = self.node2el[s] & self.node2el[r]
        if not dying:
            return None
        new_elems = [(e, tuple(s if v == r else v for v in self.elems[e]))
                     for e in sorted(self.node2el[r] - dying)]
        # no vertex of a dying element may lose its last element
        if any(self.node2el[v] <= dying
               for e in dying for v in self.elems[e] if v != r):
            return None
        return (s, r, dying, new_elems)

    def _commit_collapse(self, plan, q_new):
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
        remap = np.cumsum(self.alive) - 1       # the new ids of the alive nodes
        elements = np.array([e for e in self.elems if e is not None], dtype=np.int64)
        new_mesh = SimplicialMesh(self.mesh.dim, self.coords[keep], remap[elements],
                                  self.mesh.box)
        return new_mesh, self.u[keep], MetricField(self.tensors[keep])


def coarsen_pass(mesh, u, psi, opts):
    """Collapse metric-short edges, shortest first.

    When `opts` carries a positive node budget `npb`, edges beyond `l_low`
    are also collapsed (still in ascending length order) until the node
    count drops to the budget. A pass with nothing to try returns the input
    mesh without building the editor.

    The attempts run in windows. A window plans its next attempts on the
    same editor state, scores all their plans in one quality call and
    commits them in order. An attempt whose read set (`_Editor.attempt`)
    meets the star of a collapse committed earlier in the window is planned
    and scored again on its own; every other one would plan the same, so
    the pass is that of trying one edge at a time. The window halves after
    re-planning and doubles otherwise, within `_WINDOW_MIN.._WINDOW_MAX`.
    """
    edges = mesh.edges()
    lens = edge_lengths(mesh.nodes, psi.tensors, edges)
    order = np.argsort(lens, kind="stable")
    pairs = edges[order]
    long = (lens[order] >= opts.l_low).tolist()
    npb = int(getattr(opts, "npb", 0))

    def done(i, n_alive):
        return long[i] and (npb <= 0 or n_alive <= npb)

    if len(order) == 0 or done(0, mesh.num_nodes):
        return mesh, np.array(u, dtype=float), psi, 0
    ed = _Editor(mesh, u, psi, opts.qual_p)
    alive = ed.alive
    n_collapsed, i, width = 0, 0, _WINDOW_MIN
    # once `done` holds, it holds further along `pairs` and as nodes die,
    # so it is checked as a window grows and before each commit
    while True:
        window = []
        while i < len(pairs) and len(window) < width and not done(i, ed.n_alive_nodes):
            a, b = pairs[i].tolist()
            if alive[a] and alive[b]:       # dead nodes never come back
                window.append((i, a, b, *ed.attempt(a, b)))
            i += 1
        if not window:
            break
        scores = ed.score([plans for *_, plans in window])
        stars, replanned = set(), False
        for (k, a, b, reads, plans), q in zip(window, scores):
            if done(k, ed.n_alive_nodes):
                break
            if not reads.isdisjoint(stars):
                replanned = True
                if not (alive[a] and alive[b]):
                    continue
                reads, plans = ed.attempt(a, b)
                q, = ed.score([plans])
            if ed.collapse(a, b, plans, q):
                n_collapsed += 1
                stars |= reads
        width = (max(width // 2, _WINDOW_MIN) if replanned
                 else min(2 * width, _WINDOW_MAX))
    new_mesh, new_u, new_psi = ed.to_mesh()
    return new_mesh, new_u, new_psi, n_collapsed


def refine_pass(mesh, u, psi, opts):
    """Longest-edge bisection with conformity closure (Rivara, IJNME 1984).

    Each round marks the longest metric edge of every element whose longest
    metric edge exceeds `l_up` and bisects every marked edge, with field and
    metric tensors averaged from its endpoints, splitting every element on
    it (`_bisect`). The midpoint of the marked edge of rank k, by descending
    length and then node ids, is node n + k. Rounds repeat until no element
    violates the bound, or warn after `_MAX_REFINE_ROUNDS`.
    """
    pairs = _pairs(mesh.dim + 1)
    coords, tensors = mesh.nodes, psi.tensors
    u = np.array(u, dtype=float)
    elems = np.asarray(mesh.elements, dtype=np.int64)
    n_split = 0
    for rnd in range(_MAX_REFINE_ROUNDS + 1):
        # one length per unique edge (swapped endpoints give the same bits)
        edges, elem_edges, _ = sub_simplices(elems, len(coords), pairs)
        lens = edge_lengths(coords, tensors, edges)[elem_edges]
        longest = lens.max(axis=1)
        viol = np.nonzero(longest > opts.l_up)[0]
        if viol.size == 0:
            break
        if rnd == _MAX_REFINE_ROUNDS:
            logger.warning("refine stopped after %d rounds with %d elements "
                           "still above l_up", rnd, viol.size)
            break
        marked = elem_edges[viol, lens[viol].argmax(axis=1)]
        marked, inverse = np.unique(marked, return_inverse=True)
        ends = edges[marked]
        length = np.full(len(ends), -np.inf)
        np.maximum.at(length, inverse, longest[viol])
        a, b = ends[np.lexsort((ends[:, 1], ends[:, 0], -length))].T
        elems = _bisect(elems, a, b, len(coords))
        coords = np.concatenate([coords, 0.5 * (coords[a] + coords[b])])
        u = np.concatenate([u, 0.5 * (u[a] + u[b])])
        tensors = np.concatenate([tensors, 0.5 * (tensors[a] + tensors[b])])
        n_split += len(a)
    return (SimplicialMesh(mesh.dim, coords, elems, mesh.box), u, MetricField(tensors),
            n_split)


def _edge_keys(a, b, n):
    """`_facet_keys` of the edges (a, b) taken in either order; a column pair
    costs less than np.sort on rows of two."""
    return _facet_keys(np.column_stack([np.minimum(a, b), np.maximum(a, b)]), n)


def _bisect(elems, a, b, n):
    """Split the edges (a[k], b[k]), a < b < n, at new nodes n + k, with
    the result of splitting them one at a time in rank order k.

    Each sub-round splits at once every pending edge that is the lowest
    pending one of all elements on it; these share no element, and every
    element sees its edges split in rank order. A child keeps its parent's
    vertex positions, so it inherits the parent's edge ranks, less those of
    the edges through the replaced vertex. Elements come out in
    one-at-a-time order, sorted by (rank of their split, 2 * parent
    position + child), originals by (-1, index); child 0 has b replaced.
    """
    m = len(a)
    mkeys = _facet_keys(np.column_stack([a, b]), n)
    by_key = np.argsort(mkeys)
    pending = np.ones(m + 1, dtype=bool)
    pending[m] = False              # rank m stands for "no marked edge"
    # the rank of the marked edge at each vertex pair of each element, else
    # m; and the (vertex, pair) incidence of the pairs
    pairs = _pairs(elems.shape[1])
    ends = elems[:, pairs].reshape(-1, 2)
    keys = _edge_keys(ends[:, 0], ends[:, 1], n)
    at_key = by_key[np.minimum(np.searchsorted(mkeys, keys, sorter=by_key), m - 1)]
    erank = np.where(mkeys[at_key] == keys, at_key, m).reshape(len(elems), len(pairs))
    incidence = np.array([[v in p for p in pairs] for v in range(elems.shape[1])])
    key_rank = np.full(len(elems), -1, dtype=np.int64)
    key_pos = np.arange(len(elems))
    while pending.any():
        low = np.where(pending[erank], erank, m)
        lowest = low.min(axis=1)
        go = pending.copy()
        go[low[low > lowest[:, None]]] = False     # waits behind a lower edge
        pending &= ~go
        # split every element whose lowest pending edge goes, into the
        # children with b and with a replaced
        hit = np.nonzero(go[lowest])[0]
        k, parents = lowest[hit], elems[hit]
        rest = np.ones(len(elems), dtype=bool)
        rest[hit] = False
        children, ranks = [], []
        for end in (b, a):
            at = parents == end[k, None]
            children.append(np.where(at, (n + k)[:, None], parents))
            ranks.append(np.where(at @ incidence, m, erank[hit]))
        # the position of each parent among the parents of its split
        order = np.lexsort((key_pos[hit], key_rank[hit], k))
        pos = np.empty(len(hit), dtype=np.int64)
        pos[order] = np.arange(len(hit)) - np.searchsorted(k[order], k[order])
        elems = np.concatenate([elems[rest], *children])
        erank = np.concatenate([erank[rest], *ranks])
        key_rank = np.concatenate([key_rank[rest], k, k])
        key_pos = np.concatenate([key_pos[rest], 2 * pos, 2 * pos + 1])
    return elems[np.lexsort((key_pos, key_rank))]


def move_pass(mesh, u, psi, opts):
    """One smoothing sweep: propose each node at the metric-weighted average
    of its neighbors (weights 1/L^2), damped by 0.5; reject moves that invert
    an incident element or lower the worst combined quality of the star.
    Boundary nodes slide within their face only; nodes on several segments
    stay fixed. Field values and metric tensors at moved nodes are
    re-interpolated from the pre-move mesh.

    Proposals read sweep-start positions only, so they are computed for all
    nodes at once. The checks run in rounds, each over an independent set of
    pairwise non-adjacent nodes, whose stars share no element: a node joins
    a round when its fixed pseudo-random priority is the lowest among its
    still-pending neighbours (Jones and Plassmann, SIAM J. Sci. Comput.
    1993). Each round scores the union of its stars in one quality call and
    sees the moves of the earlier rounds.
    """
    d = mesh.dim
    n = mesh.num_nodes
    nodes, elements, tensors = mesh.nodes, mesh.elements, psi.tensors
    a, b = mesh.edges().T
    seg_ids, member = mesh.segment_membership
    n_segs = member.sum(axis=1)
    face = member.argmax(axis=1)
    # the neighbours j a node i averages: all of them for an interior node,
    # those on its face for a node on one face, none for the other nodes
    i, j = np.concatenate([a, b]), np.concatenate([b, a])
    keep = (n_segs[i] == 0) | ((n_segs[i] == 1) & member[j, face[i]])
    i, j = i[keep], j[keep]
    vecs = nodes[j] - nodes[i]
    # squared lengths under the endpoint-averaged metric, one tensor entry
    # at a time rather than gathering (pairs, d, d) tensor copies
    lsq = 0.5 * sum(vecs[:, r] * vecs[:, c] * (tensors[j, r, c] + tensors[i, r, c])
                    for r in range(d) for c in range(d))
    w = 1.0 / np.maximum(lsq, 1e-300)
    wsum = np.bincount(i, weights=w, minlength=n)
    has = wsum > 0.0
    proposal = np.column_stack([np.bincount(i, weights=w * nodes[j, k], minlength=n)
                                for k in range(d)])
    proposal[has] /= wsum[has, None]
    new = nodes + _MOVE_DAMPING * (proposal - nodes)
    on_face = np.nonzero(has & (n_segs == 1))[0]
    plane_ids, axes, values = mesh.segment_map.planes()
    plane = np.searchsorted(plane_ids, seg_ids[face[on_face]])
    new[on_face, axes[plane]] = values[plane]
    pending = has & (np.abs(new - nodes).max(axis=1) >= 1e-14 * mesh.diameter())

    star_elem = np.argsort(elements.ravel(), kind="stable") // (d + 1)
    star_ptr = np.concatenate([[0], np.cumsum(np.bincount(elements.ravel(),
                                                          minlength=n))])
    elem_q = quality(nodes, tensors, elements, opts.qual_p)
    priority = np.random.default_rng(0).permutation(n)
    coords = nodes.copy()
    moved = np.zeros(n, dtype=bool)
    while pending.any():
        live = pending[a] & pending[b]
        a, b = a[live], b[live]
        chosen = pending.copy()
        chosen[np.where(priority[a] > priority[b], a, b)] = False
        chosen = np.nonzero(chosen)[0]
        pending[chosen] = False
        counts = star_ptr[chosen + 1] - star_ptr[chosen]
        first = np.cumsum(counts) - counts
        star = star_elem[np.repeat(star_ptr[chosen] - first, counts)
                         + np.arange(counts.sum())]
        coords[chosen] = new[chosen]
        q = quality(coords, tensors, elements[star], opts.qual_p)
        q_new = np.minimum.reduceat(q, first)
        q_old = np.minimum.reduceat(elem_q[star], first)
        ok = (q_new > 0.0) & (q_new >= q_old - 1e-13 * np.maximum(1.0, q_old))
        coords[chosen[~ok]] = nodes[chosen[~ok]]
        kept = np.repeat(ok, counts)
        elem_q[star[kept]] = q[kept]
        moved[chosen[ok]] = True
    # re-interpolate moved nodes from the pre-move mesh and field
    u_old = np.asarray(u, dtype=float)
    u_new = u_old.copy()
    tensors_new = tensors.copy()
    moved = np.nonzero(moved)[0]
    if moved.size:
        verts, lam, _ = _p1_weights(mesh, coords[moved])
        u_new[moved] = (lam * u_old[verts]).sum(axis=1)
        tensors_new[moved] = sum(lam[:, v, None, None] * tensors[verts[:, v]]
                                 for v in range(d + 1))
    return replace(mesh, nodes=coords), u_new, MetricField(tensors_new), len(moved)


def swap_pass(mesh, u, psi, opts):
    """Quality-improving connectivity swaps.

    2D: flip the shared diagonal of adjacent triangle pairs when it strictly
    raises the pair's minimum combined quality. 3D: 2-3 face and 3-2 edge
    swaps under the same criterion. Up to eight sweeps. Each sweep collects
    its candidates from the sweep-start mesh, scores them in one quality
    call and commits the improving ones in key order (in 3D the face swaps
    first); a candidate whose elements an earlier swap of the same sweep
    rewired is skipped, and the next sweep sees it again.
    """
    sweep = _swap_sweep_2d if mesh.dim == 2 else _swap_sweep_3d
    coords, tensors = mesh.nodes, psi.tensors
    elems = mesh.elements.copy()
    elem_q = quality(coords, tensors, elems, opts.qual_p)
    n_swaps = 0
    for _ in range(_SWAP_SWEEPS):
        elems, elem_q, swaps = sweep(coords, tensors, elems, elem_q, opts.qual_p)
        n_swaps += swaps
        if swaps == 0:
            break
    return replace(mesh, elements=elems), np.array(u, dtype=float), psi, n_swaps


def _take_disjoint(groups, used):
    """Indices of the rows of `groups` (element ids), in order, that share no
    element with `used` or an earlier taken row; marks taken elements used."""
    taken = []
    for k, row in enumerate(groups.tolist()):
        if not any(used[e] for e in row):
            for e in row:
                used[e] = 1
            taken.append(k)
    return np.array(taken, dtype=np.int64)


def _oriented(simplices, vols):
    """`simplices` (..., d+1) with their first two vertices exchanged where
    `vols`, their signed volumes, are not positive."""
    flipped = simplices[..., [1, 0] + list(range(2, simplices.shape[-1]))]
    return np.where((vols > 0.0)[..., None], simplices, flipped)


def _swap_sweep_2d(coords, tensors, elems, elem_q, qual_p):
    """One 2D sweep of `swap_pass` on `elems` and their qualities `elem_q`,
    both updated in place: (elems, elem_q, number of flips)."""
    n = len(coords)
    edges, elem_edges, counts = facet_topology(elems, n)
    # per interior edge (a, b), in key order: its elements e1 < e2 and
    # their vertices c, dd opposite it
    slots, inner = _slots_by_count(elem_edges.ravel(), counts, 2)
    (e1, e2), (c, dd) = slots.T // 3, elems.ravel()[slots].T
    a, b = edges[inner].T
    t1, t2 = np.column_stack([c, dd, a]), np.column_stack([c, dd, b])
    va, vb = signed_volumes(coords, t1), signed_volumes(coords, t2)
    # the quad must be strictly convex; then an existing edge c-dd would
    # cross edge a-b, and c == dd gives va = 0, so no edge lookup is needed
    ok = va * vb < 0.0
    t1, t2 = _oriented(t1, va)[ok], _oriented(t2, vb)[ok]
    e1, e2 = e1[ok], e2[ok]
    q = quality(coords, tensors, np.vstack([t1, t2]), qual_p).reshape(2, -1)
    q_old = np.minimum(elem_q[e1], elem_q[e2])
    better = np.nonzero(q.min(axis=0) > q_old * (1.0 + 1e-10))[0]
    pairs = np.column_stack([e1, e2])[better]
    flip = better[_take_disjoint(pairs, bytearray(len(elems)))]
    elems[e1[flip]], elems[e2[flip]] = t1[flip], t2[flip]
    elem_q[e1[flip]], elem_q[e2[flip]] = q[0, flip], q[1, flip]
    return elems, elem_q, len(flip)


def _swap_sweep_3d(coords, tensors, elems, elem_q, qual_p):
    """One 3D sweep of `swap_pass`: (elems, elem_q, number of swaps), the
    unswapped elements first."""
    n = len(coords)
    faces, elem_faces, face_counts = facet_topology(elems, n)
    edges, elem_edges, edge_counts = sub_simplices(elems, n, _pairs(4))
    # 2-3: per interior face (f0, f1, f2), in key order, its tets e1 < e2
    # and their apexes p, q; p-q must pierce the face (the new volumes share
    # a sign), which no existing edge can, and p == q gives zero volumes
    slots, inner = _slots_by_count(elem_faces.ravel(), face_counts, 2)
    old23 = slots // 4
    p, q = elems.ravel()[slots].T
    f0, f1, f2 = faces[inner].T
    tets23 = np.stack([np.column_stack([p, f0, f1, q]),
                       np.column_stack([p, f1, f2, q]),
                       np.column_stack([p, f2, f0, q])], axis=1)
    vols = signed_volumes(coords, tets23.reshape(-1, 4)).reshape(-1, 3)
    ok = np.all(vols > 0.0, axis=1) | np.all(vols < 0.0, axis=1)
    old23, tets23 = old23[ok], _oriented(tets23[ok], vols[ok])
    # 3-2: per edge (e0, e1) in exactly three tets, in key order, whose
    # other vertices close a ring a < b < c (a vertex appears at most once
    # per tet, so closure orders the sorted pairs); the new face abc must
    # separate e0 from e1, so e0-e1 pierces it and it cannot exist yet
    slots, ring = _slots_by_count(elem_edges.ravel(), edge_counts, 3)
    old32 = slots // 6
    e0, e1 = edges[ring].T
    others = np.sort(elems[old32].reshape(-1, 12), axis=1)
    others = others[(others != e0[:, None]) & (others != e1[:, None])].reshape(-1, 6)
    a, b, c = others[:, 0::2].T
    v0 = signed_volumes(coords, np.column_stack([a, b, c, e0]))
    v1 = signed_volumes(coords, np.column_stack([a, b, c, e1]))
    ok = np.all(others[:, 0::2] == others[:, 1::2], axis=1) & (v0 * v1 < 0.0)
    tets32 = np.stack([_oriented(np.column_stack([a, b, c, e0]), v0),
                       _oriented(np.column_stack([a, b, c, e1]), v1)], axis=1)
    old32, tets32 = old32[ok], tets32[ok]
    scores = quality(coords, tensors, np.vstack([tets23.reshape(-1, 4),
                                                 tets32.reshape(-1, 4)]), qual_p)
    q23 = scores[:3 * len(old23)].reshape(-1, 3)
    q32 = scores[3 * len(old23):].reshape(-1, 2)
    used = bytearray(len(elems))
    take = []
    for old, q_new in ((old23, q23), (old32, q32)):
        better = np.nonzero(q_new.min(axis=1)
                            > elem_q[old].min(axis=1) * (1.0 + 1e-10))[0]
        take.append(better[_take_disjoint(old[better], used)])
    dead = np.frombuffer(used, dtype=bool)
    elems = np.vstack([elems[~dead], tets23[take[0]].reshape(-1, 4),
                       tets32[take[1]].reshape(-1, 4)])
    elem_q = np.concatenate([elem_q[~dead], q23[take[0]].ravel(),
                             q32[take[1]].ravel()])
    return elems, elem_q, len(take[0]) + len(take[1])


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


def tradapt(mesh, u, opts):
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
    for _ in range(opts.innerit):
        it_stats = {}
        for name, count in (("swap", "swaps"), ("coarsen", "collapses"),
                            ("refine", "splits"), ("move", "moves")):
            if getattr(mask, name):
                # looked up per call, so a wrapper set on the module sees it
                run = globals()[f"{name}_pass"]
                mesh, u, psi, it_stats[count] = run(mesh, u, psi, opts)
                _validate_after(mesh, name)
        psi = metric_for_field(mesh, u, opts.eta_policy, opts.ppar,
                               opts.field_selector)
        lmax = float(edge_lengths(mesh.nodes, psi.tensors, mesh.edges()).max(initial=0.0))
        it_stats["np"] = mesh.num_nodes
        it_stats["lmax"] = lmax
        stats.iterations.append(it_stats)
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
