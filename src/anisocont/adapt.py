"""Metric-driven mesh adaptation: coarsen, refine, move and swap passes.

The passes are selected by the 4-bit `sw` mask (bit 1 move, bit 2 refine,
bit 4 coarsen, bit 8 swap) and chained by `tradapt`, which recomputes the
metric between inner iterations and stops once the longest metric edge drops
below the upper threshold. `two_step_adapt` optionally coarsens to a node
budget first and then adapts with refinement enabled. Every pass works on
whole arrays. Coarsening tries its collapses shortest first, and each one
decides which edges the next ones see, so its rounds commit exactly what
trying them one at a time would. Collapses and swaps look up no existing
element, face or edge: on a valid mesh the orientation test rejects every
candidate such a lookup would. Every pass returns nodes, elements and box;
the mesh derives its boundary from them.
"""
from __future__ import annotations

import logging
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from functools import reduce

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
# bounds of the number of pending collapse attempts a coarsen round takes;
# it doubles after a round that decides at least half of them, else halves
_ROUND_MIN, _ROUND_MAX = 32, 256
_FREE = np.iinfo(np.int64).max         # an unreserved element or node


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


class _CollapseRounds:
    """Array state of one coarsen pass, whose collapses are decided in rounds.

    Node and element ids stay those of the input: dying rows are marked
    dead, rewired rows are written in place. `n2e[v, :deg[v]]` lists the
    live elements of node v, padded with -1. Node n and element ne are
    sentinels, so index -1 reads a node of no element or a dead element.
    """

    def __init__(self, mesh, psi, qual_p):
        n, (ne, nv) = mesh.num_nodes, mesh.elements.shape
        self.coords, self.tensors, self.qual_p = mesh.nodes, psi.tensors, qual_p
        self.elems = np.vstack([mesh.elements, np.full((1, nv), n)]).astype(np.int64)
        self.dead, self.alive = np.arange(ne + 1) == ne, np.arange(n + 1) < n
        self.elem_q = np.append(quality(mesh.nodes, psi.tensors, mesh.elements, qual_p),
                                np.inf)
        by_node = np.argsort(mesh.elements.ravel(), kind="stable")
        node = mesh.elements.ravel()[by_node]
        self.deg = np.bincount(node, minlength=n + 1)
        self.n2e = np.full((n + 1, 2 * self.deg.max()), -1)
        self.n2e[node, np.arange(len(node)) - (np.cumsum(self.deg) - self.deg)[node]] = (
            by_node // nv)
        # per element and node the lowest window rank reserving it, reset
        # after each round
        self.res_e, self.res_v = np.full(ne + 1, _FREE), np.full(n + 1, _FREE)

    def round(self, a, b, keep_a, keep_b, ready):
        """Decide the attempts (a[k], b[k]) of a window, in the order they
        would be tried one at a time, both endpoints alive; `keep_a` and
        `keep_b` allow keeping a and keeping b, and only `ready` ones may be
        decided. Returns the decided and the committed masks."""
        m, nv = len(a), self.elems.shape[1]
        rank = np.arange(m)
        w = max(self.deg[a].max(), self.deg[b].max())
        sa, sb = self.n2e[a, :w], self.n2e[b, :w]
        ea = self.elems[sa]
        shared = _holds(ea, b[:, None])                  # the dying elements
        has = shared.any(axis=1)
        # an attempt reads and writes the elements of both stars, and the
        # element lists of its endpoints and of its dying elements' vertices
        stars = np.hstack([sa, sb])
        in_e = (stars >= 0) & has[:, None]
        kd, jd = np.nonzero(shared)
        kv, dv = np.repeat(kd, nv), ea[kd, jd].ravel()
        # reserve each element and node for the lowest window rank naming
        # it; an attempt that holds all of its own meets no earlier one
        decided = ready.copy()
        for res, ids, by in ((self.res_e, stars[in_e], np.nonzero(in_e)[0]),
                             (self.res_v, np.concatenate([a, b, dv]),
                              np.concatenate([rank, rank, kv]))):
            np.minimum.at(res, ids, by)
            decided &= np.bincount(by[res[ids] < by], minlength=m) == 0
            res[ids] = _FREE
        # the vertices whose every element is dying (decided attempts share
        # no vertex, so one count per node serves them all)
        on = decided[kv]
        kv, dv = kv[on], dv[on]
        last = self.deg[dv] == np.bincount(dv, minlength=len(self.deg))[dv]
        # per direction, keep s and remove r: allowed if the flags allow it
        # and no vertex but r loses its last element; r's other elements
        # are rewired to s
        g = np.flatnonzero(decided & has)
        plans = []
        for s, r, star, keep in ((a, b, sb, keep_a), (b, a, sa, keep_b)):
            keep = (keep & (np.bincount(kv[last & (dv != r[kv])], minlength=m) == 0))[g]
            s, r, star = s[g, None], r[g, None], star[g]
            rows = self.elems[star]
            rew = (star >= 0) & ~_holds(rows, s) & keep[:, None]
            new = np.where(rows == r[..., None], s[..., None], rows)
            plans.append((keep, star, rew, new))
        q = quality(self.coords, self.tensors,
                    np.vstack([new[rew] for _, _, rew, new in plans]), self.qual_p)
        # no rewired row may invert or drop below the floor of the stars'
        # worst quality; the better direction wins, the first one ties
        floor = _QUALITY_FLOOR_FACTOR * self.elem_q[stars[g]].min(axis=1)
        best, choice, q_new = np.full(len(g), -np.inf), np.full(len(g), -1), []
        for k, (keep, _, rew, _) in enumerate(plans):
            q_new.append(np.full(rew.shape, np.inf))
            q_new[k][rew], q = q[:rew.sum()], q[rew.sum():]
            low = q_new[k].min(axis=1)
            better = keep & ~((low <= 0.0) | (low < floor)) & (low > best)
            best[better], choice[better] = low[better], k
        for k, ((_, star, rew, new), q_k) in enumerate(zip(plans, q_new)):
            pick = rew & (choice == k)[:, None]
            self.elems[star[pick]], self.elem_q[star[pick]] = new[pick], q_k[pick]
        c = choice >= 0
        self.dead[sa[g][shared[g] & c[:, None]]] = True
        committed = np.zeros(m, dtype=bool)
        committed[g[c]] = True
        others = dv[committed[kv] & (dv != a[kv]) & (dv != b[kv])]
        a, b, to_b = a[g[c]], b[g[c]], choice[c] == 1
        self._relink(np.where(to_b, b, a), np.where(to_b, a, b), others)
        return decided, committed

    def _relink(self, s, r, others):
        """Update the element lists after collapsing each r[k] into s[k]:
        drop the dead elements from the lists of s, r and the other
        vertices of the dying elements (`others`, with repeats), and move
        r's remaining ones to s."""
        self.alive[r] = False
        others = np.sort(others)
        others = others[np.diff(others, prepend=-1) != 0]
        nodes = np.concatenate([np.column_stack([s, r]).ravel(), others])
        rows = self.n2e[nodes, :self.deg[nodes].max(initial=0)]
        live = ~self.dead[rows]
        # r's row follows s's and takes its label, so each label's entries
        # stay contiguous
        label = np.concatenate([np.repeat(s, 2), others])[np.nonzero(live)[0]]
        start = np.flatnonzero(np.diff(label, prepend=-1))
        count = np.diff(np.append(start, len(label)))
        self.deg[nodes] = 0
        self.deg[label[start]] = count
        if count.max(initial=0) > self.n2e.shape[1]:
            self.n2e = np.pad(self.n2e, ((0, 0), (0, count.max())), constant_values=-1)
        self.n2e[nodes, :rows.shape[1]] = -1
        self.n2e[label, np.arange(len(label)) - np.repeat(start, count)] = rows[live]


def _holds(rows, v):
    """Whether each row rows[k, j] (of nv node ids) holds the node v[k, 0];
    column by column, as np.any on rows this short costs more."""
    hit = rows[..., 0] == v
    for j in range(1, rows.shape[-1]):
        hit |= rows[..., j] == v
    return hit


def coarsen_pass(mesh, u, psi, opts):
    """Collapse metric-short edges, shortest first.

    When `opts` carries a positive node budget `npb`, edges beyond `l_low`
    are also collapsed (still in ascending length order) until the node
    count drops to the budget. A pass with nothing to try returns the input
    mesh.

    Rounds (`_CollapseRounds.round`) commit what trying the attempts one at
    a time would: each decides the attempts of a window of pending ones,
    in order, whose element and node sets meet no earlier one of it. In
    budget mode a long attempt waits until the node count before it is
    known to be above the budget, or stops the pass once it is not.
    """
    edges = mesh.edges()
    lens = edge_lengths(mesh.nodes, psi.tensors, edges)
    order = np.argsort(lens, kind="stable")
    long = lens[order] >= opts.l_low
    npb = int(getattr(opts, "npb", 0))
    n = mesh.num_nodes
    if len(order) == 0 or (long[0] and (npb <= 0 or n <= npb)):
        return mesh, np.array(u, dtype=float), psi, 0
    # the survivor must carry every segment flag of the removed node, so
    # boundary endpoints win over interior ones and corners never vanish
    member = mesh.segment_membership[1]
    bits = member @ (np.int64(1) << np.arange(member.shape[1], dtype=np.int64))
    a, b = edges[order].astype(np.int64).T
    keep_a, keep_b = (bits[b] & ~bits[a]) == 0, (bits[a] & ~bits[b]) == 0
    # without a budget the first long edge ends the pass
    tried = (keep_a | keep_b) & ((npb > 0) | ~long)
    a, b, keep_a, keep_b, long = (x[tried] for x in (a, b, keep_a, keep_b, long))
    rounds = _CollapseRounds(mesh, psi, opts.qual_p)
    alive, committed = rounds.alive, np.zeros(len(a), dtype=bool)
    pending = np.zeros(0, dtype=np.int64)       # undecided attempts, in order
    nxt, end, width = 0, len(a), _ROUND_MIN
    while len(pending) or nxt < end:
        win = np.append(pending, np.arange(nxt, min(nxt + width - len(pending), end)))
        nxt = max(nxt, win[-1] + 1)
        win = win[alive[a[win]] & alive[b[win]]]
        ready = ~long[win]
        if not ready.all():
            # the node count before each attempt is at most `hi`, and at
            # least `hi` less the undecided attempts before it
            span = committed[win[0]:nxt]
            hi = n - (committed.sum() - span.sum()
                      + np.concatenate([[0], np.cumsum(span)])[win - win[0]])
            stop = np.flatnonzero(long[win] & (hi <= npb))
            if len(stop):                       # the budget is reached there
                end = win[stop[0]]
                win, hi, ready = win[:stop[0]], hi[:stop[0]], ready[:stop[0]]
            ready |= hi - np.arange(len(win)) > npb
        pending = win
        if len(win):
            decided, committed[win] = rounds.round(a[win], b[win], keep_a[win],
                                                   keep_b[win], ready)
            pending = win[~decided]
            width = (min(2 * width, _ROUND_MAX) if 2 * decided.sum() >= len(win)
                     else max(width // 2, _ROUND_MIN))
    keep = np.flatnonzero(alive[:n])
    remap = np.cumsum(alive[:n]) - 1            # the new ids of the alive nodes
    elements = remap[rounds.elems[:-1][~rounds.dead[:-1]]]
    return (SimplicialMesh(mesh.dim, mesh.nodes[keep], elements, mesh.box),
            np.asarray(u, dtype=float)[keep], MetricField(psi.tensors[keep]),
            int(committed.sum()))


def refine_pass(mesh, u, psi, opts):
    """Longest-edge bisection with conformity closure (Rivara, IJNME 1984).

    Each round marks the longest metric edge of every element whose longest
    metric edge exceeds `l_up` and bisects every marked edge, with field and
    metric tensors averaged from its endpoints, splitting every element on
    it (`_bisect`). The midpoint of the marked edge of rank k, by descending
    length and then node ids, is node n + k. Rounds repeat until no element
    violates the bound, or warn after `_MAX_REFINE_ROUNDS`.

    An element that is not split keeps its edges, so later rounds measure
    only the last round's children: `_bisect` puts the unsplit elements
    first, and every child holds a new node.
    """
    pairs = _pairs(mesh.dim + 1)
    coords, tensors = mesh.nodes, psi.tensors
    u = np.array(u, dtype=float)
    elems = np.asarray(mesh.elements, dtype=np.int64)
    n_split, first = 0, 0
    for rnd in range(_MAX_REFINE_ROUNDS + 1):
        # one length per element pair (swapped endpoints give the same bits)
        ends = elems[first:, pairs]
        lens = edge_lengths(coords, tensors, ends.reshape(-1, 2)).reshape(len(ends), -1)
        longest = reduce(np.maximum, lens.T)
        viol = np.nonzero(longest > opts.l_up)[0]
        if viol.size == 0:
            break
        if rnd == _MAX_REFINE_ROUNDS:
            logger.warning("refine stopped after %d rounds with %d elements "
                           "still above l_up", rnd, viol.size)
            break
        n = len(coords)
        marked = ends[viol, lens[viol].argmax(axis=1)]
        keys, inverse = np.unique(_edge_keys(marked[:, 0], marked[:, 1], n),
                                  return_inverse=True)
        length = np.full(len(keys), -np.inf)
        np.maximum.at(length, inverse, longest[viol])
        keys = keys[np.argsort(-length, kind="stable")]     # ties in key order
        a, b = keys // n, keys % n
        elems = _bisect(elems, a, b, n)
        # column by column: np.max on rows this short costs more
        first = np.count_nonzero(reduce(np.maximum, elems.T) < n)
        coords, u, tensors = (np.concatenate([x, 0.5 * (x[a] + x[b])])
                              for x in (coords, u, tensors))
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
