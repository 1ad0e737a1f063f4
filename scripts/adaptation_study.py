#!/usr/bin/env python3
"""Standalone adaptation experiments on a boundary-layer test function.

Compares adaptation variants on z = tanh(10(x-1)) over (-2,2)^2:
  * full adaptation (sw=15)
  * refine+move only (sw=3), then a posteriori coarsening (sw=5)
  * interpolation error against a uniform mesh of matched node count
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

import anisocont as ac
from anisocont import metric


def field(nodes):
    return np.tanh(10.0 * (nodes[:, 0] - 1.0))


def linf_error(mesh, n_sample=301):
    xs = np.linspace(-1.999, 1.999, n_sample)
    sample = np.array([(x, y) for y in xs for x in xs])
    probe = ac.SimplicialMesh(2, sample, np.zeros((0, 3), dtype=int), mesh.box)
    vals = ac.interpolate(mesh, field(mesh.nodes), probe)
    return float(np.abs(vals - field(sample)).max())


def adapt_repeatedly(mesh, opts, max_calls=10):
    counts = [mesh.num_nodes]
    for _ in range(max_calls):
        mesh, _, stats = ac.tradapt(mesh, field(mesh.nodes), opts)
        counts.append(stats.np_after)
        if abs(counts[-1] - counts[-2]) < 0.15 * counts[-2]:
            break
    return mesh, counts


def main():
    start = ac.build_rect_mesh(2.0, 2.0, 41, 41)
    print(f"start: structured {start.num_nodes} nodes, "
          f"Linf error {linf_error(start):.3e}")

    mesh15, trail = adapt_repeatedly(start, ac.AdaptOptions.for_dim(2, innerit=10))
    print(f"sw=15: np trail {trail}, Linf {linf_error(mesh15):.3e}")

    mesh3, _, st3 = ac.tradapt(start, field(start.nodes),
                               ac.AdaptOptions.for_dim(2, sw=3, innerit=4))
    print(f"sw=3 (no coarsening): np {st3.np_before} -> {st3.np_after}, "
          f"Linf {linf_error(mesh3):.3e}")

    mesh35, _, st35 = ac.tradapt(mesh3, field(mesh3.nodes),
                                 ac.CoarsenOptions(innerit=4))
    print(f"  then sw=5 coarsening: np {st35.np_before} -> {st35.np_after}, "
          f"Linf {linf_error(mesh35):.3e}")

    n_side = int(round(np.sqrt(mesh15.num_nodes)))
    uniform = ac.build_rect_mesh(2.0, 2.0, n_side, n_side)
    print(f"uniform {uniform.num_nodes} nodes: Linf {linf_error(uniform):.3e}")

    z = field(mesh15.nodes)
    opts = ac.AdaptOptions.for_dim(2)
    psi = metric.metric_for_field(mesh15, z, opts.eta_policy, opts.ppar)
    lens = metric.edge_lengths(mesh15.nodes, psi.tensors, mesh15.edges())
    lo, hi = 0.85 * opts.l_low, 1.15 * opts.l_up
    frac = float(np.mean((lens >= lo) & (lens <= hi)))
    print(f"edges within [{lo:.3f}, {hi:.3f}] in metric: {frac:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
