"""Command line driver: run continuation scenarios from config files, apply
standalone adaptation to mesh/field files, plot branches, validate meshes."""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import meshio
from .adapt import AdaptOptions, CoarsenOptions, two_step_adapt
from .config import ConfigError, load_config
from .mesh import validate
from .continuation import (BPEvent, ContinuationState, branch_csv_header,
                           branch_csv_row, run_continuation)
from .metric import EtaPolicy
from .plotting import plot_branch

logger = logging.getLogger(__name__)


def cmd_run(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(cfg.output_dir, exist_ok=True)
    mesh = cfg.build_mesh()
    prob = cfg.prob
    u0 = np.zeros(mesh.num_nodes)
    state = ContinuationState(mesh, u0, prob, ds=cfg.cont.ds0)

    stats_path = os.path.join(cfg.output_dir, f"{cfg.name}_adapt.log")
    stats_log = open(stats_path, "w")
    if cfg.initial_adapt:
        from .continuation import newton_solve
        res = newton_solve(mesh, u0, prob, cfg.cont.newton_tol,
                           cfg.cont.newton_max_it)
        if not res.converged:
            print("error: initial Newton solve failed", file=sys.stderr)
            stats_log.close()
            return 1
        mesh, u0, st = two_step_adapt(mesh, res.u, cfg.trop, cfg.trcop)
        for line in st.to_lines():
            stats_log.write("initial " + line + "\n")
        state = ContinuationState(mesh, u0, prob, ds=cfg.cont.ds0)

    csv_path = os.path.join(cfg.output_dir, f"{cfg.name}_branch.csv")
    csv_file = open(csv_path, "w")
    csv_file.write(branch_csv_header() + "\n")
    bp_count = [0]

    def on_record(rec, st):
        csv_file.write(branch_csv_row(rec) + "\n")
        csv_file.flush()
        stride = cfg.snapshot_stride
        due = stride > 0 and rec.flag != "BP" and rec.step % stride == 0
        if due or rec.flag == "ADAPT":
            path = os.path.join(cfg.output_dir, f"{cfg.name}_pt{rec.step}.vtk")
            meshio.write_vtk(path, st.mesh, {"u": st.u})
        if rec.flag == "ADAPT":
            stats_log.write(f"adapt step={rec.step} np={rec.np}\n")
            stats_log.flush()

    def on_event(event, st):
        if isinstance(event, BPEvent):
            bp_count[0] += 1
            path = os.path.join(cfg.output_dir,
                                f"{cfg.name}_bp{bp_count[0]}.vtk")
            meshio.write_vtk(path, event.mesh, {"u": event.u, "phi": event.phi})

    try:
        result = run_continuation(state, cfg.cont, trop=cfg.trop,
                                  trcop=cfg.trcop, direction=cfg.direction,
                                  on_record=on_record, on_event=on_event)
    except Exception as exc:                       # flush partials, then fail
        logger.exception("run failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        csv_file.close()
        stats_log.close()

    svg_path = os.path.join(cfg.output_dir, f"{cfg.name}_branch.svg")
    plot_branch(csv_path, svg_path)
    final = result.state
    meshio.write_vtk(os.path.join(cfg.output_dir, f"{cfg.name}_final.vtk"),
                     final.mesh, {"u": final.u})
    print(f"{cfg.name}: {len(result.records)} records, "
          f"{sum(1 for e in result.events if isinstance(e, BPEvent))} BPs, "
          f"stopped: {result.stop_reason}")
    if not any(r.flag != "BP" and r.step > 0 for r in result.records):
        return 1
    return 0


def cmd_adapt(args):
    for path in (args.mesh, args.values):
        if not os.path.exists(path):
            print(f"error: input file not found: {path}", file=sys.stderr)
            return 2
    try:
        mesh = meshio.read_mesh_text(args.mesh)
        u = meshio.read_field_text(args.values)
    except Exception as exc:
        print(f"error: cannot read inputs: {exc}", file=sys.stderr)
        return 2
    if len(u) != mesh.num_nodes:
        print(f"error: field has {len(u)} values for {mesh.num_nodes} nodes",
              file=sys.stderr)
        return 2
    report = validate(mesh)
    if not report.ok:
        print(f"error: invalid input mesh: {report}", file=sys.stderr)
        return 2
    try:
        eta_policy = (EtaPolicy.linear_in_np(args.eta_np) if args.eta_np is not None
                      else EtaPolicy.constant(args.eta))
        trop = AdaptOptions.for_dim(mesh.dim, eta_policy=eta_policy, sw=args.sw,
                                    l_low=args.llow, l_up=args.lup,
                                    innerit=args.innerit)
        trcop = CoarsenOptions.from_trop(trop, npb=args.npb, crmax=args.crmax)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mesh2, u2, stats = two_step_adapt(mesh, u, trop, trcop)
    out_mesh = args.out_mesh or _default_out(args.mesh)
    out_field = args.out_field or _default_out(args.values)
    meshio.write_mesh_text(out_mesh, mesh2)
    meshio.write_field_text(out_field, u2)
    for line in stats.to_lines():
        print(line)
    print(f"wrote {out_mesh} and {out_field}")
    return 0


def _default_out(path):
    stem, ext = os.path.splitext(path)
    return f"{stem}_adapted{ext or '.txt'}"


def cmd_plot(args):
    if not os.path.exists(args.csv):
        print(f"error: input file not found: {args.csv}", file=sys.stderr)
        return 2
    try:
        plot_branch(args.csv, args.svg)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_validate(args):
    if not os.path.exists(args.mesh):
        print(f"error: input file not found: {args.mesh}", file=sys.stderr)
        return 2
    try:
        mesh = meshio.read_mesh_text(args.mesh)
    except Exception as exc:
        print(f"error: cannot read mesh: {exc}", file=sys.stderr)
        return 2
    report = validate(mesh)
    print(f"nodes={mesh.num_nodes} elements={mesh.num_elements} "
          f"inverted={report.inverted_elements} "
          f"nonconforming={report.nonconforming_facets} "
          f"orphans={report.orphan_nodes} boundary={report.boundary_defects}")
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="anisocont",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a continuation scenario")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_adapt = sub.add_parser("adapt", help="adapt a mesh/field pair once")
    p_adapt.add_argument("mesh")
    p_adapt.add_argument("values")
    p_adapt.add_argument("--sw", type=int, default=15)
    p_adapt.add_argument("--eta", type=float, default=1e-3)
    p_adapt.add_argument("--eta-np", type=float, default=None,
                         help="use eta = ETA_NP * node count instead of --eta")
    p_adapt.add_argument("--llow", type=float, default=1.0 / math.sqrt(2.0))
    p_adapt.add_argument("--lup", type=float, default=math.sqrt(2.0))
    p_adapt.add_argument("--innerit", type=int, default=2)
    p_adapt.add_argument("--npb", type=int, default=0)
    p_adapt.add_argument("--crmax", type=int, default=10)
    p_adapt.add_argument("--out-mesh", default=None)
    p_adapt.add_argument("--out-field", default=None)
    p_adapt.set_defaults(func=cmd_adapt)

    p_plot = sub.add_parser("plot", help="render a branch CSV as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("svg")
    p_plot.set_defaults(func=cmd_plot)

    p_val = sub.add_parser("validate", help="check a mesh file")
    p_val.add_argument("mesh")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
