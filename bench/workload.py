"""One round of a benchmark workload, run by `run.py` in a fresh process.

    python3 bench/workload.py --workload cos --start -0.2 --out DIR [--trace]

It drives the library through the calls `anisocont run` makes (load_config,
build_mesh, run_continuation with an `on_record` that writes the branch CSV
and VTK snapshots, plot_branch), writes every output under DIR and ends with
DIR/summary.json: the monotonic time of each branch record, the events, the
end time and the peak resident memory. With --trace it also wraps each layer
(see `install_tracer`) and writes the spans to DIR/spans.jsonl.
"""
import os
import sys

# The BLAS thread count must be fixed before numpy loads; one thread keeps
# the figures steady on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

import anisocont  # noqa: E402
from anisocont import (adapt, continuation, fem, meshio, metric,  # noqa: E402
                       plotting)
from anisocont.config import load_config  # noqa: E402

# Cuts of the bundled scenarios; README.md explains each.
COS_TRIVIAL_STEPS = 18
COS_SWITCH_STEPS = 30
WSPOT2D_STEPS = 12
WSPOT3D_STEPS = 5
WSPOT3D_ETA_NP = 5e-5


class Leg:
    """Outputs of one run_continuation call: branch CSV, VTK snapshots at
    every `stride`-th and every adaptation step, branch-point snapshots,
    the branch plot and the final state."""

    def __init__(self, name, out, stride, amod, census=None):
        self.name = name
        self.out = out
        self.stride = stride
        self.amod = amod
        self.census = census
        self.records = []
        self.events = []
        self.csv_path = out / f"{name}_branch.csv"
        self.csv = open(self.csv_path, "w")
        self.csv.write(continuation.branch_csv_header() + "\n")

    def on_record(self, rec, st):
        self.records.append([time.monotonic(), rec.step, rec.flag,
                             rec.param_value, rec.np, rec.n_neg])
        self.csv.write(continuation.branch_csv_row(rec) + "\n")
        self.csv.flush()
        if rec.flag == "ADAPT":
            meshio.write_vtk(str(self.out / f"{self.name}_adapt{rec.step}.vtk"),
                             st.mesh, {"u": st.u})
            if self.census is not None:
                self.census.append((st.mesh, st.u))
        elif rec.flag != "BP" and (
                rec.step % self.stride == 0
                or (self.amod > 0 and rec.step > 0 and rec.step % self.amod == 0)):
            meshio.write_vtk(str(self.out / f"{self.name}_pt{rec.step}.vtk"),
                             st.mesh, {"u": st.u})

    def on_event(self, event, st):
        if isinstance(event, continuation.BPEvent):
            self.events.append({"kind": "BP", "step": event.step,
                                "param": event.param,
                                "approximate": event.approximate})
            k = sum(1 for e in self.events if e["kind"] == "BP")
            meshio.write_vtk(str(self.out / f"{self.name}_bp{k}.vtk"),
                             event.mesh, {"u": event.u, "phi": event.phi})
        else:
            self.events.append({"kind": "FP", "step": event.step,
                                "param": event.param})

    def run(self, state, settings, trop=None, trcop=None, direction=1):
        try:
            result = continuation.run_continuation(
                state, settings, trop=trop, trcop=trcop, direction=direction,
                on_record=self.on_record, on_event=self.on_event)
        finally:
            self.csv.close()
        plotting.plot_branch(str(self.csv_path),
                             str(self.out / f"{self.name}_branch.svg"))
        final = result.state
        meshio.write_vtk(str(self.out / f"{self.name}_final.vtk"), final.mesh,
                         {"u": final.u})
        self.stop_reason = result.stop_reason
        return result

    def to_json(self):
        return {"name": self.name, "amod": self.amod, "records": self.records,
                "events": self.events, "stop_reason": self.stop_reason}


def initial_state(cfg, settings):
    mesh = cfg.build_mesh()
    return continuation.ContinuationState(mesh, np.zeros(mesh.num_nodes),
                                          cfg.prob, ds=settings.ds0)


def run_cos(start, out, census):
    """Trivial branch with detection on, then the first bifurcating branch."""
    cfg = load_config(ROOT / "configs" / "ac2d_cos.cfg")
    cfg.prob.set_param(start)
    settings = replace(cfg.cont, nsteps=COS_TRIVIAL_STEPS, param_max=None)
    trivial = Leg("trivial", out, cfg.snapshot_stride, settings.amod, census)
    result = trivial.run(initial_state(cfg, settings), settings,
                         direction=cfg.direction)
    bp = next(e for e in result.events
              if isinstance(e, continuation.BPEvent))
    prob = cfg.prob.copy()
    prob.set_param(bp.param)
    bp_state = continuation.ContinuationState(bp.mesh, bp.u, prob,
                                              ds=settings.ds0)
    new_state = continuation.branch_switch(bp_state, bp.phi, settings)
    switch_settings = replace(settings, nsteps=COS_SWITCH_STEPS)
    switched = Leg("switched", out, cfg.snapshot_stride, settings.amod, census)
    switched.run(new_state, switch_settings)
    return [trivial, switched], cfg.trop


def run_wspot(config, start, out, census, nsteps, eta_np=None):
    cfg = load_config(ROOT / "configs" / config)
    cfg.prob.set_param(start)
    trop, trcop = cfg.trop, cfg.trcop
    if eta_np is not None:
        policy = metric.EtaPolicy.linear_in_np(eta_np)
        trop = replace(trop, eta_policy=policy)
        trcop = replace(trcop, eta_policy=policy)
    settings = replace(cfg.cont, nsteps=nsteps, param_max=None)
    leg = Leg("spot", out, cfg.snapshot_stride, settings.amod, census)
    leg.run(initial_state(cfg, settings), settings, trop=trop, trcop=trcop,
            direction=cfg.direction)
    return [leg], trop


def run_workload(name, start, out, census):
    if name == "cos":
        return run_cos(start, out, census)
    if name == "wspot2d":
        return run_wspot("ac2d_wspot.cfg", start, out, census, WSPOT2D_STEPS)
    if name == "wspot3d":
        return run_wspot("ac3d_wspot.cfg", start, out, census, WSPOT3D_STEPS,
                         eta_np=WSPOT3D_ETA_NP)
    raise ValueError(f"unknown workload {name!r}")


def _count(key):
    return lambda args, kwargs, result: {key: int(result[3])}


def _step_counts(args, kwargs, result):
    state = args[0]
    new_state, info = result
    ds_end = info["ds_used"] if new_state is not None else info["ds"]
    return {"newton_iters": int(info.get("newton_iters", 0)),
            "ds_halvings": int(round(math.log2(state.ds / ds_end)))}


def _vtk_bytes(args, kwargs, result):
    return {"vtk_bytes": os.path.getsize(args[0])}


class _ExtrapolationCounter(logging.Handler):
    """Counts the points `mesh.interpolate` reports as extrapolated."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.points = 0

    def emit(self, record):
        if record.msg.startswith("interpolate:") and record.args:
            self.points += int(record.args[0])


def install_tracer(tracer):
    """Wrap every traced layer at the attribute its caller looks up."""
    sla = scipy.sparse.linalg
    arpack = sys.modules["scipy.sparse.linalg._eigen.arpack.arpack"]
    ct = continuation
    for owner, attr, name, attrs in [
            (ct, "cont_step", "continuation.step", _step_counts),
            (ct, "stability_index", "continuation.stability", None),
            (ct, "detect_bifurcation", "continuation.bisection", None),
            (ct, "critical_eigenpair", "continuation.eigenpair", None),
            (ct, "branch_switch", "continuation.switch", None),
            (ct, "compute_tangent", "continuation.tangent", None),
            (ct, "newton_solve", "continuation.newton", None),
            (ct, "adapt_in_cont", "continuation.adapt", None),
            (ct, "interpolate", "mesh.interpolate", None),
            (sla, "spsolve", "scipy.spsolve", None),
            (sla, "eigsh", "scipy.eigsh", None),
            (arpack, "splu", "scipy.splu", None),
            (fem, "residual", "fem.residual", None),
            (fem, "jacobian", "fem.jacobian", None),
            (fem, "assemble_stiffness", "fem.assemble", None),
            (fem, "assemble_mass", "fem.assemble", None),
            (adapt, "swap_pass", "adapt.swap", _count("swaps")),
            (adapt, "coarsen_pass", "adapt.coarsen", _count("collapses")),
            (adapt, "refine_pass", "adapt.refine", _count("splits")),
            (adapt, "move_pass", "adapt.move", _count("moves")),
            (adapt, "metric_for_field", "metric.metric", None),
            (adapt, "validate", "mesh.validate", None),
            (meshio, "write_vtk", "meshio.vtk", _vtk_bytes),
            (plotting, "plot_branch", "plotting.svg", None)]:
        tracer.wrap(owner, attr, name, attrs)
    counter = _ExtrapolationCounter()
    logging.getLogger("anisocont.mesh").addHandler(counter)
    return counter


def edge_fraction(mesh, u, trop):
    """Share of edges whose metric length lies in [0.85 l_low, 1.15 l_up]."""
    psi = metric.metric_for_field(mesh, u, trop.eta_policy, trop.ppar,
                                  trop.field_selector)
    lens = metric.edge_lengths(mesh.nodes, psi.tensors, mesh.edges())
    inside = (lens >= 0.85 * trop.l_low) & (lens <= 1.15 * trop.l_up)
    return float(np.mean(inside))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if Path(anisocont.__file__).resolve().parent != SRC / "anisocont":
        sys.exit(f"anisocont was imported from {anisocont.__file__}, "
                 f"not from {SRC}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = census = counter = None
    if args.trace:
        from spans import Tracer
        tracer, census = Tracer(), []
        counter = install_tracer(tracer)
    legs, trop = run_workload(args.workload, args.start, out, census)
    t_end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    summary = {"t_end": t_end, "cpu_s": usage.ru_utime + usage.ru_stime,
               "maxrss_kib": usage.ru_maxrss,
               "legs": [leg.to_json() for leg in legs]}
    if tracer is not None:
        tracer.unwrap_all()
        tracer.dump(out / "spans.jsonl")
        summary["extrapolated"] = counter.points
        summary["nodes_after"] = [m.num_nodes for m, _ in census]
        summary["edge_fraction"] = [edge_fraction(m, u, trop)
                                    for m, u in census]
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f)


if __name__ == "__main__":
    main()
