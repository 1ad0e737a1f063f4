"""Benchmark of anisocont: continuation runs on cuts of the bundled scenarios.

    python3 bench/run.py --workload cos --seed 1 --seconds 20 --trace 0

Each run repeats whole rounds of one workload, every round in a fresh
`workload.py` process, until `--seconds` have passed and at least
MIN_ROUNDS rounds are done. It then checks every round's outputs and prints
one JSON line: with `--trace 0` the end-to-end metrics (medians over the
rounds), with `--trace 1` the per-layer metrics of traced rounds. The seed
only moves the scenario's start parameter; README.md describes the
workloads, the metrics and the checks.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import load_spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 2
RUN_DEADLINE_S = 150.0          # kill a round that would end past this

# workload -> range of the start parameter the seed draws from: lambda_0 for
# cos around the bundled -0.2, xi_0 for wspot2d from the bundled 0. wspot3d
# keeps the bundled xi_0 = 0 on every seed: its first adaptation fails the
# L2-jump check for some xi_0 in [0, 0.02] (see README.md).
START = {"cos": (-0.21, -0.19), "wspot2d": (0.0, 0.02), "wspot3d": (0.0, 0.0)}

SPANS = ["continuation.step", "continuation.stability", "continuation.bisection",
         "continuation.eigenpair", "continuation.switch", "continuation.tangent",
         "continuation.newton", "continuation.adapt", "scipy.spsolve",
         "scipy.eigsh", "scipy.splu", "fem.residual", "fem.jacobian",
         "fem.assemble", "adapt.swap", "adapt.coarsen", "adapt.refine",
         "adapt.move", "metric.metric", "mesh.validate", "mesh.interpolate",
         "meshio.vtk", "plotting.svg"]
SPAN_COUNTS = {"continuation.step": ("continuation.newton_iters",
                                     "continuation.ds_halvings"),
               "adapt.swap": ("adapt.swaps",), "adapt.coarsen": ("adapt.collapses",),
               "adapt.refine": ("adapt.splits",), "adapt.move": ("adapt.moves",),
               "meshio.vtk": ("meshio.vtk_bytes",)}


def start_param(workload, seed):
    low, high = START[workload]
    return low + (high - low) * random.Random(seed).random()


def run_round(workload, start, out, trace, deadline):
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--start", repr(start), "--out", str(out)] + (["--trace"] if trace else [])
    with open(out / "stdout.log", "w") as so, open(out / "stderr.log", "w") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload} round in {out} ran past the deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = (out / "stderr.log").read_text()[-2000:]
        raise RuntimeError(f"{workload} round failed with exit code {code}:\n{tail}")
    with open(out / "summary.json") as f:
        summary = json.load(f)
    summary["t_spawn"] = t_spawn
    summary["dir"] = out
    return summary


# --- operations and end-to-end metrics ----------------------------------------

def count_operations(summary):
    """(attempted, failed) over continuation steps, adaptations, stability
    index evaluations and branch-point localizations of one round."""
    attempted = failed = 0
    for leg in summary["legs"]:
        recs = leg["records"]
        steps = {r[1] for r in recs if r[1] > 0}
        underflow = leg["stop_reason"] == "stepsize underflow"
        attempted += len(steps) + underflow
        failed += underflow
        if leg["amod"] > 0:
            adapted = {r[1] for r in recs if r[2] == "ADAPT"}
            due = [s for s in steps if s % leg["amod"] == 0]
            attempted += len(due)
            failed += sum(1 for s in due if s not in adapted)
        evaluations = [r for r in recs if r[2] not in ("BP", "ADAPT")]
        if any(r[5] is not None for r in evaluations):
            attempted += len(evaluations)
            failed += sum(1 for r in evaluations if r[5] is None)
        folds = {e["step"] for e in leg["events"] if e["kind"] == "FP"}
        for e in leg["events"]:
            if e["kind"] == "BP":
                attempted += 1
                failed += e["approximate"] or e["step"] in folds
    return attempted, failed


def plain_step_gaps(summary):
    """Seconds between consecutive accepted-step records, leaving out steps
    with a branch-point localization or an adaptation."""
    gaps = []
    for leg in summary["legs"]:
        recs = leg["records"]
        for k in range(1, len(recs)):
            t, step, flag = recs[k][:3]
            prev_t, prev_step, prev_flag = recs[k - 1][:3]
            adapted = k + 1 < len(recs) and recs[k + 1][2] == "ADAPT"
            if (flag in ("", "FP") and prev_flag != "BP" and not adapted
                    and step == prev_step + 1):
                gaps.append(t - prev_t)
    return gaps


def end_to_end(rounds):
    setup = [r["legs"][0]["records"][0][0] - r["t_spawn"] for r in rounds]
    run = [r["t_end"] - r["legs"][0]["records"][0][0] for r in rounds]
    gaps = [g for r in rounds for g in plain_step_gaps(r)]
    rss = [r["maxrss_kib"] / 1024.0 for r in rounds]
    return {"setup_s": (statistics.median(setup), "s"),
            "run_s": (statistics.median(run), "s"),
            "step_p50_s": (statistics.median(gaps), "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB")}


def per_layer(rounds):
    """Medians over traced rounds of each span's total, self time and calls,
    the counts attached to spans, and the adaptation census."""
    values = {}
    for r in rounds:
        t_first = r["legs"][0]["records"][0][0]
        spans = load_spans(r["dir"] / "spans.jsonl")
        per_name, coverage = summarize(spans, (t_first, r["t_end"]))
        row = {"trace.run_s": r["t_end"] - t_first, "trace.coverage": coverage,
               "adapt.nodes_after": statistics.fmean(r["nodes_after"] or [0]),
               "adapt.edge_fraction": statistics.fmean(r["edge_fraction"] or [0]),
               "mesh.extrapolated": r["extrapolated"]}
        for name in SPANS:
            entry = per_name.get(name, {"total": 0.0, "self": 0.0, "calls": 0})
            row[name + "_s"] = entry["total"]
            row[name + "_self_s"] = entry["self"]
            row[name + "_calls"] = entry["calls"]
        for name, keys in SPAN_COUNTS.items():
            for key in keys:
                attr = key.split(".", 1)[1]
                row[key] = sum(s["attrs"][attr] for s in spans
                               if s["name"] == name and s["attrs"])
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: (statistics.median(values[m["name"]]), m["unit"])
            for m in units}


# --- output checks --------------------------------------------------------------

def branch_rows(summary, leg_name):
    return checks.read_branch_csv(summary["dir"] / f"{leg_name}_branch.csv")


def snapshot(summary, name, key="u"):
    """(nodes, cells, values) of one field of a VTK snapshot."""
    nodes, cells, data = checks.read_vtk(summary["dir"] / name)
    return nodes, cells, data[key]


@functools.cache
def reference_2d(xi):
    return checks.reference_spot2d(xi, *checks.REF_GRID)


def check_cos(summary):
    d = summary["dir"].name
    rows = branch_rows(summary, "trivial")
    bps = [float(r["param_value"]) for r in rows if r["flag"] == "BP"]
    errors = checks.check_branch_points(bps, [0.3125, 0.5, 0.8125], f"{d} trivial")
    errors += checks.check_roundoff(rows, f"{d} trivial")
    errors += checks.check_n_neg(rows, 0.02, f"{d} trivial")
    errors += checks.check_correlation(*snapshot(summary, "trivial_bp1.vtk", "phi"),
                                       0.99, f"{d} first critical eigenvector")
    errors += checks.check_correlation(*snapshot(summary, "switched_pt0.vtk"), 0.9,
                                       f"{d} switched first point")
    errors += checks.check_fold(branch_rows(summary, "switched"), f"{d} switched")
    for path in sorted(summary["dir"].glob("switched_*.vtk")):
        errors += checks.check_boundary_zero(*snapshot(summary, path.name),
                                             f"{d} {path.name}")
    return errors


def check_spot(summary, box, spot_side, with_reference):
    """Adaptation jumps, adapted meshes, Dirichlet data on every snapshot
    and, for 2D, the final state against the reference solve."""
    d = summary["dir"].name
    rows = branch_rows(summary, "spot")
    xi = {int(r["step"]): float(r["param_value"]) for r in rows if r["flag"] != "ADAPT"}
    adapted = sorted(int(r["step"]) for r in rows if r["flag"] == "ADAPT")
    errors = [] if adapted else [f"{d}: no adaptation ran"]
    for step in adapted:
        after = snapshot(summary, f"spot_adapt{step}.vtk")
        errors += checks.check_jump(snapshot(summary, f"spot_pt{step}.vtk"), after,
                                    box, f"{d} step {step}")
        errors += checks.check_mesh(after[0], after[1], box, f"{d} adapt{step}")
    for path in sorted(summary["dir"].glob("spot_*.vtk")):
        kind = re.fullmatch(r"spot_(?:pt|adapt)(\d+)", path.stem)
        step = int(kind.group(1)) if kind else max(xi)      # spot_final.vtk
        nodes, _, u = snapshot(summary, path.name)
        errors += checks.check_spot_dirichlet(nodes, u, xi[step], box, 1, spot_side,
                                              f"{d} {path.name}")
    if with_reference:
        errors += checks.check_reference(*snapshot(summary, "spot_final.vtk"),
                                         reference_2d(xi[max(xi)]), f"{d} final")
    return errors


def check_round(workload, summary):
    if workload == "cos":
        return check_cos(summary)
    if workload == "wspot2d":
        return check_spot(summary, checks.BOX_2D, +1, True)   # spot on the top edge
    return check_spot(summary, checks.BOX_3D, -1, False)      # spot on the front face


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(START))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (ROOT / "src" / "anisocont" / "__init__.py",
                   ROOT / "configs" / "ac2d_cos.cfg"):
        if not needed.is_file():
            sys.exit(f"error: {needed} is missing; run from a full checkout")

    start = start_param(args.workload, args.seed)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.monotonic()
    rounds = []
    try:
        while len(rounds) < MIN_ROUNDS or time.monotonic() - t0 < args.seconds:
            rounds.append(run_round(args.workload, start, out / f"round{len(rounds)}",
                                    args.trace, t0 + RUN_DEADLINE_S))
    except RuntimeError as exc:
        sys.exit(f"error: {exc}")

    errors = [e for r in rounds for e in check_round(args.workload, r)]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    ops = [count_operations(r) for r in rounds]
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(a for a, _ in ops),
        "failed": sum(f for _, f in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
