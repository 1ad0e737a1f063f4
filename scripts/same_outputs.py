#!/usr/bin/env python3
"""Check that this tree and OTHER_TREE write byte-identical outputs.

    python3 scripts/same_outputs.py OTHER_TREE

Each tree runs, from its own source, the benchmark rounds of
`bench/workload.py` at fixed starts (`cos` -0.2, `wspot2d` 0 and 0.0137,
`wspot3d` 0) and `anisocont run` on the two spot configs. Every output file
but `summary.json`, which holds timings, is compared byte for byte, one line
per file. Exits 1 on any difference or a failed run, else 0.
"""
import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROUNDS = [("cos", -0.2), ("wspot2d", 0.0), ("wspot2d", 0.0137), ("wspot3d", 0.0)]
CONFIGS = ["ac2d_wspot.cfg", "ac3d_wspot.cfg"]
SKIPPED = {"summary.json"}


def run_tree(tree, out):
    """Write every output of `tree` under `out`; True if every run succeeded."""
    out.mkdir(parents=True)
    ok = True
    for name, start in ROUNDS:
        cmd = [sys.executable, str(tree / "bench" / "workload.py"), "--workload", name,
               "--start", repr(start), "--out", str(out / f"{name}_{start}")]
        ok &= subprocess.run(cmd).returncode == 0
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for cfg in CONFIGS:
        cmd = [sys.executable, "-m", "anisocont.cli", "run", str(tree / "configs" / cfg)]
        ok &= subprocess.run(cmd, cwd=out, env=env).returncode == 0
    return ok


def compare(dir_a, dir_b, stream=sys.stdout):
    """Compare every file under `dir_a` and `dir_b` but those named in
    `SKIPPED`, printing one line per file; 0 if all are identical, else 1."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({str(p.relative_to(d)) for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.is_file() and p.name not in SKIPPED})
    status = 0
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            verdict = f"only in {dir_a if a.is_file() else dir_b}"
        elif filecmp.cmp(a, b, shallow=False):
            verdict = "same"
        else:
            verdict = "differs"
        status |= verdict != "same"
        print(f"{verdict:>8}  {name}", file=stream)
    return int(status)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    args = parser.parse_args()
    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "here", Path(tmp) / "other"]
        ran = [run_tree(tree, out) for tree, out in zip((here, args.other_tree.resolve()),
                                                        outs)]
        status = compare(*outs)
    if not all(ran):
        print("a run failed", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
