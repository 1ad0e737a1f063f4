"""Self-test of the benchmark's output checks and operation counts.

    python3 bench/selftest.py

Every check must pass on a correct synthetic output and reject a
deliberately wrong one; the script prints one line per case and exits
non-zero when any case does not behave so.
"""
from __future__ import annotations

import itertools
import math
import sys

import numpy as np

import checks
from run import count_operations


def rect_mesh(box, nx, ny):
    x = np.linspace(*box[0], nx)
    y = np.linspace(*box[1], ny)
    nodes = np.array([(a, b) for a in x for b in y])
    idx = np.arange(nx * ny).reshape(nx, ny)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    cells = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    return nodes, cells


def box_mesh(box, n):
    """Structured tetrahedral mesh: six positively oriented tets per cube."""
    axes = [np.linspace(*box[k], n) for k in range(3)]
    nodes = np.array(list(itertools.product(*axes)))
    idx = np.arange(n ** 3).reshape(n, n, n)
    cells = []
    for i, j, k in itertools.product(range(n - 1), repeat=3):
        for perm in itertools.permutations(range(3)):
            corner = [i, j, k]
            tet = [idx[tuple(corner)]]
            for axis in perm:
                corner[axis] += 1
                tet.append(idx[tuple(corner)])
            cells.append(tet)
    cells = np.array(cells)
    flip = checks.volumes(nodes, cells) < 0
    cells[flip] = cells[flip][:, [1, 0, 2, 3]]
    return nodes, cells


FAILURES = []


def expect(passes, errors, case):
    ok = (not errors) if passes else bool(errors)
    print(f"{'ok  ' if ok else 'FAIL'} {case}: "
          f"{'; '.join(errors) if errors else 'no error reported'}")
    if not ok:
        FAILURES.append(case)


def test_mesh():
    box = checks.BOX_2D
    nodes, cells = rect_mesh(box, 9, 5)
    expect(True, checks.check_mesh(nodes, cells, box, "2D"), "valid 2D mesh")
    bad = cells.copy()
    bad[0] = bad[0][[1, 0, 2]]
    expect(False, checks.check_mesh(nodes, bad, box, "2D"), "one inverted triangle")
    expect(False, checks.check_mesh(nodes, cells[1:], box, "2D"), "one triangle missing")
    moved = nodes.copy()
    moved[0, 1] += 0.1                       # corner node off the bottom edge
    expect(False, checks.check_mesh(moved, cells, box, "2D"), "boundary node off its face")
    box = checks.BOX_3D
    nodes, cells = box_mesh(box, 4)
    expect(True, checks.check_mesh(nodes, cells, box, "3D"), "valid 3D mesh")
    bad = cells.copy()
    bad[5] = bad[5][[1, 0, 2, 3]]
    expect(False, checks.check_mesh(nodes, bad, box, "3D"), "one inverted tetrahedron")


def test_trivial_branch():
    good = [0.312707, 0.500602, 0.814035]
    expect(True, checks.check_branch_points(good, [0.3125, 0.5, 0.8125], "BP"),
           "analytic branch points")
    shifted = [good[0] + 1e-2] + good[1:]
    expect(False, checks.check_branch_points(shifted, [0.3125, 0.5, 0.8125], "BP"),
           "branch point shifted by 1e-2")
    expect(False, checks.check_branch_points(good[:2], [0.3125, 0.5, 0.8125], "BP"),
           "branch point missing")
    lams = np.arange(-0.2, 0.97, 0.0707)
    eig = checks.analytic_dirichlet_eigenvalues(2.0)
    rows = [{"step": str(k), "param_value": str(float(lam)), "flag": "",
             "n_neg": str(sum(1 for e in eig if e < lam)), "min_u": "0", "max_u": "0"}
            for k, lam in enumerate(lams)]
    expect(True, checks.check_n_neg(rows, 0.02, "n_neg"), "analytic n_neg")
    expect(True, checks.check_roundoff(rows, "u"), "u = 0")
    rows[-1] = dict(rows[-1], n_neg=str(int(rows[-1]["n_neg"]) + 1), max_u="1e-6")
    expect(False, checks.check_n_neg(rows, 0.02, "n_neg"), "n_neg off by one")
    expect(False, checks.check_roundoff(rows, "u"), "max|u| = 1e-6")
    expect(True, checks.check_fold([{"flag": ""}, {"flag": "FP"}], "fold"), "fold flagged")
    expect(False, checks.check_fold([{"flag": ""}, {"flag": "BP"}], "fold"), "no fold")


def test_modes():
    nodes, cells = rect_mesh(checks.BOX_2D, 41, 21)
    mode = checks.first_mode(nodes)
    expect(True, checks.check_correlation(nodes, cells, -2.0 * mode, 0.99, "phi"),
           "first Dirichlet mode")
    x, y = nodes[:, 0], nodes[:, 1]
    second = np.sin((x + 2 * math.pi) / 2) * np.sin((y + math.pi) / 2)
    expect(False, checks.check_correlation(nodes, cells, second, 0.9, "phi"),
           "second Dirichlet mode")
    expect(True, checks.check_boundary_zero(nodes, cells, mode, "u"), "zero on the boundary")
    leaky = mode.copy()
    leaky[0] = 1e-6
    expect(False, checks.check_boundary_zero(nodes, cells, leaky, "u"),
           "one boundary node at 1e-6")


def test_spot():
    xi = 0.83
    reference = checks.reference_spot2d(xi, *checks.REF_GRID)
    x, y, grid = reference
    nodes = np.array([(a, b) for a in x for b in y])
    _, cells = rect_mesh(checks.BOX_2D, len(x), len(y))
    u = grid.ravel()
    box = checks.BOX_2D
    expect(True, checks.check_spot_dirichlet(nodes, u, xi, box, 1, +1, "2D"),
           "2D spot Dirichlet data")
    top = checks.face_nodes(nodes, box, 1, +1)
    bad = u.copy()
    bad[top[3]] += 1e-6
    expect(False, checks.check_spot_dirichlet(nodes, bad, xi, box, 1, +1, "2D"),
           "2D spot value off by 1e-6")
    expect(False, checks.check_spot_dirichlet(nodes, u, xi + 0.01, box, 1, +1, "2D"),
           "2D spot at the wrong xi")
    expect(True, checks.check_reference(nodes, cells, u, reference, "ref"),
           "final state equal to the reference")
    expect(False, checks.check_reference(nodes, cells, 1.01 * u, reference, "ref"),
           "final state perturbed by 1%")
    coarse_nodes, coarse_cells = rect_mesh(box, 65, 33)
    coarse_u = np.interp(coarse_nodes[:, 1], y, grid[len(x) // 2])  # any field
    expect(True, checks.check_jump((nodes, cells, u), (nodes, cells, u), box, "jump"),
           "no L2 jump")
    expect(False, checks.check_jump((nodes, cells, u), (nodes, cells, 1.03 * u), box,
                                    "jump"), "L2 jump of 3%")
    expect(False, checks.check_jump((nodes, cells, u),
                                    (coarse_nodes, coarse_cells, coarse_u), box, "jump"),
           "a different field after adaptation")
    box = checks.BOX_3D
    nodes, cells = box_mesh(box, 5)
    u = np.zeros(len(nodes))
    front = checks.face_nodes(nodes, box, 1, -1)
    u[front] = np.exp(-(nodes[front, 0] - xi) ** 2 - nodes[front, 2] ** 2)
    expect(True, checks.check_spot_dirichlet(nodes, u, xi, box, 1, -1, "3D"),
           "3D spot Dirichlet data")
    back = checks.face_nodes(nodes, box, 1, +1)
    u[back[0]] = 1e-6
    expect(False, checks.check_spot_dirichlet(nodes, u, xi, box, 1, -1, "3D"),
           "3D back face value 1e-6")


def test_operations():
    def summary(events):
        records = [[0.0, s, "", 0.0, 10, 0] for s in range(4)]
        return {"legs": [{"amod": 2, "stop_reason": "nsteps reached",
                          "records": records + [[0.0, 2, "ADAPT", 0.0, 12, 0]],
                          "events": events}]}
    bp = {"kind": "BP", "step": 3, "param": 0.1, "approximate": False}
    fold = {"kind": "FP", "step": 3, "param": 0.1}
    got = count_operations(summary([bp]))
    expect(True, [] if got == (3 + 1 + 4 + 1, 0) else [f"counted {got}"],
           "steps, adaptations, evaluations and a localization")
    got = count_operations(summary([bp, fold]))
    expect(True, [] if got == (9, 1) else [f"counted {got}"],
           "branch point in the step of a fold counts as failed")
    approx = dict(bp, approximate=True)
    got = count_operations(summary([approx]))
    expect(True, [] if got == (9, 1) else [f"counted {got}"],
           "approximate branch point counts as failed")


if __name__ == "__main__":
    test_mesh()
    test_trivial_branch()
    test_modes()
    test_spot()
    test_operations()
    if FAILURES:
        sys.exit(f"{len(FAILURES)} self-test case(s) failed")
    print("all self-test cases behave as expected")
