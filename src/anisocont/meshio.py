"""Readers/writers: plain-text mesh format, nodal field files, legacy VTK."""
from __future__ import annotations

import numpy as np

from .mesh import SimplicialMesh

_FMT = "%.17g"

_VTK_CELL_TYPE = {2: 5, 3: 10}  # triangle, tetrahedron


def _write_rows(f, fmt, rows):
    """Write one line per row of `rows`, each formatted by `fmt`, with one
    `%` operation for the whole block."""
    rows = np.asarray(rows)
    f.write((fmt + "\n") * len(rows) % tuple(rows.ravel().tolist()))


def write_mesh_text(path, mesh):
    """Write a mesh in the plain-text format: node and element tables, then
    the boundary facets derived from them, each with its segment id."""
    d = mesh.dim
    with open(path, "w") as f:
        f.write("anisocont-mesh 1\n")
        f.write(f"dim {d}\n")
        f.write("box\n")
        _write_rows(f, f"{_FMT} {_FMT}", mesh.box[:d])
        f.write(f"nodes {mesh.num_nodes}\n")
        _write_rows(f, " ".join([_FMT] * d), mesh.nodes)
        f.write(f"elements {mesh.num_elements}\n")
        _write_rows(f, " ".join(["%d"] * (d + 1)), mesh.elements)
        f.write(f"facets {len(mesh.boundary_facets)}\n")
        _write_rows(f, " ".join(["%d"] * (d + 1)),
                    np.column_stack([mesh.boundary_facets, mesh.facet_segments]))


def read_mesh_text(path):
    """Read a mesh written by `write_mesh_text`. The facet table must be the
    boundary derived from the elements and box, up to row order and the
    order within rows; anything else raises ValueError."""
    with open(path) as f:
        tokens = f.read().split("\n")
    lines = [ln for ln in tokens if ln.strip()]
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ValueError(f"{path}: truncated mesh file")
        line = lines[pos]
        pos += 1
        return line

    header = take().split()
    if header[:1] != ["anisocont-mesh"]:
        raise ValueError(f"{path}: not an anisocont mesh file")
    dim = int(take().split()[1])
    if take().split()[0] != "box":
        raise ValueError(f"{path}: missing box block")
    box = np.array([[float(v) for v in take().split()] for _ in range(dim)])
    n_nodes = int(take().split()[1])
    nodes = np.array([[float(v) for v in take().split()] for _ in range(n_nodes)])
    n_elems = int(take().split()[1])
    elements = np.array([[int(v) for v in take().split()] for _ in range(n_elems)],
                        dtype=np.int64).reshape(n_elems, dim + 1)
    n_facets = int(take().split()[1])
    table = np.array([[int(v) for v in take().split()] for _ in range(n_facets)],
                     dtype=np.int64).reshape(n_facets, dim + 1)
    table[:, :dim].sort(axis=1)
    mesh = SimplicialMesh(dim, nodes, elements, box)
    derived = np.column_stack([mesh.boundary_facets, mesh.facet_segments])
    if not np.array_equal(table[np.lexsort(table.T[::-1])], derived):
        raise ValueError(f"{path}: facet table is not the boundary of the elements")
    return mesh


def write_field_text(path, u):
    with open(path, "w") as f:
        _write_rows(f, _FMT, np.asarray(u, dtype=float))


def read_field_text(path):
    with open(path) as f:
        return np.array([float(ln) for ln in f if ln.strip()])


def write_vtk(path, mesh, point_data=None, title="anisocont output"):
    """Write mesh plus nodal scalar fields as a legacy ASCII VTK file.

    `point_data` maps field name -> nodal vector. 2D nodes are padded with
    z = 0.
    """
    point_data = point_data or {}
    n, nv = mesh.num_nodes, mesh.dim + 1
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        points = np.zeros((n, 3))
        points[:, :mesh.dim] = mesh.nodes
        _write_rows(f, f"{_FMT} {_FMT} {_FMT}", points)
        f.write(f"CELLS {mesh.num_elements} {mesh.num_elements * (nv + 1)}\n")
        _write_rows(f, f"{nv} " + " ".join(["%d"] * nv), mesh.elements)
        f.write(f"CELL_TYPES {mesh.num_elements}\n")
        f.write(f"{_VTK_CELL_TYPE[mesh.dim]}\n" * mesh.num_elements)
        if point_data:
            f.write(f"POINT_DATA {n}\n")
            for name, values in point_data.items():
                values = np.asarray(values, dtype=float)
                if values.shape != (n,):
                    raise ValueError(f"field '{name}' length does not match node count")
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                _write_rows(f, _FMT, values)
