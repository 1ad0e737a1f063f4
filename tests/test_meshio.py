import numpy as np
import pytest

import anisocont as ac
from anisocont import adapt, cli, meshio
from anisocont.metric import MetricField

_FMT = "%.17g"


# The per-row writers the block writers replaced, kept as their byte oracle.

def write_mesh_text_oracle(path, mesh):
    with open(path, "w") as f:
        f.write("anisocont-mesh 1\n")
        f.write(f"dim {mesh.dim}\n")
        f.write("box\n")
        for axis in range(mesh.dim):
            f.write(f"{_FMT % mesh.box[axis, 0]} {_FMT % mesh.box[axis, 1]}\n")
        f.write(f"nodes {mesh.num_nodes}\n")
        for p in mesh.nodes:
            f.write(" ".join(_FMT % c for c in p) + "\n")
        f.write(f"elements {mesh.num_elements}\n")
        for e in mesh.elements:
            f.write(" ".join(str(int(i)) for i in e) + "\n")
        f.write(f"facets {len(mesh.boundary_facets)}\n")
        for facet, seg in zip(mesh.boundary_facets, mesh.facet_segments):
            f.write(" ".join(str(int(i)) for i in facet) + f" {int(seg)}\n")


def write_field_text_oracle(path, u):
    with open(path, "w") as f:
        for v in np.asarray(u, dtype=float):
            f.write(_FMT % v + "\n")


def write_vtk_oracle(path, mesh, point_data=None, title="anisocont output"):
    point_data = point_data or {}
    nv = mesh.dim + 1
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_nodes} double\n")
        for p in mesh.nodes:
            coords = list(p) + [0.0] * (3 - mesh.dim)
            f.write(" ".join(_FMT % c for c in coords) + "\n")
        f.write(f"CELLS {mesh.num_elements} {mesh.num_elements * (nv + 1)}\n")
        for e in mesh.elements:
            f.write(f"{nv} " + " ".join(str(int(i)) for i in e) + "\n")
        f.write(f"CELL_TYPES {mesh.num_elements}\n")
        ctype = {2: 5, 3: 10}[mesh.dim]
        for _ in range(mesh.num_elements):
            f.write(f"{ctype}\n")
        if point_data:
            f.write(f"POINT_DATA {mesh.num_nodes}\n")
            for name, values in point_data.items():
                values = np.asarray(values, dtype=float)
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in values:
                    f.write(_FMT % v + "\n")


@pytest.fixture(params=[2, 3])
def refined(request):
    """A refined mesh with irregular coordinates, and awkward nodal values."""
    if request.param == 2:
        m = ac.build_rect_mesh(2 * np.pi, np.pi, 9, 5)
    else:
        m = ac.build_box_mesh(1.0, 2.0, 1.0, 3, 4, 3)
    scale = np.linspace(2.0, 30.0, m.num_nodes)
    psi = MetricField(scale[:, None, None] * np.eye(m.dim))
    opts = ac.AdaptOptions.for_dim(m.dim)
    m2, _, _, n = adapt.refine_pass(m, np.zeros(m.num_nodes), psi, opts)
    assert n > 0
    u = np.sin(7.3 * m2.nodes[:, 0]) * np.exp(m2.nodes[:, -1])
    u[:4] = [-0.0, 1e-300, np.nan, -np.inf]
    return m2, u


def test_block_writers_match_row_oracle(tmp_path, refined):
    mesh, u = refined
    cases = [(meshio.write_mesh_text, write_mesh_text_oracle, (mesh,)),
             (meshio.write_field_text, write_field_text_oracle, (u,)),
             (meshio.write_vtk, write_vtk_oracle, (mesh,)),
             (meshio.write_vtk, write_vtk_oracle, (mesh, {"u": u, "v": -u}, "t"))]
    for k, (new, old, args) in enumerate(cases):
        p_new, p_old = tmp_path / f"new{k}", tmp_path / f"old{k}"
        new(p_new, *args)
        old(p_old, *args)
        assert p_new.read_bytes() == p_old.read_bytes(), new.__name__


def test_block_writers_on_empty_blocks(tmp_path):
    m = ac.build_rect_mesh(1.0, 1.0, 2, 2)
    empty = ac.SimplicialMesh(2, m.nodes, np.zeros((0, 3), dtype=np.int64), m.box)
    for new, old, args in ((meshio.write_mesh_text, write_mesh_text_oracle, (empty,)),
                           (meshio.write_vtk, write_vtk_oracle, (empty,)),
                           (meshio.write_field_text, write_field_text_oracle,
                            (np.zeros(0),))):
        new(tmp_path / "new", *args)
        old(tmp_path / "old", *args)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def test_mesh_text_roundtrip_without_elements(tmp_path, capsys):
    m = ac.build_rect_mesh(1.0, 1.0, 3, 3)
    path = tmp_path / "mesh.txt"
    meshio.write_mesh_text(path, ac.SimplicialMesh(2, m.nodes,
                                                   np.zeros((0, 3), dtype=np.int64), m.box))
    back = meshio.read_mesh_text(path)
    assert back.elements.shape == (0, 3) and back.boundary_facets.shape == (0, 2)
    assert np.array_equal(back.nodes, m.nodes)
    assert cli.main(["validate", str(path)]) == 1
    assert "orphans=9" in capsys.readouterr().out


def test_mesh_text_roundtrip(tmp_path, rect_mesh):
    path = tmp_path / "mesh.txt"
    meshio.write_mesh_text(path, rect_mesh)
    back = meshio.read_mesh_text(path)
    assert back.dim == rect_mesh.dim
    assert np.array_equal(back.nodes, rect_mesh.nodes)
    assert np.array_equal(back.elements, rect_mesh.elements)
    assert np.array_equal(back.boundary_facets, rect_mesh.boundary_facets)
    assert np.array_equal(back.facet_segments, rect_mesh.facet_segments)
    assert back.boundary_node_flags == rect_mesh.boundary_node_flags
    assert ac.validate(back).ok


@pytest.mark.parametrize("edit", ["dropped_facet", "changed_segment"])
def test_facet_table_must_be_the_derived_boundary(tmp_path, edit):
    path = tmp_path / "mesh.txt"
    meshio.write_mesh_text(path, ac.build_rect_mesh(1, 1, 3, 3))
    lines = path.read_text().splitlines()
    at = lines.index("facets 8")
    if edit == "dropped_facet":
        lines[at:at + 2] = ["facets 7"]
    else:
        row = lines[at + 1].split()
        lines[at + 1] = " ".join(row[:-1] + ["3"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}: facet table"):
        meshio.read_mesh_text(path)
    assert cli.main(["validate", str(path)]) == 2


def test_mesh_text_roundtrip_3d(tmp_path, box_mesh):
    path = tmp_path / "mesh3.txt"
    meshio.write_mesh_text(path, box_mesh)
    back = meshio.read_mesh_text(path)
    assert np.array_equal(back.nodes, box_mesh.nodes)
    assert np.array_equal(back.elements, box_mesh.elements)


def test_write_is_deterministic(tmp_path, square_mesh):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    meshio.write_mesh_text(p1, square_mesh)
    back = meshio.read_mesh_text(p1)
    meshio.write_mesh_text(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_field_roundtrip(tmp_path):
    u = np.array([0.0, -1.5, np.pi, 1e-30])
    path = tmp_path / "u.txt"
    meshio.write_field_text(path, u)
    assert np.array_equal(meshio.read_field_text(path), u)


def test_vtk_structure(tmp_path, square_mesh):
    path = tmp_path / "mesh.vtk"
    u = np.linspace(0, 1, square_mesh.num_nodes)
    meshio.write_vtk(path, square_mesh, {"u": u})
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "ASCII" in lines
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {square_mesh.num_nodes} double" in lines
    assert f"CELL_TYPES {square_mesh.num_elements}" in lines
    assert f"POINT_DATA {square_mesh.num_nodes}" in lines
    assert "SCALARS u double 1" in lines
    # each point line has 3 coordinates even for 2D meshes
    start = lines.index(f"POINTS {square_mesh.num_nodes} double") + 1
    assert len(lines[start].split()) == 3


def test_vtk_cell_types(tmp_path, square_mesh, box_mesh):
    p2, p3 = tmp_path / "m2.vtk", tmp_path / "m3.vtk"
    meshio.write_vtk(p2, square_mesh)
    meshio.write_vtk(p3, box_mesh)
    assert "\n5\n" in p2.read_text()
    assert "\n10\n" in p3.read_text()
