import configparser
import math
import os
import time

import numpy as np
import pytest

import anisocont as ac
from anisocont import cli, meshio
from anisocont.config import ConfigError, load_config, parse_number

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def tiny_config(tmp_path, **cont_overrides):
    cont = {"active_param": "lambda", "ds0": "0.02", "ds_max": "0.05",
            "nsteps": "4", "bif_detection": "false", "param_max": "0.1"}
    cont.update(cont_overrides)
    cont_lines = "\n".join(f"{k} = {v}" for k, v in cont.items())
    text = f"""
[problem]
c = 1.0
lambda = -0.2
gamma = 1.0
d = 0.0
bc1 = dirichlet zero
bc2 = dirichlet cos_half
bc3 = dirichlet zero
bc4 = dirichlet zero

[mesh]
dim = 2
lx = 2*pi
ly = pi
nx = 13
ny = 7

[cont]
{cont_lines}

[output]
dir = {tmp_path}/out
snapshot_stride = 2
"""
    path = tmp_path / "tiny.cfg"
    path.write_text(text)
    return path


class TestParseNumber:
    def test_plain(self):
        assert parse_number("1.5e-3") == 1.5e-3

    def test_pi_expressions(self):
        assert parse_number("2*pi") == pytest.approx(2 * np.pi)
        assert parse_number("3*pi/2") == pytest.approx(3 * np.pi / 2)
        assert parse_number("1/sqrt(2)") == pytest.approx(1 / np.sqrt(2))

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_number("__import__('os')")

    @pytest.mark.parametrize("text", ["2**10", "9**9**9**9", "pi.real", "True",
                                      "abs(-1)", "sqrt(2, 3)", "1 if 1 else 2",
                                      "[1][0]", "1j", "1/0", "sqrt(-1)", ""])
    def test_rejects_everything_but_the_grammar(self, text):
        start = time.monotonic()
        with pytest.raises(ConfigError):
            parse_number(text)
        assert time.monotonic() - start < 0.1

    def test_grammar(self):
        assert parse_number("-(1 + 2) * 3 / +4") == -(1 + 2) * 3 / 4
        assert parse_number("e") == np.e
        assert parse_number("sqrt(2*pi)") == np.sqrt(2 * np.pi)

    @pytest.mark.parametrize("name", ["ac2d_cos.cfg", "ac2d_wspot.cfg",
                                      "ac3d_wspot.cfg"])
    def test_bundled_values_unchanged(self, name):
        # every numeric value of a bundled config parses to what Python's own
        # evaluation of the expression gives
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(os.path.join(CONFIG_DIR, name))
        names = {"pi": math.pi, "e": math.e, "sqrt": math.sqrt}
        checked = 0
        for section in parser.sections():
            for key, text in parser[section].items():
                try:
                    want = float(eval(text, {"__builtins__": {}}, names))
                except Exception:
                    continue                        # not a number
                assert parse_number(text) == want, (section, key, text)
                checked += 1
        assert checked >= 10


class TestLoadConfig:
    @pytest.mark.parametrize("name", ["ac2d_cos.cfg", "ac2d_wspot.cfg",
                                      "ac3d_wspot.cfg"])
    def test_bundled_configs_parse(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        assert cfg.dim in (2, 3)
        mesh = cfg.build_mesh()
        assert ac.validate(mesh).ok
        cfg.prob.check_bc(mesh)

    def test_bundled_values(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "ac2d_wspot.cfg"))
        assert cfg.prob.c == 0.5
        assert cfg.prob.lam == -0.25
        assert cfg.prob.gamma == 1.0
        assert cfg.cont.amod == 5
        assert cfg.trop.eta_policy.mode == "linear_np"
        assert cfg.trop.eta_policy.coefficient == 1e-6

    def test_3d_values(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "ac3d_wspot.cfg"))
        assert cfg.trcop.npb == 3000
        assert cfg.prob.lam == 0.0
        assert cfg.extents == pytest.approx((np.pi, 3 * np.pi / 2, np.pi))
        assert cfg.counts == (13, 21, 13)
        m = cfg.build_mesh()
        assert abs(m.num_nodes - 3543) < 100

    def test_missing_bc_is_config_error(self, tmp_path):
        path = tiny_config(tmp_path)
        text = path.read_text().replace("bc3 = dirichlet zero\n", "")
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_bad_number_reports_key(self, tmp_path):
        path = tiny_config(tmp_path, ds0="fast")
        with pytest.raises(ConfigError, match="ds0"):
            load_config(path)

    @pytest.mark.parametrize("section,line", [
        ("problem", "lamda = 0.1"), ("problem", "bc5 = neumann"),
        ("mesh", "nz = 5"), ("cont", "ds_mx = 0.1"), ("output", "snapshot_strde = 2"),
        ("trop", "l_lwo = 0.5"), ("trop", "npb = 400"), ("trcop", "npbb = 400")])
    def test_unknown_key_names_section_and_key(self, tmp_path, section, line):
        # a 2D config: bc5 and nz belong to 3D, npb and crmax to [trcop]
        path = adapt_config(tmp_path, "[trop]\nsw = 15\n[trcop]\nnpb = 40\n")
        load_config(path)
        path.write_text(path.read_text().replace(f"[{section}]\n",
                                                 f"[{section}]\n{line}\n"))
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=rf"^\[{section}\] unknown key '{key}'$"):
            load_config(path)


def adapt_config(tmp_path, sections):
    """`tiny_config` with the given adaptation sections appended."""
    path = tiny_config(tmp_path)
    path.write_text(path.read_text() + sections)
    return path


class TestAdaptSections:
    TROP = "[trop]\neta_np = 2e-6\nsw = 15\nl_low = 0.6\nqual_p = 1\n"

    @pytest.mark.parametrize("name,trop,trcop", [
        ("ac2d_cos.cfg", dict(sw=15), dict(npb=0)),
        ("ac2d_wspot.cfg", dict(eta_policy=ac.EtaPolicy.linear_in_np(1e-6), sw=15),
         dict(npb=400, crmax=10)),
        ("ac3d_wspot.cfg", dict(eta_policy=ac.EtaPolicy.linear_in_np(1e-5), sw=15,
                                qual_p=2.0), dict(npb=3000, crmax=10))])
    def test_bundled_options(self, name, trop, trcop):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        assert cfg.trop == ac.AdaptOptions.for_dim(cfg.dim, **trop)
        assert cfg.trcop == ac.CoarsenOptions.from_trop(cfg.trop, sw=5, **trcop)

    def test_trcop_without_sw_only_coarsens(self, tmp_path):
        cfg = load_config(adapt_config(tmp_path, self.TROP + "[trcop]\nnpb = 50\n"))
        assert cfg.trop.sw == 15
        assert (cfg.trcop.sw, cfg.trcop.npb, cfg.trcop.crmax) == (5, 50, 10)

    def test_trcop_inherits_trop(self, tmp_path):
        cfg = load_config(adapt_config(tmp_path, self.TROP + "[trcop]\nppar = 7\n"))
        assert cfg.trcop.l_low == cfg.trop.l_low == 0.6
        assert cfg.trcop.qual_p == cfg.trop.qual_p == 1.0
        assert cfg.trcop.eta_policy == cfg.trop.eta_policy \
            == ac.EtaPolicy.linear_in_np(2e-6)
        assert (cfg.trop.ppar, cfg.trcop.ppar) == (1000, 7)

    def test_no_sections_give_defaults(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        assert cfg.trop == ac.AdaptOptions.for_dim(2)
        assert cfg.trcop == ac.CoarsenOptions.from_trop(cfg.trop)
        assert cfg.trcop.sw == 5

    def test_trcop_eta_overrides_eta_np(self, tmp_path):
        cfg = load_config(adapt_config(tmp_path, self.TROP + "[trcop]\neta = 0.01\n"))
        assert cfg.trop.eta_policy == ac.EtaPolicy.linear_in_np(2e-6)
        assert cfg.trcop.eta_policy == ac.EtaPolicy.constant(0.01)

    @pytest.mark.parametrize("bad", ["l_low = 2", "sw = 16", "npb = -1", "sw = x",
                                     "eta = 1\neta_np = 1"])
    def test_bad_trcop_value_names_section(self, tmp_path, bad):
        path = adapt_config(tmp_path, self.TROP + f"[trcop]\n{bad}\n")
        with pytest.raises(ConfigError, match=r"\[trcop\]"):
            load_config(path)


class TestRunCommand:
    def test_tiny_run_produces_outputs(self, tmp_path):
        path = tiny_config(tmp_path)
        rc = cli.main(["run", str(path)])
        assert rc == 0
        out = tmp_path / "out"
        assert (out / "tiny_branch.csv").exists()
        assert (out / "tiny_branch.svg").exists()
        assert (out / "tiny_final.vtk").exists()
        assert (out / "tiny_pt0.vtk").exists()
        lines = (out / "tiny_branch.csv").read_text().splitlines()
        assert lines[0].startswith("step,param_name")
        assert len(lines) >= 3

    def test_reproducible_csv(self, tmp_path):
        path = tiny_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        first = (tmp_path / "out" / "tiny_branch.csv").read_bytes()
        assert cli.main(["run", str(path)]) == 0
        second = (tmp_path / "out" / "tiny_branch.csv").read_bytes()
        assert first == second

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem\nc = 1")
        assert cli.main(["run", str(bad)]) == 2

    def test_wspot_config_short_run_emits_adapt_rows(self, tmp_path):
        # the bundled spot scenario, shortened to one adaptation trigger
        src = open(os.path.join(CONFIG_DIR, "ac2d_wspot.cfg")).read()
        src = src.replace("nsteps = 80", "nsteps = 6")
        src = src.replace("dir = out/ac2d_wspot", f"dir = {tmp_path}/out")
        path = tmp_path / "wspot_short.cfg"
        path.write_text(src)
        assert cli.main(["run", str(path)]) == 0
        csv = (tmp_path / "out" / "wspot_short_branch.csv").read_text()
        assert sum(1 for ln in csv.splitlines() if ln.endswith(",ADAPT")) >= 1


class TestAdaptCommand:
    def write_inputs(self, tmp_path, n=15):
        mesh = ac.build_rect_mesh(2.0, 2.0, n, n)
        u = np.tanh(5 * (mesh.nodes[:, 0] - 0.5))
        mpath = tmp_path / "mesh.txt"
        fpath = tmp_path / "field.txt"
        meshio.write_mesh_text(mpath, mesh)
        meshio.write_field_text(fpath, u)
        return mpath, fpath

    def test_sw0_is_byte_identical(self, tmp_path):
        mpath, fpath = self.write_inputs(tmp_path)
        rc = cli.main(["adapt", str(mpath), str(fpath), "--sw", "0"])
        assert rc == 0
        assert (tmp_path / "mesh_adapted.txt").read_bytes() == mpath.read_bytes()
        assert (tmp_path / "field_adapted.txt").read_bytes() == fpath.read_bytes()

    def test_chained_coarsening_reduces_nodes(self, tmp_path):
        mpath, fpath = self.write_inputs(tmp_path)
        # refine-only (sw=3), then coarsen (sw=5) on the result
        assert cli.main(["adapt", str(mpath), str(fpath), "--sw", "3",
                         "--out-mesh", str(tmp_path / "r.txt"),
                         "--out-field", str(tmp_path / "ru.txt")]) == 0
        np_sw3 = meshio.read_mesh_text(tmp_path / "r.txt").num_nodes
        assert cli.main(["adapt", str(tmp_path / "r.txt"),
                         str(tmp_path / "ru.txt"), "--sw", "5",
                         "--out-mesh", str(tmp_path / "c.txt"),
                         "--out-field", str(tmp_path / "cu.txt")]) == 0
        np_chain = meshio.read_mesh_text(tmp_path / "c.txt").num_nodes
        assert np_chain < np_sw3

    def test_missing_mesh_no_partial_outputs(self, tmp_path):
        fpath = tmp_path / "field.txt"
        meshio.write_field_text(fpath, np.zeros(4))
        rc = cli.main(["adapt", str(tmp_path / "missing.txt"), str(fpath)])
        assert rc != 0
        assert not (tmp_path / "missing_adapted.txt").exists()
        assert not (tmp_path / "field_adapted.txt").exists()

    def test_invalid_mesh_no_outputs(self, tmp_path):
        mpath, fpath = self.write_inputs(tmp_path, n=5)
        mesh = meshio.read_mesh_text(mpath)
        nodes = mesh.nodes.copy()
        nodes[1, 1] += 0.25                 # a bottom node off its face
        meshio.write_mesh_text(mpath, ac.SimplicialMesh(2, nodes, mesh.elements,
                                                        mesh.box))
        assert cli.main(["adapt", str(mpath), str(fpath)]) == 2
        assert not (tmp_path / "mesh_adapted.txt").exists()

    def test_budget_flags(self, tmp_path):
        mpath, fpath = self.write_inputs(tmp_path, n=25)
        rc = cli.main(["adapt", str(mpath), str(fpath), "--npb", "200",
                       "--crmax", "5",
                       "--out-mesh", str(tmp_path / "b.txt"),
                       "--out-field", str(tmp_path / "bu.txt")])
        assert rc == 0
        assert (tmp_path / "b.txt").exists()

    def test_without_budget_prints_the_plain_adaptation(self, tmp_path, capsys):
        mpath, fpath = self.write_inputs(tmp_path, n=9)
        assert cli.main(["adapt", str(mpath), str(fpath), "--innerit", "1"]) == 0
        mesh, u = meshio.read_mesh_text(mpath), meshio.read_field_text(fpath)
        opts = ac.AdaptOptions.for_dim(2, eta_policy=ac.EtaPolicy.constant(1e-3),
                                       innerit=1)
        _, _, stats = ac.tradapt(mesh, u, opts)
        assert capsys.readouterr().out.splitlines()[:-1] == stats.to_lines()

    @pytest.mark.parametrize("flags", [["--llow", "2"], ["--sw", "99"],
                                       ["--npb", "5", "--crmax", "-1"], ["--npb", "-3"]])
    def test_bad_options_exit_2_without_outputs(self, tmp_path, capsys, flags):
        mpath, fpath = self.write_inputs(tmp_path, n=5)
        assert cli.main(["adapt", str(mpath), str(fpath), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "mesh_adapted.txt").exists()
        assert not (tmp_path / "field_adapted.txt").exists()


class TestPlotCommand:
    def write_csv(self, tmp_path, rows):
        path = tmp_path / "branch.csv"
        header = "step,param_name,param_value,l2,min_u,max_u,np,n_neg,flag"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_two_rows_single_segment(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,lambda,0,0.1,0,0,9,0,",
                                         "1,lambda,0.5,0.2,0,0,9,0,"])
        svg = tmp_path / "b.svg"
        assert cli.main(["plot", str(path), str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert len(text.split("<polyline")[1].split('points="')[1]
                   .split('"')[0].split()) == 2

    def test_bp_marker(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,lambda,0,0.1,0,0,9,0,",
                                         "1,lambda,0.3,0.15,0,0,9,0,BP",
                                         "2,lambda,0.5,0.2,0,0,9,1,"])
        svg = tmp_path / "b.svg"
        assert cli.main(["plot", str(path), str(svg)]) == 0
        assert 'class="marker-bp"' in svg.read_text()

    def test_header_only_no_polyline(self, tmp_path):
        path = self.write_csv(tmp_path, [])
        svg = tmp_path / "b.svg"
        assert cli.main(["plot", str(path), str(svg)]) == 0
        text = svg.read_text()
        assert "<polyline" not in text
        assert "<line" in text   # axes still drawn

    def test_byte_stable(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,lambda,0,0.1,0,0,9,0,",
                                         "1,lambda,0.5,0.2,0,0,9,0,FP"])
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert cli.main(["plot", str(path), str(s1)]) == 0
        assert cli.main(["plot", str(path), str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("just,some,garbage\n1,2,3\n")
        assert cli.main(["plot", str(bad), str(tmp_path / "x.svg")]) != 0


class TestValidateCommand:
    def test_valid_mesh(self, tmp_path):
        mesh = ac.build_rect_mesh(1, 1, 5, 5)
        path = tmp_path / "m.txt"
        meshio.write_mesh_text(path, mesh)
        assert cli.main(["validate", str(path)]) == 0

    def test_broken_mesh(self, tmp_path):
        mesh = ac.build_rect_mesh(1, 1, 5, 5)
        elements = mesh.elements.copy()
        elements[0] = elements[0][[1, 0, 2]]
        bad = ac.SimplicialMesh(2, mesh.nodes, elements, mesh.box)
        path = tmp_path / "m.txt"
        meshio.write_mesh_text(path, bad)
        assert cli.main(["validate", str(path)]) == 1
