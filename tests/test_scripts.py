import importlib.util
import io
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_compares_every_file_but_the_summary(tmp_path):
    same_outputs = load_script("same_outputs")
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree, t_end in zip(trees, ("1.0", "2.0")):
        (tree / "round").mkdir(parents=True)
        (tree / "round" / "branch.csv").write_bytes(b"step,np\n0,9\n")
        (tree / "round" / "summary.json").write_text(t_end)
    out = io.StringIO()
    assert same_outputs.compare(*trees, stream=out) == 0
    assert out.getvalue().split() == ["same", "round/branch.csv"]
    (trees[1] / "round" / "branch.csv").write_bytes(b"step,np\n0,8\n")
    out = io.StringIO()
    assert same_outputs.compare(*trees, stream=out) == 1
    assert out.getvalue().split() == ["differs", "round/branch.csv"]
