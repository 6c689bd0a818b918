"""No run loads scipy: it is an oracle of the test suite, not a dependency.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.  Importing the package loads neither mmap nor signal either:
only a forked pass needs them.  No module of the package reaches into another
module's private names.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.spatial.distance import cdist

from densitopo import synth_gmm, write_points_tsv

_SRC = Path(__file__).resolve().parents[1] / "src"

_RUN = """
from densitopo.cli import RunConfig, run_pipeline
run_pipeline(RunConfig(input={input!r}, outdir={outdir!r}, format={fmt!r}, k_max=40))
"""


def _scipy_modules(code: str, top: str = "scipy") -> list[str]:
    """The modules of ``top`` loaded after running ``code`` in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {top!r})))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _run_code(tmp_path, dim=None):
    """Code for one fused run on a 300-point mixture: coordinates, or its matrix."""
    coords, _ = synth_gmm(k=3, n=300, dim=dim or 2, separation=8, seed=1)
    data = tmp_path / "input.tsv"
    write_points_tsv(coords if dim else cdist(coords, coords), data)
    return _RUN.format(input=str(data), outdir=str(tmp_path / "out"),
                       fmt="coords" if dim else "matrix")


@pytest.mark.parametrize("top", ["scipy", "mmap", "signal"])
def test_importing_the_cli_does_not_load(top):
    assert _scipy_modules("import densitopo.cli", top) == []


@pytest.mark.parametrize("dim", [1, 2, 3, 4, None],
                         ids=["coords_1d", "coords_2d", "coords_3d", "coords_4d", "matrix"])
def test_runs_up_to_4_dimensions_and_on_a_matrix_load_no_scipy(dim, tmp_path):
    assert _scipy_modules(_run_code(tmp_path, dim)) == []
    assert (tmp_path / "out" / "topography.json").is_file()


@pytest.mark.parametrize("dim", [8, 20], ids=["coords_8d", "coords_20d"])
def test_runs_above_4_dimensions_load_no_scipy(dim, tmp_path):
    # the kd-leaf kNN runs in any dimension
    assert _scipy_modules(_run_code(tmp_path, dim)) == []
    assert (tmp_path / "out" / "topography.json").is_file()


def _private_reads(path: Path, modules: set[str]) -> list[str]:
    """``path:line name`` of each underscore name that ``path`` imports from,
    or reads as an attribute of, another module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound, found = set(), []
    for node in ast.walk(tree):  # the names modules of the package are bound to
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname for alias in node.names
                         if alias.asname and alias.name.startswith("densitopo."))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "densitopo"):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and alias.name not in modules]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in bound):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    package = _SRC / "densitopo"
    modules = {path.stem for path in package.glob("*.py")}
    assert sorted(modules) and "_blocks" in modules
    found = [hit for path in sorted(package.glob("*.py")) for hit in _private_reads(path, modules)]
    assert found == []
