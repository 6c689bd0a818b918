"""No run loads scipy: it is an oracle of the test suite, not a dependency.

Each check runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

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


def _scipy_modules(code: str) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
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


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules("import densitopo.cli") == []


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
