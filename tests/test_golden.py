"""Golden-hash regression: fused-pipeline outputs on tiny fixed inputs.

The hashes were recorded from the brute-force kNN implementation.  A change
that alters any output byte fails here; re-blessing a hash needs a
CHANGES.md entry that says why the bytes moved.  ``run_config.txt`` is not
hashed because it echoes the input and output paths.
"""

import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from densitopo import synth_gmm, write_points_tsv
from densitopo.cli import RunConfig, run_pipeline

ARTIFACTS = ("density.tsv", "assignment.tsv", "topography.json",
             "dendrogram.nwk", "network.dot")


def _gmm_coords(path):
    points, _ = synth_gmm(k=3, n=800, dim=2, separation=8.0, seed=7)
    write_points_tsv(points, path)
    return {"format": "coords", "k_max": 24, "z": 1.0}


def _gmm_8d_coords(path):
    # above 4 coordinates: the hashes were recorded from full cdist rows
    points, _ = synth_gmm(k=3, n=800, dim=8, separation=8.0, seed=7)
    write_points_tsv(points, path)
    return {"format": "coords", "k_max": 24, "z": 1.0}


def _lattice_with_duplicates(path):
    # exact integer lattice: many equal distances, some exactly at the
    # k_max-th neighbor; the first 30 sites appear twice
    xs, ys = np.meshgrid(np.arange(16.0), np.arange(16.0))
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    write_points_tsv(np.vstack([lattice, lattice[:30]]), path)
    # the lattice has no two-NN dimension signal (r2/r1 = 1 everywhere)
    return {"format": "coords", "k_max": 16, "z": 1.0, "d": 2.0,
            "metric": "manhattan"}


def _distance_matrix(path):
    points, _ = synth_gmm(k=2, n=150, dim=3, separation=8.0, seed=11)
    write_points_tsv(cdist(points, points), path)
    return {"format": "matrix", "k_max": 30, "z": 1.0}


CASES = {"gmm_coords": _gmm_coords,
         "gmm_8d_coords": _gmm_8d_coords,
         "lattice_duplicates": _lattice_with_duplicates,
         "distance_matrix": _distance_matrix}

GOLDEN = {
    "distance_matrix": {
        "density.tsv": "22bbbe8bd66e852315b8dbb3685023a97f4bdce7b914277baa809d66e8a3d40e",
        "assignment.tsv": "f10894abc8227a34a0e9d42358ed92a25169df0fc145f2da1328714f1c2ef1f7",
        "topography.json": "da317185864cdd93a9072f0dd092933ca4851e6ecae382a196fcb88e2b84da14",
        "dendrogram.nwk": "5c2f563a4a457888b2056946ff432b46de523368c851972d6879f4fa6c3cc93a",
        "network.dot": "69d0812ebddbfbb69ec19fcf387af24a53eac7b6ea337554711be6f932b96ec7",
    },
    "gmm_8d_coords": {
        "density.tsv": "f31936c03fd615d85e80d6d4e490b7b1289ec983e5bf98652fdd878c1e59ff6d",
        "assignment.tsv": "a0c7b696d098e9eaa861022f430b3c80b545ed52ec827944d2c2a92b610491d9",
        "topography.json": "1426ac5d3122fa267316ec6d1f643b9412ac07ea11e7488bc1e7a9633c7fe2f4",
        "dendrogram.nwk": "deb0705fe5f5231d5bbb47f8cc112520374905bdd81603a0e13aa96e5495c69a",
        "network.dot": "cfbe7004f55c5f4d5ac6f71d8af53ad3f2df1b9a83e2fdb528f472a82d32f314",
    },
    "gmm_coords": {
        "density.tsv": "c1e6d1bcb8a2b326048169f8d752dc55ee20ccaac8b33a15855279877ae08dfc",
        "assignment.tsv": "c5eac3f282f52f2497b055b42b64e86f55d57bcdce9b8955a6549fdb803496d5",
        "topography.json": "98d0981c042479baa06cb73f8233de5b2ebd441529fd7529177d042a1a9139c8",
        "dendrogram.nwk": "deb0705fe5f5231d5bbb47f8cc112520374905bdd81603a0e13aa96e5495c69a",
        "network.dot": "9fd743b8441ed5e45becb0c19a24019140e789cf4f238f41c96185b47fb2584b",
    },
    "lattice_duplicates": {
        "density.tsv": "5b3b9f7185dced3575304446a0ccec3a59842879967544fba9016899f95f6ee1",
        "assignment.tsv": "2ffddbd2d0a15bebbf19666598c27a2895d0aafbb1bb9579e315d60c38df0bd0",
        "topography.json": "4a4d27cddb9bd48dc81220386432e4b54aed415e6ef7afc4e70fa208df559bf7",
        "dendrogram.nwk": "d7780b804db5f657ba247c959b2d818f11636c6bf12af45a39b173b9a8919e16",
        "network.dot": "239cf41be19d96b5ae2d98ebbfd9fa3c6903641d012694492038ddd1c06886cb",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_hashes(tmp_path, case):
    input_path = tmp_path / "input.tsv"
    options = CASES[case](input_path)
    outdir = tmp_path / "out"
    run_pipeline(RunConfig(input=str(input_path), outdir=str(outdir), **options))
    got = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
           for name in ARTIFACTS}
    assert got == GOLDEN[case]
