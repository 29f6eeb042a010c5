"""Byte-identity guard for every CSV file the package writes.

Pins the sha256 of every output file of two short experiments, one per
scenario preset (seeds 1 and 2, 120 s each), of a 60 s seed's
``PlantTrajectory.write_csv`` per preset and of the default Cp grid's
``to_csv``.  A refactor that should leave the numbers alone must keep
every hash.  A change that means to alter output bits updates the
hashes below and says why in CHANGES.md.
"""

import hashlib

import pytest

from immwind import run_experiment, write_outputs
from immwind.config import ExperimentConfig
from immwind.cp import default_grid_surface

GOLDEN = {
    "below": {
        "summary.csv": "614fe859795aa75ff4e3be35359dab767a9af749c4f2e87d04d1a674aa1358d2",
        "timeseries_1.csv": "7774a8a24062e3a708a635a65f32faba3cb3d75fad7eafecbd234a80d267da09",
        "hist_1.csv": "3889eba7502439064f268b1efaff39a4df29036c9154db7edd037555f9f15784",
        "timeseries_2.csv": "bf96695bd5b82e8d1a283d313a5953723fde4203c6853c8f6604abb2551d65ee",
        "hist_2.csv": "e6ebd9d4eaf8d511bae91bf438006482f3e575e0b51f0e2da68d164e37f985e9",
        "config_echo.txt": "b339b9dabd0cc7786d6ad41069f6a6f3f8be1743a4d479da9188b9d2c136de98",
    },
    "above": {
        "summary.csv": "dc11e99b5f3d2aa147894d173605cb9cdc2460bf1f0e7149238ea8d84e072771",
        "timeseries_1.csv": "e1afc703de39b990e075de3f6f37ef09dc4cac5d3ff20317eddb765572b2abae",
        "hist_1.csv": "a45315ff9985a1794fa718c93a2fc1ae1dbc205b5f789686bcf7ec2c06b909f2",
        "timeseries_2.csv": "14d4e246a731caa590e7481bc79561c37386b18abf89eb31a6411219ee82afbe",
        "hist_2.csv": "251dc902fab58a7748dbd78f26f9c0e0152b9ea3be68aa3f0a7aa69f7ca1dc53",
        "config_echo.txt": "b2c2fbfd7e3ffd083cf7ad98e52338c4dec9191b36c2eb24b92a4f5307a5de13",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_output_files_match_pinned_hashes(scenario, tmp_path):
    config = ExperimentConfig(scenario=scenario, seeds=(1, 2), duration_s=120.0)
    written = write_outputs(run_experiment(config), tmp_path)
    assert {p.name: _sha256(p) for p in written} == GOLDEN[scenario]


TRAJECTORY_GOLDEN = {
    "below": "fc39c0f85ab4ccb6977529685575f7aa265ff231998296e95f188a687c274c88",
    "above": "8f1b9861714f00932d55fae158dc4a1e2c3562cdde9c3d521ffbba4b5fc70c64",
}
GRID_GOLDEN = "23540607c6b52c263659eb86c819ae8970b34633ccf67dbeacf96f494a1d73cd"


@pytest.mark.parametrize("scenario", sorted(TRAJECTORY_GOLDEN))
def test_trajectory_csv_matches_pinned_hash(scenario, tmp_path):
    config = ExperimentConfig(scenario=scenario, seeds=(1,), duration_s=60.0)
    path = tmp_path / "trajectory.csv"
    run_experiment(config).runs[0].trajectory.write_csv(path)
    assert _sha256(path) == TRAJECTORY_GOLDEN[scenario]


def test_default_grid_csv_matches_pinned_hash(tmp_path):
    path = tmp_path / "grid.csv"
    default_grid_surface().to_csv(path)
    assert _sha256(path) == GRID_GOLDEN
