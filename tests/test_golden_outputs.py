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
        "summary.csv": "58243360db9e9d316d797ca13c914137177162e748e92071dbfb911484c87d0d",
        "timeseries_1.csv": "c1507b350eef8dff7dad0e3d5d619c4e065dccb7dd59f16bc75ae9aab8b96390",
        "hist_1.csv": "e74b1efe28fad9d110b8a36501ca34af88df7759a6b9c000aae1aa3b5ac923cf",
        "timeseries_2.csv": "f69727ab0ed76d860d4ca59bcf7310cbcd4de1b723d78cf7daabef804267ad05",
        "hist_2.csv": "9728b0f30b3c12a250164151bbab93262e7026651eb66c49aea62d6262ab0dde",
        "config_echo.txt": "b339b9dabd0cc7786d6ad41069f6a6f3f8be1743a4d479da9188b9d2c136de98",
    },
    "above": {
        "summary.csv": "29ef12cd78fde61e613bd886f980e49d2b2bb4395ad33d684262d83a24a1db50",
        "timeseries_1.csv": "bfaa347f9daaf4896bf5a9e32a4ffc766bf1e713acba8b15343ae3579ee3c827",
        "hist_1.csv": "542b8ed39de7d1b697dac5caf426c3a167ea481dc4d978cad4242f083d53cef5",
        "timeseries_2.csv": "a974e55d9d11887c77904586edc1ff3b818e23657020972684e95c4edb47284a",
        "hist_2.csv": "b384a4f453169c1a0fd0a9a5ec1b8c472477cca3ed24330795d9cfb8388d2e8a",
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
