"""The demos run to completion against the package under test.

Each demo runs as its own process, importing fusetrack through the
PYTHONPATH that conftest.py sets. Demo 04 is left out: it rewrites
RESULTS.md, whose numbers criterion 4 already checks.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_camera_geometry", "02_heatmap_rendering", "03_radar_fusion", "05_tracking_metrics", "06_cli_pipeline"],
)
def test_demo_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")], capture_output=True, text=True, cwd=str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
