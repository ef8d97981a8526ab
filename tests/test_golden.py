"""The output contract as a test: the CLI outputs for configs/crossing.yaml,
compared byte for byte with the golden files in tests/golden/crossing/.

track, evaluate and sweep read the golden replay and ground truth, so their
goldens use no random numbers. simulate draws from numpy's random streams,
which a numpy release may change (NEP 19), and track's float arithmetic
runs through numpy; numpy_version.txt records the numpy the goldens were
made with, and a mismatch names it beside the numpy in use.

Regenerate the goldens only in a change that states an intended output
change:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from fusetrack.cli import main

GOLDEN = Path(__file__).parent / "golden" / "crossing"
CONFIG = str(Path(__file__).parent.parent / "configs" / "crossing.yaml")


def _commands(out: Path) -> dict:
    """The argv of each checked command, by the golden file it writes to out."""
    replay, gt = str(GOLDEN / "replay.jsonl"), str(GOLDEN / "ground_truth.jsonl")
    return {
        "results.jsonl": ["track", replay, "--scene", CONFIG, "--out", str(out / "results.jsonl")],
        "results_no_fusion.jsonl": ["track", replay, "--no-fusion", "--out", str(out / "results_no_fusion.jsonl")],
        "report.txt": ["evaluate", str(GOLDEN / "results.jsonl"), gt, "--out", str(out / "report.txt")],
        "sweep.txt": ["sweep", replay, gt, "--scene", CONFIG, "--beta", "0,0.04", "--out", str(out / "sweep.txt")],
    }


def first_difference(got: bytes, name: str) -> str:
    """Where got first differs from the golden file name, by line."""
    lines = zip_longest(got.splitlines(keepends=True), (GOLDEN / name).read_bytes().splitlines(keepends=True))
    number, (line, golden) = next((n, pair) for n, pair in enumerate(lines, start=1) if pair[0] != pair[1])
    return f"{name} differs from its golden file at line {number}:\n  got    {line!r}\n  golden {golden!r}"


def check_golden(path: Path, name: str) -> None:
    got = path.read_bytes()
    made_with = (GOLDEN / "numpy_version.txt").read_text().strip()
    note = f"\n(goldens made with numpy {made_with}; this is numpy {np.__version__})"
    assert got == (GOLDEN / name).read_bytes(), first_difference(got, name) + note


def test_simulate_writes_the_golden_scene(tmp_path, capsys):
    assert main(["simulate", CONFIG, "--out", str(tmp_path)]) == 0
    for name in ("replay.jsonl", "ground_truth.jsonl"):
        check_golden(tmp_path / name, name)


@pytest.mark.parametrize("name", list(_commands(Path())))
def test_command_writes_its_golden_file(tmp_path, capsys, name):
    assert main(_commands(tmp_path)[name]) == 0, capsys.readouterr().err
    check_golden(tmp_path / name, name)


def test_a_difference_is_named_by_its_first_line():
    golden = (GOLDEN / "report.txt").read_bytes()
    number = golden[:golden.index(b"0.9470")].count(b"\n") + 1
    changed = first_difference(golden.replace(b"0.9470", b"0.9471", 1), "report.txt")
    assert changed.startswith(f"report.txt differs from its golden file at line {number}:\n  got    ")
    lines = golden.count(b"\n")
    extra = first_difference(golden + b"extra\n", "report.txt")
    assert extra.startswith(f"report.txt differs from its golden file at line {lines + 1}:") and extra.endswith("golden None")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    assert main(["simulate", CONFIG, "--out", str(GOLDEN)]) == 0
    for argv in _commands(GOLDEN).values():  # results.jsonl first: evaluate reads it
        assert main(argv) == 0
    (GOLDEN / "numpy_version.txt").write_text(np.__version__ + "\n")
