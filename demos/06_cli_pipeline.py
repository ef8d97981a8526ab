"""
The command line, end to end
============================

Drives the `fusetrack` CLI through its four subcommands in a temp
directory: simulate a scenario to replay files, track the replay,
evaluate against ground truth, and sweep association weights. Everything
here also works from a shell; this script just keeps the walkthrough
runnable and self-cleaning.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import fusetrack
from fusetrack.fileio import save_yaml
from fusetrack.simulator import crossing_scenario

# The commands run in a temporary directory, where a relative PYTHONPATH
# entry (PYTHONPATH=src) would not resolve: the children get the directory
# of the package imported here first, and every other entry made absolute.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fusetrack.__file__)))
ENTRIES = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([PACKAGE_ROOT] + [p for p in ENTRIES if p != PACKAGE_ROOT]))


def cli(*args, cwd, quiet=False):
    cmd = [sys.executable, "-m", "fusetrack", *map(str, args)]
    print(f"\n$ fusetrack {' '.join(map(str, args))}")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=CHILD_ENV)
    if proc.stdout and not quiet:
        print(proc.stdout, end="")
    if proc.returncode != 0:
        print(proc.stderr, end="", file=sys.stderr)
        raise SystemExit(proc.returncode)
    return proc


with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)

    # a scenario file is just the simulator config serialized to YAML
    scenario = work / "crossing.yaml"
    save_yaml(str(scenario), crossing_scenario(depth_gap=10.0, seed=8).to_dict())
    print(f"scenario written to {scenario.name}")

    cli("simulate", scenario, "--out", "scene", cwd=work)
    cli("track", "scene/replay.jsonl", "--scene", scenario, "--out", "results.jsonl", cwd=work)
    cli("evaluate", "results.jsonl", "scene/ground_truth.jsonl", "--classes", "car", cwd=work)

    # the sweep grid reproduces the ablation: beta=0 rows score worst
    cli(
        "sweep", "scene/replay.jsonl", "scene/ground_truth.jsonl",
        "--scene", scenario, "--beta", "0,0.04", "--delta", "0,0.25",
        cwd=work,
    )

    # latency goes to stderr so stdout stays machine-readable
    proc = cli("track", "scene/replay.jsonl", "--scene", scenario, "--out", "-", cwd=work, quiet=True)
    lines = proc.stdout.splitlines()
    print(f"\nstreaming mode: {len(lines)} JSON lines on stdout")
    print(f"stderr said: {proc.stderr.strip().splitlines()[-1]}")
