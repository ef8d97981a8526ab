"""Peak memory of ``fusetrack track`` on a replay and on longer copies of it.

repeat_replay writes a replay repeated a number of times over, with frame
indices and times shifted so that the sequence stays ordered. Run as a
script, it tracks each copy in a child process and prints the child's peak
resident set size (``ru_maxrss``) as Markdown lines:

    python tests/track_memory.py REPLAY --times 1,10 -- --scene configs/crossing.yaml

Arguments after ``--`` go to ``fusetrack track``; the results go to a
temporary file. Memory that stays flat as the copies grow is bounded by the
live tracks, not by the length of the sequence.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile


def _records(path: str):
    with open(path, encoding="utf-8") as fh:
        yield from (json.loads(line) for line in fh if line.strip())


def repeat_replay(src: str, dst: str, times: int) -> int:
    """Write src times over to dst, a line at a time; returns the number of
    frames written."""
    stamps = [(record["frame"], record["time"]) for record in _records(src)]
    frame_step = stamps[-1][0] + 1
    dt = stamps[1][1] - stamps[0][1] if len(stamps) > 1 else 1.0
    time_step = stamps[-1][1] - stamps[0][1] + dt
    with open(dst, "w", encoding="utf-8") as fh:
        for k in range(times):
            for record in _records(src):
                shifted = dict(record, frame=record["frame"] + k * frame_step, time=record["time"] + k * time_step)
                fh.write(json.dumps(shifted, separators=(",", ":")) + "\n")
    return times * len(stamps)


def child_peak_mb(argv) -> float:
    """ru_maxrss of one child process running argv, in MB. Linux carries the
    peak of the forking process over the exec, so the caller must stay small."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {err.read().decode()}")
    return usage.ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("replay")
    parser.add_argument("--times", default="1,10", help="comma-separated repeat counts")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    track_args = argv[split + 1:]  # for fusetrack track
    with tempfile.TemporaryDirectory() as tmp:
        for times in map(int, args.times.split(",")):
            replay = os.path.join(tmp, f"replay_x{times}.jsonl")
            frames = repeat_replay(args.replay, replay, times)
            command = [sys.executable, "-m", "fusetrack", "track", replay, "--out", os.path.join(tmp, "results.jsonl")]
            peak = child_peak_mb(command + track_args)
            print(f"- `track` on {frames:,} frames ({times}x): child ru_maxrss {peak:.1f} MB")


if __name__ == "__main__":
    main()
