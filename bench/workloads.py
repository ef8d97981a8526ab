"""The three workloads. Each builds its inputs from the seed, runs closed
loop (the next operation starts only after the previous one returned), and
checks every operation's output before counting it as good.

* dense_step: ``Tracker.step`` on the acceptance suite's latency load, 500
  boxed detections on a 25x20 pixel grid and 60 radar points per frame.
  Episodes of WARMUP untimed and EPISODE_STEPS timed steps replay the same
  seeded frames, generated lazily, so every episode must reproduce the
  first one's results bit for bit.
* pipeline: ``fusetrack simulate`` -> ``track --scene`` -> ``evaluate`` via
  ``fusetrack.cli.main`` on a 60-object, 1,000-frame scenario.
* eval_scores: ``fusetrack evaluate`` alone, on results whose every
  prediction carries its own seeded confidence (about 1,700 floors).
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from typing import Dict, Iterator, List

import numpy as np
import yaml

import fusetrack.cli
import fusetrack.metrics
from fusetrack.association import Detection
from fusetrack.fileio import read_ground_truth, read_results, results_to_predictions
from fusetrack.fusion import RadarPoint
from fusetrack.geometry import CameraModel, image_to_vehicle
from fusetrack.tracker import FrameInput, LatencyStats, Tracker, TrackerConfig

import probes
from harness import Run, Timed

# Forward-facing 800x448 pinhole camera, as in configs/crossing.yaml.
CAMERA = {
    "fx": 1000.0,
    "fy": 1000.0,
    "cx": 400.0,
    "cy": 224.0,
    "rotation": [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]],
    "translation": [0.0, 0.0, 0.0],
    "image_width": 800,
    "image_height": 448,
}
# Box size (width, height) in meters of class 0, 1, 2.
SIZES = ((1.8, 1.5), (0.6, 1.7), (0.8, 1.6))

WARMUP = 10
EPISODE_STEPS = 100
MIN_TIMED_STEPS = 1000  # so that ten samples lie beyond the p99
MIN_OPS = 3


class CommandFailed(RuntimeError):
    pass


# ----------------------------------------------------------------- inputs

def dense_frames(seed: int, camera: CameraModel) -> Iterator[FrameInput]:
    """The latency load, one frame at a time: 500 detections on a 25x20
    grid with unit pixel jitter, 3 classes, fresh depths and velocities
    each frame, and a radar point under every 8th of the first 480."""
    rng = np.random.default_rng(seed)
    cols, rows = 25, 20
    grid_u, grid_v = [
        g.ravel() for g in np.meshgrid((np.arange(cols) + 0.5) * 32.0, (np.arange(rows) + 0.5) * 22.0)
    ]
    n = cols * rows
    classes = np.arange(n) % 3
    confidence = rng.uniform(0.5, 1.0, n)
    k = 0
    while True:
        u = grid_u + rng.normal(0.0, 1.0, n)
        v = grid_v + rng.normal(0.0, 1.0, n)
        depth = rng.uniform(10.0, 70.0, n)
        vx = rng.uniform(-5.0, 5.0, n)
        vy = rng.uniform(-5.0, 5.0, n)
        dets = tuple(
            Detection(
                u=float(u[i]), v=float(v[i]), depth=float(depth[i]),
                vx=float(vx[i]), vy=float(vy[i]), class_id=int(classes[i]),
                confidence=float(confidence[i]), du=0.0, dv=0.0,
                bbox=(float(u[i] - 10.0), float(v[i] - 8.0), float(u[i] + 10.0), float(v[i] + 8.0)),
            )
            for i in range(n)
        )
        radar = []
        for i in range(0, 8 * 60, 8):
            pos = image_to_vehicle(float(u[i]), float(v[i]), float(depth[i]), camera)
            radar.append(
                RadarPoint(float(pos[0]), float(pos[1]), float(pos[2]),
                           float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            )
        yield FrameInput(k, 0.1 * k, dets, tuple(radar))
        k += 1


def _scenario(seed: int, objects: List[Dict], num_frames: int) -> Dict:
    """Scenario config with standard noise, 10% dropout, occlusion and 10
    clutter radar points per frame."""
    return {
        "seed": seed,
        "num_frames": num_frames,
        "frame_dt": 0.1,
        "camera": CAMERA,
        "objects": objects,
        "noise": {"center_px": 1.0, "depth_m": 0.5, "velocity_mps": 0.3, "displacement_px": 1.0},
        "dropout": 0.1,
        "radar": {"points_per_object": 3, "position_sigma_m": 0.3, "velocity_sigma_mps": 0.3, "clutter_per_frame": 10},
        "occlusion": {"iou_threshold": 0.7, "enabled": True},
    }


def _object(i: int, x: float, y0: float, vx: float, vy: float) -> Dict:
    return {"class_id": i % 3, "position": [x, y0, 0.0], "velocity": [vx, vy, 0.0], "size": list(SIZES[i % 3])}


def pipeline_scenario(seed: int) -> Dict:
    """60 objects crossing the view laterally at depths 14-72 m, each in
    view for 80-160 s and entering at staggered times, so that 20-50 are
    detected per frame and tracks are born and die throughout the 1,000
    frames. The seed jitters depths, durations and entry times and drives
    the simulator's noise; the layout, and so the work, stays the same."""
    rng = np.random.default_rng(seed)
    n, num_frames = 60, 1000
    duration = num_frames * 0.1
    objects = []
    for i in range(n):
        x = 14.0 + 58.0 * (i + 0.5) / n + rng.uniform(-0.4, 0.4)
        edge = 0.4 * x  # |y| at which the center leaves the image
        cross = (80.0 + 80.0 * ((i * 0.6180339887) % 1.0)) * rng.uniform(0.95, 1.05)
        enter = -0.6 * cross + (duration + 0.5 * cross) * ((i * 0.7548776662) % 1.0) + rng.uniform(-1.0, 1.0)
        sign = 1.0 if (i // 3) % 2 == 0 else -1.0
        vy = sign * 2.0 * edge / cross
        objects.append(_object(i, float(x), float(-sign * edge - vy * enter), float(rng.uniform(-0.3, 0.3)), float(vy)))
    return _scenario(seed, objects, num_frames)


def scored_scenario(seed: int) -> Dict:
    """20 objects in their own image columns, 34 px apart, at depths 15-70
    m, drifting slowly so that each stays in view for all 100 frames."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(20):
        x = 15.0 + 55.0 * ((i * 0.6180339887) % 1.0) + rng.uniform(-0.4, 0.4)
        column = 60.0 + 680.0 * (i + 0.5) / 20  # image u of the center
        y = (CAMERA["cx"] - column) / CAMERA["fx"] * x
        objects.append(_object(i, float(x), float(y), float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.1, 0.1))))
    return _scenario(seed, objects, 100)


def rescore(path: str, seed: int) -> None:
    """Give every prediction of a results file its own seeded confidence:
    the object's confidence plus N(0, 0.05) noise, kept in [0.01, 1], as a
    detector scoring each detection would."""
    rng = np.random.default_rng([seed, 1])
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            for track in record["tracks"]:
                track["confidence"] = float(np.clip(track["confidence"] + rng.normal(0.0, 0.05), 0.01, 1.0))
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------- helpers

def _digest(*paths: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _step_digest(result) -> bytes:
    rows = [
        (t.track_id, t.u, t.v, t.depth, t.vx, t.vy, t.class_id, t.confidence, t.age, t.fused, *t.position)
        for t in result.tracks
    ]
    return hashlib.blake2b(np.array(rows, dtype=float).tobytes(), digest_size=16).digest()


@contextmanager
def _capture(owner, attr: str, sink: List, pick=lambda result: result):
    """Keep pick(return value) of every owner.attr call (no timing, no
    tracing)."""
    original = getattr(owner, attr)

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(pick(result))
        return result

    setattr(owner, attr, keep)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _command(run: Run, traced: bool, *argv: str) -> float:
    """One fusetrack command in-process; its wall time in seconds."""
    err = io.StringIO()
    span = run.tracer.span("cli." + argv[0]) if traced else nullcontext()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
        start = time.perf_counter()
        code = fusetrack.cli.main(list(argv))
        elapsed = time.perf_counter() - start
    if code != 0:
        raise CommandFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed


def _id_switches(results: str, gt: str) -> int:
    """Identity switches at confidence floor 0, counted by the package."""
    preds = results_to_predictions(read_results(results))
    return fusetrack.metrics.count_sequence_errors(preds, read_ground_truth(gt), 0.0, 2.0).ids


def _write_scenario(path: str, scenario: Dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario, fh)


def _record_units(run: Run, counts: Dict[str, float]) -> None:
    if run.unit_counts and counts != run.unit_counts[0]:
        run.fail("trace counters", "differ from the first traced unit of the same inputs")
    run.unit_counts.append(counts)


@contextmanager
def _operation(run: Run, traced: bool):
    """One workload operation; when traced, the package is wrapped and the
    operation is the root span."""
    if not traced:
        yield
        return
    with run.tracer.installed(probes.install), run.tracer.span("op"):
        yield


# -------------------------------------------------------------- workloads

def dense_step(run: Run, seed: int, work_dir: str) -> int:
    """Returns the number of operations per traced unit (one episode)."""
    camera = CameraModel.from_dict(CAMERA)
    config = TrackerConfig()
    expected: List[bytes] = []
    episode = 0
    while run.time_left() or (run.tracer is None and len(run.op_ms) < MIN_TIMED_STEPS) or episode < 3:
        traced = run.tracer is not None and episode % 2 == 0
        episode += 1
        gc.collect()  # every episode starts from the same heap
        start = time.perf_counter()
        tracker = Tracker(config, camera)
        frames = dense_frames(seed, camera)
        for _ in range(WARMUP):
            tracker.step(next(frames))
        run.setup_s.append(time.perf_counter() - start)

        digests = []
        for k in range(EPISODE_STEPS):
            frame = next(frames)
            run.attempted += 1
            try:
                with Timed() as timed, _operation(run, traced):
                    result = tracker.step(frame)
            except Exception:
                run.crash(f"step {frame.frame_index}")
                continue
            run.record(traced, timed.ms, timed.ref)
            digest = _step_digest(result)
            digests.append(digest)
            ids = [t.track_id for t in result.tracks]
            if result.frame_index != frame.frame_index or len(ids) != len(frame.detections):
                run.fail(f"step {frame.frame_index}", "every detection must be reported once")
            elif len(set(ids)) != len(ids):
                run.fail(f"step {frame.frame_index}", "duplicate track ids")
            elif expected and digest != expected[k]:
                run.fail(f"step {frame.frame_index}", "results differ from the first episode")
        if traced:
            _record_units(run, run.tracer.take_counts())
        if not expected:
            expected = digests
            run.info["results_digest"] = (hashlib.blake2b(b"".join(digests), digest_size=16).hexdigest(), "")

    if run.op_ms:
        stats = LatencyStats.from_samples(run.op_ms)
        run.info["step_p50_ms"] = (stats.median_ms, "ms")
        if stats.count >= MIN_TIMED_STEPS:
            run.info["step_p99_ms"] = (stats.p99_ms, f"ms (n={stats.count})")
        run.info["track_fps"] = (1e3 / stats.mean_ms, "1/s")
    return EPISODE_STEPS


def pipeline(run: Run, seed: int, work_dir: str) -> int:
    scenario = pipeline_scenario(seed)
    latencies: List = []
    reports: List = []
    expected = None
    pass_s, evaluate_s = [], []
    steps = []  # LatencyStats of the untraced passes
    passes = 0
    # Keep only the LatencyStats of run_sequence, not its results.
    with _capture(fusetrack.cli, "run_sequence", latencies, lambda r: r[1]), _capture(fusetrack.cli, "amota", reports):
        while run.time_left() or passes < MIN_OPS:
            traced = run.tracer is not None and passes % 2 == 0
            d = os.path.join(work_dir, f"pass{passes}")
            shutil.rmtree(os.path.join(work_dir, f"pass{passes - 1}"), ignore_errors=True)
            passes += 1
            gc.collect()
            start = time.perf_counter()
            config = os.path.join(d, "scenario.yaml")
            _write_scenario(config, scenario)
            run.setup_s.append(time.perf_counter() - start)

            replay, gt = os.path.join(d, "scene", "replay.jsonl"), os.path.join(d, "scene", "ground_truth.jsonl")
            results, report = os.path.join(d, "results.jsonl"), os.path.join(d, "report.txt")
            run.attempted += 1
            latencies.clear()
            reports.clear()
            try:
                with Timed() as timed, _operation(run, traced):
                    _command(run, traced, "simulate", config, "--out", os.path.join(d, "scene"))
                    _command(run, traced, "track", replay, "--scene", config, "--out", results)
                    evaluate = _command(run, traced, "evaluate", results, gt, "--out", report)
            except Exception:
                run.crash(f"pass {passes}")
                continue
            run.record(traced, timed.ms, timed.ref)
            if traced:
                _record_units(run, run.tracer.take_counts())
            else:
                pass_s.append(timed.ms / 1e3)
                evaluate_s.append(evaluate)
                steps.append(latencies[0])

            digest = _digest(replay, gt, results, report)
            amota = reports[0].amota
            if expected is None:
                expected = digest
                run.scores["metrics.amota_score"] = amota
                run.scores["metrics.id_switches"] = _id_switches(results, gt)
                run.info["outputs_digest"] = (digest, "")
            if digest != expected:
                run.fail(f"pass {passes}", "replay, ground truth, results or report differ from the first pass")
            elif latencies[0].count != scenario["num_frames"]:
                run.fail(f"pass {passes}", f"{latencies[0].count} steps for {scenario['num_frames']} frames")
            elif not 0.0 <= amota <= 1.0:
                run.fail(f"pass {passes}", f"AMOTA {amota} outside [0, 1]")

    if pass_s:
        run.info["pipeline_s"] = (statistics.median(pass_s), "s")
        run.info["evaluate_s"] = (statistics.median(evaluate_s), "s")
        run.info["step_p50_ms"] = (statistics.median(s.median_ms for s in steps), "ms")
        run.info["track_fps"] = (sum(s.count for s in steps) / (sum(s.mean_ms * s.count for s in steps) / 1e3), "1/s")
    return 1


def eval_scores(run: Run, seed: int, work_dir: str) -> int:
    scenario = scored_scenario(seed)
    reports: List = []
    expected = None
    evaluate_s = []
    ops = 0
    with _capture(fusetrack.cli, "amota", reports):
        while run.time_left() or ops < MIN_OPS:
            traced = run.tracer is not None and ops % 2 == 0
            d = os.path.join(work_dir, f"op{ops}")
            shutil.rmtree(os.path.join(work_dir, f"op{ops - 1}"), ignore_errors=True)
            ops += 1
            gc.collect()
            config = os.path.join(d, "scenario.yaml")
            replay, gt = os.path.join(d, "scene", "replay.jsonl"), os.path.join(d, "scene", "ground_truth.jsonl")
            results, report = os.path.join(d, "results.jsonl"), os.path.join(d, "report.txt")
            run.attempted += 1
            reports.clear()
            try:
                start = time.perf_counter()
                _write_scenario(config, scenario)
                _command(run, False, "simulate", config, "--out", os.path.join(d, "scene"))
                _command(run, False, "track", replay, "--scene", config, "--out", results)
                rescore(results, seed)
                run.setup_s.append(time.perf_counter() - start)
                with Timed() as timed, _operation(run, traced):
                    _command(run, traced, "evaluate", results, gt, "--out", report)
            except Exception:
                run.crash(f"evaluate {ops}")
                continue
            run.record(traced, timed.ms, timed.ref)
            if traced:
                _record_units(run, run.tracer.take_counts())
            else:
                evaluate_s.append(timed.ms / 1e3)

            digest = _digest(replay, gt, results, report)
            amota = reports[0].amota
            if expected is None:
                expected = digest
                run.scores["metrics.amota_score"] = amota
                run.scores["metrics.id_switches"] = _id_switches(results, gt)
                run.info["outputs_digest"] = (digest, "")
            if digest != expected:
                run.fail(f"evaluate {ops}", "replay, results or report differ from the first operation")
            elif not 0.0 <= amota <= 1.0:
                run.fail(f"evaluate {ops}", f"AMOTA {amota} outside [0, 1]")

    if evaluate_s:
        run.info["evaluate_s"] = (statistics.median(evaluate_s), "s")
    return 1


WORKLOADS = {"dense_step": dense_step, "pipeline": pipeline, "eval_scores": eval_scores}
