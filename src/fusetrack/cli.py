"""Command line front end.

Four subcommands cover the full loop: ``simulate`` renders a scenario config
into a replay plus aligned ground truth, ``track`` runs the tracker over a
replay, ``evaluate`` scores results against ground truth, and ``sweep`` grids
over association weights. All file outputs and stdout are deterministic for
fixed inputs; timing information goes to stderr only.

Bare relative config paths that do not exist in the working directory are
also looked up under $FUSETRACK_CONFIG_DIR.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import replace
from functools import cache
from itertools import product
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .association import CostWeights, cost_matrix
# read_replay, read_results and write_results are not called here; bench/probes.py wraps them by these names.
from .fileio import (
    ParseError,
    encode_result,
    iter_replay,
    load_yaml,
    read_ground_truth,
    read_predictions,
    read_replay,
    read_results,
    results_to_predictions,
    tracker_config_from_dict,
    write_ground_truth,
    write_replay,
    write_results,
)
from .geometry import CameraModel
from .metrics import MetricsReport, amota
from .simulator import ScenarioConfig, generate
from .tracker import FrameInput, Tracker, TrackerConfig, check_order, run_sequence


def _resolve_config(path: str) -> str:
    """Leave existing / absolute paths alone; try $FUSETRACK_CONFIG_DIR for
    bare relative names that do not resolve locally."""
    if os.path.isabs(path) or os.path.exists(path):
        return path
    base = os.environ.get("FUSETRACK_CONFIG_DIR")
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_config(path: str, build: Callable):
    """build() of the YAML mapping at path, with the file named in errors."""
    path = _resolve_config(path)
    data = load_yaml(path)
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_camera(path: str) -> CameraModel:
    return _load_config(path, lambda data: CameraModel.from_dict(data["camera"]))


def _parse_class_names(spec: Optional[str]) -> Optional[List[str]]:
    return [s.strip() for s in (spec or "").split(",") if s.strip()] or None


def _parse_grid(spec: Optional[str], fallback: float) -> List[float]:
    try:
        values = [float(s) for s in (spec or "").split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"bad grid value in {spec!r}: expected comma-separated numbers")
    return values or [fallback]


def _worker_count(text: str) -> int:
    """The --workers value: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _add_tracker_flags(sp: argparse.ArgumentParser, weight_grids: bool) -> None:
    if weight_grids:
        sp.add_argument("--alpha", help="comma-separated pixel-term weights")
        sp.add_argument("--beta", help="comma-separated depth-term weights")
        sp.add_argument("--delta", help="comma-separated velocity-term weights")
        sp.add_argument("--radius", help="comma-separated gate radii (pixels)")
    else:
        sp.add_argument("--alpha", type=float, help="pixel-term weight")
        sp.add_argument("--beta", type=float, help="depth-term weight")
        sp.add_argument("--delta", type=float, help="velocity-term weight")
        sp.add_argument("--radius", type=float, help="gate radius in pixels")
    sp.add_argument("--max-age", dest="max_age", type=int, help="frames a track may coast before it is dropped")
    sp.add_argument("--depth-tolerance", dest="depth_tolerance", type=float, help="relative frustum depth window")
    sp.add_argument("--min-confidence", dest="min_confidence", type=float, help="detection confidence floor")
    sp.add_argument("--fusion", action=argparse.BooleanOptionalAction, default=None, help="radar fusion on/off")
    sp.add_argument("--pillar-width", dest="pillar_width", type=float, help="pillar width (y), meters")
    sp.add_argument("--pillar-height", dest="pillar_height", type=float, help="pillar height (z), meters")
    sp.add_argument("--pillar-depth", dest="pillar_depth", type=float, help="pillar depth (x), meters")


def _given(args, **dests) -> dict:
    """The fields (name=argparse dest) whose flags were given."""
    return {name: getattr(args, dest) for name, dest in dests.items() if getattr(args, dest) is not None}


def _base_config(args) -> TrackerConfig:
    """Library defaults, overridden by --config, overridden by flags."""
    cfg = _load_config(args.config, tracker_config_from_dict) if args.config else TrackerConfig()
    dims = _given(args, width_y="pillar_width", height_z="pillar_height", depth_x="pillar_depth")
    flags = _given(
        args, depth_tolerance="depth_tolerance", max_age="max_age", min_confidence="min_confidence", fusion_enabled="fusion"
    )
    return replace(cfg, pillar_dims=replace(cfg.pillar_dims, **dims), **flags)


def _in_order(frames: Iterator[FrameInput]) -> Iterator[FrameInput]:
    """The frames of iter_replay; one that the tracker's order rule refuses
    fails in the reader, which names its line as it names a bad line's."""
    previous = None
    for frame in frames:
        try:
            check_order(previous, frame)
        except ValueError as exc:
            frames.throw(exc)
        yield (previous := frame)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config, ScenarioConfig.from_dict)
    scene = generate(cfg)  # build everything before touching the filesystem
    os.makedirs(args.out, exist_ok=True)
    replay_path = os.path.join(args.out, "replay.jsonl")
    gt_path = os.path.join(args.out, "ground_truth.jsonl")
    write_replay(replay_path, scene.frames)
    write_ground_truth(gt_path, scene.ground_truth)
    n_det = sum(len(f.detections) for f in scene.frames)
    n_radar = sum(len(f.radar) for f in scene.frames)
    n_gt = sum(len(g.gt_id) for g in scene.ground_truth)
    print(
        f"seed {cfg.seed}: {len(scene.frames)} frames, {n_det} detections, "
        f"{n_radar} radar points, {n_gt} ground-truth observations"
    )
    print(f"wrote {replay_path}")
    print(f"wrote {gt_path}")
    return 0


def _cmd_track(args) -> int:
    frames = _in_order(iter_replay(args.replay))  # opened first: a missing replay leaves no results file
    config = _base_config(args)
    weights = _given(args, alpha="alpha", beta="beta", delta="delta", radius="radius")
    config = replace(config, weights=replace(config.weights, **weights))
    camera = _load_camera(args.scene) if args.scene else None
    if config.fusion_enabled and camera is None:
        print(
            "error: radar fusion needs a camera; pass --scene scenario.yaml or disable it with --no-fusion",
            file=sys.stderr,
        )
        return 2
    # One frame is read, stepped and written at a time: a bad replay line k, or a frame out of order on it,
    # fails after k - 1 result lines.
    with nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w", encoding="utf-8") as out:
        _, stats = run_sequence(frames, config, camera, on_result=lambda r: out.write(encode_result(r) + "\n"))
    print(
        f"latency over {stats.count} steps: median {stats.median_ms:.3f} ms, "
        f"p99 {stats.p99_ms:.3f} ms, max {stats.max_ms:.3f} ms",
        file=sys.stderr,
    )
    return 0


def _format_report(report: MetricsReport, names: Optional[List[str]], dist_threshold: float) -> str:
    lines = [
        f"match gate {dist_threshold:g} m, {report.num_thresholds} recall thresholds, "
        f"{report.num_gt} ground-truth objects"
    ]
    cols = ("AMOTA", "AMOTP", "MOTAR", "MOTA", "MOTP", "Recall", "GT")
    lines.append(f"{'class':<14}" + "".join(f"{c:>9}" for c in cols))

    def row(label: str, m) -> str:
        return (
            f"{label:<14}{m.amota:>9.4f}{m.amotp:>9.4f}{m.motar:>9.4f}"
            f"{m.mota:>9.4f}{m.motp:>9.4f}{m.recall:>9.4f}{m.num_gt:>9}"
        )

    for cid in sorted(report.per_class):
        if names is not None and not (0 <= cid < len(names)):
            continue
        label = names[cid] if names is not None else f"class {cid}"
        lines.append(row(label, report.per_class[cid]))
    lines.append(row("overall", report))
    return "\n".join(lines) + "\n"


def _cmd_evaluate(args) -> int:
    try:  # the results file is read a batch of lines at a time, straight into prediction columns
        preds = read_predictions(args.results)
    except ParseError:
        raise  # names its file and line already
    except ValueError as exc:
        raise ValueError(f"{args.results}: {exc}") from exc
    gt = read_ground_truth(args.gt)
    report = amota(preds, gt, num_thresholds=args.num_thresholds, dist_threshold=args.dist_threshold)
    text = _format_report(report, _parse_class_names(args.classes), args.dist_threshold)
    # UTF-8 whatever the locale; class names come back as the bytes given on the command line.
    with open(args.out, "w", encoding="utf-8", errors="surrogateescape") if args.out else nullcontext(sys.stdout) as out:
        out.write(text)
    return 0


def _optimal_pairs(matrix: np.ndarray) -> List[Tuple[int, int]]:
    """A best matching of a cost matrix with +inf marking forbidden pairs:
    the most pairs, and among those the least total cost.

    linear_sum_assignment minimizes cost over min(rows, columns) pairs, so
    cardinality comes first through a shift: forbidden pairs cost 0 and
    every allowed cost drops by K = 1 + 2 * (sum of |finite costs|). One
    more allowed pair then lowers the total by more than any spread of the
    real costs can raise it. Assigned forbidden pairs are dropped. Costs
    above 1 are first scaled down by a power of two, which keeps K finite
    and, being exact, changes none of the solver's choices.
    """
    # Imported here, for sweep only: scipy.optimize adds about 23 MB to the
    # peak memory of every other command.
    from scipy.optimize import linear_sum_assignment

    allowed = np.isfinite(matrix)
    scale = 2.0 ** -max(int(np.frexp(np.abs(matrix[allowed]).max(initial=0.0))[1]), 0)
    scaled = matrix * scale
    shift = scale + 2.0 * math.fsum(np.abs(scaled[allowed]).tolist())
    rows, cols = linear_sum_assignment(np.where(allowed, scaled - shift, 0.0))
    return [(i, j) for i, j in zip(rows.tolist(), cols.tolist()) if allowed[i, j]]


def _association_gap(tracker: Tracker, weights: CostWeights, gaps: List[float]) -> int:
    """After a step: greedy total cost minus the optimal total on the same
    cost matrix. Appends the gap when both matchings keep the same number of
    pairs; returns 1 on a cardinality shortfall, 0 otherwise. Frames with
    nothing to match on either side are skipped outright."""
    dets, tracks, assoc = tracker.last_association
    if not dets or not tracks:
        return 0
    matrix = cost_matrix(dets, tracks, weights)
    greedy_pairs = assoc.pairs.tolist()
    optimal_pairs = _optimal_pairs(matrix)
    if len(optimal_pairs) != len(greedy_pairs):
        return 1
    greedy_total = math.fsum(matrix[i, j] for i, j in greedy_pairs)
    gaps.append(greedy_total - math.fsum(matrix[i, j] for i, j in optimal_pairs))
    return 0


def _cmd_sweep(args) -> int:
    frames = list(_in_order(iter_replay(args.replay)))
    gt = read_ground_truth(args.gt)
    camera = _load_camera(args.scene)
    base = _base_config(args)

    grids = [_parse_grid(getattr(args, k), getattr(base.weights, k)) for k in ("alpha", "beta", "delta", "radius")]
    combos = list(dict.fromkeys(product(*grids)))  # grid order, repeats dropped

    def run_one(combo: Tuple[float, float, float, float]):
        a, b, d, r = combo
        weights = CostWeights(alpha=a, beta=b, delta=d, radius=r)
        config = replace(base, weights=weights)
        tracker = Tracker(config, camera, record_association=True)
        results = []
        gaps: List[float] = []
        shortfall = 0
        for frame in frames:
            results.append(tracker.step(frame))
            shortfall += _association_gap(tracker, weights, gaps)
        preds = results_to_predictions(results)
        report = amota(preds, gt, num_thresholds=args.num_thresholds, dist_threshold=args.dist_threshold)
        gap_mean = math.fsum(gaps) / len(gaps) if gaps else None
        return combo, report, gap_mean, len(gaps), shortfall

    rows = [run_one(c) for c in combos]
    # Best AMOTA first; ties resolved by the grid values.
    rows.sort(key=lambda row: (-row[1].amota, row[0]))

    header = (
        f"{'alpha':<12}{'beta':<12}{'delta':<12}{'radius':<10}"
        f"{'AMOTA':>9}{'AMOTP':>9}{'gap-mean':>13}{'frames':>8}{'shortfall':>11}"
    )
    lines = [header]
    for (a, b, d, r), report, gap_mean, gap_frames, shortfall in rows:
        gap_text = f"{gap_mean:.6g}" if gap_mean is not None else "n/a"
        lines.append(
            f"{a:<12g}{b:<12g}{d:<12g}{r:<10g}"
            f"{report.amota:>9.4f}{report.amotp:>9.4f}{gap_text:>13}{gap_frames:>8}{shortfall:>11}"
        )
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.write(text)
    return 0


@cache  # built once per process: parsing leaves no state in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusetrack",
        description="Radar-camera fusion tracking: simulate, track, evaluate, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a scenario config into a replay and ground truth")
    sim.add_argument("config", help="scenario YAML; bare names also resolve under $FUSETRACK_CONFIG_DIR")
    sim.add_argument("--out", required=True, help="output directory (replay.jsonl, ground_truth.jsonl)")
    sim.set_defaults(func=_cmd_simulate)

    trk = sub.add_parser("track", help="run the tracker over a replay")
    trk.add_argument("replay", help="replay JSONL")
    trk.add_argument("--out", default="-", help="results JSONL path, or - for stdout (default)")
    trk.add_argument("--scene", help="scenario YAML supplying the camera (required for fusion and positions)")
    trk.add_argument("--config", help="tracker config YAML")
    _add_tracker_flags(trk, weight_grids=False)
    trk.set_defaults(func=_cmd_track)

    ev = sub.add_parser("evaluate", help="score results against ground truth")
    ev.add_argument("results", help="results JSONL (needs x/y positions; track with --scene)")
    ev.add_argument("gt", help="ground truth JSONL")
    ev.add_argument("--num-thresholds", dest="num_thresholds", type=int, default=40)
    ev.add_argument("--dist-threshold", dest="dist_threshold", type=float, default=2.0, help="match gate, meters")
    ev.add_argument("--classes", help="comma-separated names for class ids 0..n-1; other ids are hidden")
    ev.add_argument("--workers", type=_worker_count, default=1, help="accepted for compatibility; no longer changes anything")
    ev.add_argument("--out", help="write the report here instead of stdout")
    ev.set_defaults(func=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="grid-search association weights")
    sw.add_argument("replay", help="replay JSONL")
    sw.add_argument("gt", help="ground truth JSONL")
    sw.add_argument("--scene", required=True, help="scenario YAML supplying the camera")
    sw.add_argument("--config", help="tracker config YAML")
    _add_tracker_flags(sw, weight_grids=True)
    sw.add_argument("--num-thresholds", dest="num_thresholds", type=int, default=40)
    sw.add_argument("--dist-threshold", dest="dist_threshold", type=float, default=2.0)
    sw.add_argument("--workers", type=_worker_count, default=1, help="accepted for compatibility; no longer changes anything")
    sw.add_argument("--out", help="write the table here instead of stdout")
    sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has already written its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
