"""Where the tracer wraps the fusetrack package, and what it counts there.

Every probe replaces a public function at the attribute its caller looks
up at call time:

* ``Tracker.step`` on the class, so ``run_sequence`` and direct callers
  both go through it;
* the names ``fusetrack.tracker`` imported for fusion and association;
* ``fusetrack.fusion.project_points``, called by ``associate_boxes``;
* the names ``fusetrack.cli`` imported for simulation, file I/O and
  scoring;
* ``fusetrack.metrics.count_sequence_errors`` and ``match_frame``, which
  ``amota`` and ``count_sequence_errors`` look up as module globals.

Counters are summed over one unit of work (see ``workloads``) and turned
into per-operation figures by ``layer_metrics``.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

import fusetrack.cli
import fusetrack.fusion
import fusetrack.metrics
import fusetrack.tracker

from tracing import SELF_TIME, TIMED_SPANS, Tracer

# Per-layer metric names, units and what they count.
COUNTERS = (
    "tracker.step.calls",
    "tracker.live_tracks",
    "tracker.births",
    "tracker.deaths",
    "tracker.reported",
    "association.dets",
    "association.tracks",
    "association.matches",
    "fusion.pillars",
    "fusion.boxed_dets",
    "fusion.hits",
    "geometry.project_points.points",
    "simulator.frames",
    "simulator.detections",
    "simulator.radar_points",
    "fileio.bytes_written",
    "fileio.bytes_read",
    "metrics.floors",
    "metrics.count_sequence_errors.calls",
    "metrics.match_frame.calls",
)
RATIOS = {
    "association.match_ratio": ("association.matches", "association.dets"),
    "fusion.hit_ratio": ("fusion.hits", "fusion.boxed_dets"),
}
SCORES = ("metrics.amota_score", "metrics.id_switches")
LAYER_TIMES = tuple(name + ".ms" for name in TIMED_SPANS) + tuple(name + ".self_ms" for name in SELF_TIME)


def per_layer_units() -> Dict[str, str]:
    units = {name: "ms" for name in LAYER_TIMES}
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({"metrics.amota_score": "score", "metrics.id_switches": "count"})
    units.update({"trace.op_untraced_ms": "ms", "trace.op_traced_ms": "ms", "trace.overhead_frac": "ratio"})
    return units


def _step(counts, args, result):
    counts["tracker.step.calls"] += 1
    counts["tracker.reported"] += len(result.tracks)
    counts["tracker.live_tracks"] += len(args[0].live_tracks)


def _greedy(counts, args, result):
    counts["association.dets"] += len(args[0])
    counts["association.tracks"] += len(args[1])
    counts["association.matches"] += len(result.matches)
    counts["tracker.births"] += len(result.unmatched_detections)


def _pillars(counts, args, result):
    counts["fusion.pillars"] += len(result)


def _boxes(counts, args, result):
    counts["fusion.boxed_dets"] += len(args[0])
    counts["fusion.hits"] += sum(1 for match in result if match is not None)


def _project(counts, args, result):
    counts["geometry.project_points.points"] += np.size(args[0]) // 3


def _generate(counts, args, scene):
    counts["simulator.frames"] += len(scene.frames)
    counts["simulator.detections"] += sum(len(f.detections) for f in scene.frames)
    counts["simulator.radar_points"] += sum(len(f.radar) for f in scene.frames)


def _written(counts, args, result):
    counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _read(counts, args, result):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _amota(counts, args, report):
    # The floors amota should replay: one per distinct confidence of each
    # ground-truth class, counted here independently of amota itself.
    preds, gts = args[0], args[1]
    for class_id in {o.class_id for g in gts for o in g.objects}:
        counts["metrics.floors"] += len({o.confidence for p in preds for o in p.objects if o.class_id == class_id})
    counts["metrics.amota_score"] += report.amota


def _errors(counts, args, result):
    counts["metrics.count_sequence_errors.calls"] += 1


def _match(counts, args, result):
    counts["metrics.match_frame.calls"] += 1


def install(tracer: Tracer) -> None:
    cli, tracker = fusetrack.cli, fusetrack.tracker
    tracer.wrap(tracker.Tracker, "step", "tracker.step", _step)
    tracer.wrap(tracker, "greedy_associate", "association.greedy_associate", _greedy)
    tracer.wrap(tracker, "expand_pillars", "fusion.expand_pillars", _pillars)
    tracer.wrap(tracker, "associate_boxes", "fusion.associate_boxes", _boxes)
    tracer.wrap(fusetrack.fusion, "project_points", "geometry.project_points", _project)
    tracer.wrap(cli, "generate", "simulator.generate", _generate)
    for attr, observe in (
        ("write_replay", _written),
        ("read_replay", _read),
        ("write_ground_truth", _written),
        ("read_ground_truth", _read),
        ("write_results", _written),
        ("read_results", _read),
        ("results_to_predictions", None),
    ):
        tracer.wrap(cli, attr, "fileio." + attr, observe)
    tracer.wrap(cli, "amota", "metrics.amota", _amota)
    tracer.wrap(fusetrack.metrics, "count_sequence_errors", "metrics.count_sequence_errors", _errors)
    tracer.wrap(fusetrack.metrics, "match_frame", "metrics.match_frame", _match)


def layer_metrics(tracer: Tracer, unit_counts: Dict[str, float], ops_per_unit: int) -> Dict[str, float]:
    """Per-layer figures per workload operation: span times averaged over
    every traced operation, counters of one unit divided by the operations
    in it. tracker.live_tracks is the mean live-track count after a step,
    and deaths follow from tracks offered, births and survivors."""
    roots, times = tracer.layer_times_ms()
    out = {name: times.get(name, 0.0) / max(roots, 1) for name in LAYER_TIMES}
    counts = {name: unit_counts.get(name, 0) for name in COUNTERS}
    steps = counts["tracker.step.calls"]
    counts["tracker.deaths"] = (
        counts["association.tracks"] + counts["tracker.births"] - counts["tracker.live_tracks"]
    )
    for name in COUNTERS:
        out[name] = counts[name] / ops_per_unit
    out["tracker.live_tracks"] = counts["tracker.live_tracks"] / steps if steps else 0.0
    for name, (num, den) in RATIOS.items():
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    return out
