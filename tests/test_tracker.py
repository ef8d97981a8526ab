"""Tracker lifecycle: spawning, identity, coasting, fusion plumbing."""

import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from fusetrack.association import Detection, DetectionBatch, TrackTable
from fusetrack.fileio import read_replay, write_replay
from fusetrack.fusion import Pillar, RadarPoint
from fusetrack.geometry import CameraModel, image_to_vehicle
from fusetrack.metrics import GroundTruthFrame, GroundTruthObject, PredictedFrame, PredictedObject
from fusetrack.simulator import crossing_scenario, generate
from fusetrack.tracker import (
    FrameInput,
    FrameResult,
    LatencyStats,
    Tracker,
    TrackerConfig,
    TrackSnapshot,
    run_sequence,
)

from reference import ReferenceTracker, dense_frames, random_tracking_frames

CAM = CameraModel.forward_facing(1000.0, 1000.0, 400.0, 224.0, 800, 448)


def det(u, v, depth=20.0, vx=0.0, vy=0.0, cls=0, conf=0.9, bbox=None):
    return Detection(u, v, depth, vx, vy, cls, conf, bbox=bbox)


def cfg(**kwargs):
    kwargs.setdefault("fusion_enabled", False)
    return TrackerConfig(**kwargs)


def frame(k, dets, radar=(), dt=0.1):
    return FrameInput(k, k * dt, tuple(dets), tuple(radar))


def ids(result: FrameResult):
    return [t.track_id for t in result.tracks]


def test_spawns_ids_in_confidence_order():
    tracker = Tracker(cfg())
    result = tracker.step(frame(0, [det(100, 100, conf=0.5), det(300, 100, conf=0.9), det(500, 100, conf=0.7)]))
    assert ids(result) == [1, 2, 3]
    by_id = {t.track_id: t for t in result.tracks}
    assert by_id[1].u == 300  # most confident spawns first
    assert by_id[2].u == 500
    assert by_id[3].u == 100


def test_same_detection_keeps_its_id():
    tracker = Tracker(cfg())
    first = tracker.step(frame(0, [det(100, 100)]))
    second = tracker.step(frame(1, [det(102, 101)]))
    assert ids(first) == ids(second) == [1]


def test_gap_longer_than_max_age_gets_new_id():
    tracker = Tracker(cfg(max_age=3))
    tracker.step(frame(0, [det(100, 100)]))
    for k in range(1, 4):  # three consecutive misses: dropped at the third
        assert tracker.step(frame(k, [])).tracks == ()
    result = tracker.step(frame(4, [det(100, 100)]))
    assert ids(result) == [2]


def test_gap_within_max_age_rejoins():
    tracker = Tracker(cfg(max_age=3))
    tracker.step(frame(0, [det(100, 100)]))
    tracker.step(frame(1, []))
    tracker.step(frame(2, []))
    result = tracker.step(frame(3, [det(100, 100)]))
    assert ids(result) == [1]


def test_max_age_one_splits_on_any_gap():
    tracker = Tracker(cfg(max_age=1))
    tracker.step(frame(0, [det(100, 100)]))
    tracker.step(frame(1, []))
    result = tracker.step(frame(2, [det(100, 100)]))
    assert ids(result) == [2]


def test_coasting_track_not_reported():
    tracker = Tracker(cfg())
    tracker.step(frame(0, [det(100, 100), det(500, 300)]))
    result = tracker.step(frame(1, [det(100, 100)]))
    assert ids(result) == [1]
    assert {t.track_id for t in tracker.live_tracks} == {1, 2}


def test_low_confidence_detections_are_invisible():
    tracker = Tracker(cfg(min_confidence=0.3))
    result = tracker.step(frame(0, [det(100, 100, conf=0.2), det(500, 300, conf=0.4)]))
    assert ids(result) == [1]
    assert tracker.step(frame(1, [det(100, 100, conf=0.29)])).tracks == ()


def test_every_kept_detection_is_represented():
    tracker = Tracker(cfg())
    tracker.step(frame(0, [det(100, 100), det(500, 300)]))
    result = tracker.step(frame(1, [det(101, 100), det(501, 300), det(700, 400)]))
    assert len(result.tracks) == 3


def test_ids_never_reused():
    tracker = Tracker(cfg(max_age=1))
    seen = set()
    for k in range(10):
        dets = [det(100 + 200 * (k % 2), 100)]  # alternate far positions
        for t in tracker.step(frame(k, dets)).tracks:
            seen.add(t.track_id)
    assert sorted(seen) == list(range(1, len(seen) + 1))


def test_out_of_order_and_bad_timestamp_rejected():
    tracker = Tracker(cfg())
    tracker.step(frame(1, []))
    with pytest.raises(ValueError):
        tracker.step(frame(1, []))
    with pytest.raises(ValueError):
        tracker.step(frame(0, []))
    with pytest.raises(ValueError):
        tracker.step(FrameInput(5, -1.0, ()))


def test_frame_index_beyond_int64_rejected():
    FrameInput(2**63 - 1, 0.0, ())
    assert type(FrameInput(np.int64(-(2**63)), 0.0, ()).frame_index) is int
    for bad in (2**63, 1.5, 2.0, True, np.float64(3.0), np.bool_(True)):
        with pytest.raises(ValueError):
            FrameInput(bad, 0.0, ())


def test_replay_is_bit_identical():
    frames = [
        frame(k, [det(100 + 3 * k, 100 + k, conf=0.8), det(600 - 2 * k, 300, conf=0.6)])
        for k in range(20)
    ]
    first, _ = run_sequence(frames, cfg())
    second, _ = run_sequence(frames, cfg())
    assert first == second


def test_fusion_overrides_depth_and_velocity():
    bbox = (380.0, 204.0, 420.0, 244.0)
    d = det(400.0, 224.0, depth=20.0, vx=0.0, vy=0.0, bbox=bbox)
    radar = [RadarPoint(19.0, 0.0, 0.0, 3.0, 1.0)]
    tracker = Tracker(TrackerConfig(fusion_enabled=True), camera=CAM)
    result = tracker.step(frame(0, [d], radar))
    (snap,) = result.tracks
    assert snap.fused
    assert snap.depth == pytest.approx(19.0)
    assert (snap.vx, snap.vy) == (3.0, 1.0)

    off = Tracker(cfg())
    (raw,) = off.step(frame(0, [d], radar)).tracks
    assert not raw.fused
    assert raw.depth == 20.0 and raw.vx == 0.0


def test_fusion_requires_camera():
    with pytest.raises(ValueError):
        Tracker(TrackerConfig(fusion_enabled=True))


def test_unboxed_detection_skips_fusion():
    radar = [RadarPoint(19.0, 0.0, 0.0, 3.0, 1.0)]
    tracker = Tracker(TrackerConfig(fusion_enabled=True), camera=CAM)
    (snap,) = tracker.step(frame(0, [det(400.0, 224.0)], radar)).tracks
    assert not snap.fused and snap.depth == 20.0


def test_snapshot_position_matches_backprojection():
    tracker = Tracker(cfg(), camera=CAM)
    (snap,) = tracker.step(frame(0, [det(300.0, 200.0, depth=15.0)])).tracks
    expected = image_to_vehicle(300.0, 200.0, 15.0, CAM)
    assert snap.position == pytest.approx(tuple(expected))
    no_cam = Tracker(cfg())
    (snap,) = no_cam.step(frame(0, [det(300.0, 200.0)])).tracks
    assert snap.position is None


def test_track_age_counts_frames_alive():
    tracker = Tracker(cfg())
    tracker.step(frame(0, [det(100, 100)]))
    tracker.step(frame(1, []))  # coast
    (snap,) = tracker.step(frame(2, [det(100, 100)])).tracks
    assert snap.age == 3


def test_run_sequence_empty():
    results, stats = run_sequence([], cfg())
    assert results == []
    assert stats == LatencyStats(0, 0.0, 0.0, 0.0, 0.0)


def test_run_sequence_hands_each_result_to_on_result():
    """With on_result, run_sequence takes any iterator, hands over each
    result once and in frame order, keeps none, and times every step."""
    scene = generate(crossing_scenario(10.0, seed=3))
    expected, expected_stats = run_sequence(scene.frames, TrackerConfig(), scene.config.camera)
    seen = []
    results, stats = run_sequence(iter(scene.frames), TrackerConfig(), scene.config.camera, on_result=seen.append)
    assert results == []
    assert seen == expected
    assert stats.count == expected_stats.count == len(scene.frames)


def test_latency_stats_percentiles():
    stats = LatencyStats.from_samples(list(range(1, 101)))
    assert stats.count == 100
    assert stats.median_ms == pytest.approx(50.5)
    # rank interpolation: pos = 0.99 * 99 = 98.01 -> 99 + 0.01 * (100 - 99)
    assert stats.p99_ms == pytest.approx(99.01)
    assert stats.max_ms == 100
    assert stats.mean_ms == pytest.approx(50.5)


def test_noiseless_single_object_keeps_one_id():
    frames = []
    for k in range(40):
        u = 200.0 + 5.0 * k
        frames.append(frame(k, [Detection(u, 224.0, 30.0, 0.0, 2.0, 0, 0.9, du=5.0 if k else 0.0)]))
    results, _ = run_sequence(frames, cfg())
    assert all(ids(r) == [1] for r in results)


def _bits(value):
    """value with every float written as its exact hex form and every
    dataclass as its compared fields, so that == means bit-identical."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    fields = getattr(type(value), "__dataclass_fields__", None)
    if fields is not None:
        return [type(value).__name__] + [_bits(getattr(value, f.name)) for f in fields.values() if f.compare]
    return value


def _column_bits(table):
    """Every column of a DetectionBatch or TrackTable as (name, dtype,
    shape, raw bytes), so that == means bit-identical."""
    columns = {name: getattr(table, name) for name in type(table).__slots__}
    return [(name, c.dtype.str, c.shape, c.tobytes()) for name, c in columns.items()]


def _dense_with_empty_frames_and_gaps(rng):
    frames = dense_frames(rng, CAM, 12)
    return [
        FrameInput(5 * k, 0.5 * k, f.detections if k % 3 else (), f.radar if k % 3 else ())
        for k, f in enumerate(frames)
    ]


def _crossing(rng):
    scene = generate(crossing_scenario(depth_gap=10.0, seed=int(rng.integers(0, 1000))))
    return scene.frames


def _random(rng):
    return random_tracking_frames(rng, CAM, 25)


REFERENCE_CASES = {
    "dense": (TrackerConfig(), CAM, lambda rng: dense_frames(rng, CAM, 8), 1),
    "dense, empty frames and gaps": (TrackerConfig(max_age=5), CAM, _dense_with_empty_frames_and_gaps, 1),
    "crossing": (TrackerConfig(), CAM, _crossing, 4),
    "random": (TrackerConfig(), CAM, _random, 12),
    "min_confidence": (TrackerConfig(min_confidence=0.4), CAM, _random, 12),
    "max_age 1": (TrackerConfig(max_age=1), CAM, _random, 12),
    "fusion off": (cfg(), CAM, _random, 12),
    "fusion off, no camera": (cfg(max_age=2), None, _random, 12),
}


def test_radar_given_as_points_rows_or_array_is_one_frame():
    rng = np.random.default_rng(5)
    trackers = [Tracker(TrackerConfig(), CAM) for _ in range(3)]
    fused = 0
    for f in dense_frames(rng, CAM, 4):
        rows = f.radar.tolist()
        frames = [
            FrameInput(f.frame_index, f.timestamp, f.detections, radar)
            for radar in ([RadarPoint(*row) for row in rows], rows, np.array(rows))
        ]
        assert frames[0] == frames[1] == frames[2]
        assert hash(frames[0]) == hash(frames[1]) == hash(frames[2])
        results = [tracker.step(frame) for tracker, frame in zip(trackers, frames)]
        assert _bits(results[0]) == _bits(results[1]) == _bits(results[2])
        fused += sum(t.fused for t in results[0].tracks)
    assert fused > 0


def test_frame_radar_is_a_checked_read_only_array():
    source = np.ones((2, 5))
    frame = FrameInput(0, 0.0, (), source)
    source[0, 0] = 7.0
    assert frame.radar.dtype == np.float64 and frame.radar[0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        frame.radar[0, 0] = 9.0
    assert FrameInput(0, 0.0, ()).radar.shape == (0, 5)
    assert frame != FrameInput(0, 0.0, (), np.ones((3, 5)))
    for bad in ([(1.0, 2.0, 3.0, 4.0)], np.zeros(5), np.zeros((2, 6))):
        with pytest.raises(ValueError):
            FrameInput(0, 0.0, (), bad)
    for bad in (np.zeros(5), np.zeros((2, 6)), np.zeros((2, 5, 1)), np.zeros((2, 1, 5))):  # arrays of other shapes
        with pytest.raises(ValueError) as err:
            FrameInput(0, 0.0, (), bad)
        assert str(err.value) == f"radar rows must hold 5 values (x, y, z, vx, vy), got an array of shape {bad.shape}"
    assert FrameInput(0, 0.0, (), np.zeros((0, 3))).radar.shape == (0, 5)
    good = (1.0, 2.0, 3.0, 4.0, 5.0)
    for row in ((), good[:4], good + (6.0,), np.zeros(6)):  # rows of other than 5 values, named by the rule
        with pytest.raises(ValueError, match=rf"^radar row 2: expected 5 values \(x, y, z, vx, vy\), got {len(row)}$"):
            FrameInput(0, 0.0, (), [good, RadarPoint(*good), row, good])
    with pytest.raises(ValueError, match="finite"):
        FrameInput(0, 0.0, (), [(1.0, 2.0, math.inf, 4.0, 5.0)])


def _simulate_write_read_track(tmp_path, monkeypatch, classes):
    """The class names constructed while generate -> write_replay ->
    read_replay -> run_sequence runs, and its results."""
    built = []
    for cls in classes:
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    RadarPoint(1.0, 0.0, 0.0, 0.0, 0.0)
    det(100.0, 100.0)
    assert built == [cls.__name__ for cls in (RadarPoint, Detection) if cls in classes]  # the counter sees them
    built.clear()

    scene = generate(crossing_scenario(depth_gap=10.0, seed=3))
    path = str(tmp_path / "replay.jsonl")
    write_replay(path, scene.frames)
    results, _ = run_sequence(read_replay(path), TrackerConfig(), scene.config.camera)
    assert any(t.fused for result in results for t in result.tracks)
    return built


def test_simulate_to_track_builds_no_radar_objects(tmp_path, monkeypatch):
    assert _simulate_write_read_track(tmp_path, monkeypatch, (RadarPoint, Pillar)) == []


def test_simulate_to_track_builds_no_detection_objects(tmp_path, monkeypatch):
    assert _simulate_write_read_track(tmp_path, monkeypatch, (Detection,)) == []


def test_detections_given_as_objects_rows_or_batch_are_one_frame():
    rng = np.random.default_rng(9)
    frames = dense_frames(rng, CAM, 3) + random_tracking_frames(rng, CAM, 30)
    unboxed = 0
    for k, f in enumerate(frames):
        if k in (0, 3):  # each sequence starts at its own frame index
            trackers = [Tracker(TrackerConfig(min_confidence=0.3), CAM) for _ in range(3)]
        rows = f.detections.rows()
        unboxed += sum(row[-1] is None for row in rows)
        given = ([Detection(*row) for row in rows], rows, DetectionBatch(*f.detections.columns()))
        same = [FrameInput(f.frame_index, f.timestamp, dets, f.radar) for dets in given]
        assert same[0] == same[1] == same[2] == f
        assert hash(same[0]) == hash(same[1]) == hash(same[2]) == hash(f)
        assert _column_bits(same[0].detections) == _column_bits(same[1].detections) == _column_bits(same[2].detections)
        results = [tracker.step(frame) for tracker, frame in zip(trackers, same)]
        assert _bits(results[0]) == _bits(results[1]) == _bits(results[2])
    assert unboxed > 0


def test_frame_detections_are_checked_read_only_copies():
    rows = [(400.0, 224.0, 20.0, 0.0, 0.0, 0, 0.9, 0.0, 0.0, (380.0, 204.0, 420.0, 244.0)),
            (100.0, 100.0, 30.0, 1.0, 2.0, -4, 1.0, 0.5, 0.5, None)]
    source = DetectionBatch.from_detections(rows)
    source = DetectionBatch(*(column.copy() for column in source.columns()))  # writable
    frame = FrameInput(0, 0.0, source, [RadarPoint(19.0, 0.0, 0.0, 3.0, 1.0)])
    source.u[0] = 7.0
    assert frame.detections.rows() == rows
    for column in frame.detections.columns():
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    before = _column_bits(frame.detections)
    boxed, unboxed = sorted(Tracker(TrackerConfig(), CAM).step(frame).tracks, key=lambda t: -t.u)
    assert boxed.fused and boxed.depth == pytest.approx(19.0) and not unboxed.fused
    assert _column_bits(frame.detections) == before
    assert frame.detections.rows() == rows
    assert repr(frame).count("DetectionBatch(u=[400.0, 100.0]") == 1

    # Rows of the wrong length, or boxes of other than 4 values, fail by the
    # rule, naming the row, rather than being cut short or failing in numpy.
    for bad, message in [
        (rows[1][:9], "detection row 1: expected 10 values, got 9"),
        (rows[1] + (0.5,), "detection row 1: expected 10 values, got 11"),
        (rows[0][:9] + ((380.0, 204.0, 420.0),), "detection row 1: bbox must hold 4 values, got 3"),
        (rows[0][:9] + ((380.0, 204.0, 420.0, 244.0, 1.0),), "detection row 1: bbox must hold 4 values, got 5"),
    ]:
        with pytest.raises(ValueError) as err:
            FrameInput(0, 0.0, [rows[0], bad, rows[1]])
        assert str(err.value) == message


@pytest.mark.parametrize("case", list(REFERENCE_CASES))
def test_columnar_step_matches_object_reference(case):
    config, camera, make_frames, sequences = REFERENCE_CASES[case]
    rng = np.random.default_rng(sorted(REFERENCE_CASES).index(case))
    for _ in range(sequences):
        frames = make_frames(rng)
        fast = Tracker(config, camera, record_association=True)
        slow = ReferenceTracker(config, camera, record_association=True)
        for frame in frames:
            assert _bits(fast.step(frame)) == _bits(slow.step(frame)), f"frame {frame.frame_index}"
            assert _bits(fast.live_tracks) == _bits(slow.live_tracks), f"frame {frame.frame_index}"
            (dets, tracks, result), (slow_dets, slow_tracks, slow_result) = fast.last_association, slow.last_association
            assert _column_bits(dets) == _column_bits(DetectionBatch.from_detections(slow_dets)), f"frame {frame.frame_index}"
            assert _column_bits(tracks) == _column_bits(TrackTable.from_tracks(slow_tracks)), f"frame {frame.frame_index}"
            assert _bits(result) == _bits(slow_result), f"frame {frame.frame_index}"


_SNAPSHOT_TYPES = [int, float, float, float, float, float, int, float, int, bool]


@pytest.mark.parametrize("camera", [CAM, None], ids=["camera", "no camera"])
def test_step_and_constructor_results_agree(camera):
    """A step hands over its columns; FrameResult(frame_index, timestamp,
    tracks) transposes snapshots into the same columns. Both compare, hash
    and give back the same snapshots, of Python types, and both refuse a
    repeated track id."""
    tracker = Tracker(TrackerConfig(fusion_enabled=camera is not None), camera)
    frames = dense_frames(np.random.default_rng(5), CAM, 4)
    for f in frames:
        result = tracker.step(f)
        rebuilt = FrameResult(result.frame_index, result.timestamp, result.tracks)
        assert rebuilt == result and hash(rebuilt) == hash(result)
        assert _bits(rebuilt.tracks) == _bits(result.tracks)
        assert len(result.tracks) == len(f.detections)
        for snapshot in result.tracks + rebuilt.tracks:
            assert [type(value) for value in snapshot[:10]] == _SNAPSHOT_TYPES
            if camera is None:
                assert snapshot.position is None
            else:
                assert type(snapshot.position) is tuple and list(map(type, snapshot.position)) == [float] * 3

    first, second = result.tracks[:2]
    with pytest.raises(ValueError, match="^track ids must be unique within a frame$"):
        FrameResult(0, 0.0, [first, second._replace(track_id=first.track_id)])
    tracker._tracks.track_id[1] = tracker._tracks.track_id[0]  # a table that breaks its own rule
    with pytest.raises(ValueError, match="^track ids must be unique within a frame$"):
        tracker._report(frames[-1])


def test_result_from_any_iterable_is_frozen_and_hashable():
    """A result keeps its own read-only columns whatever iterable of
    snapshots it was built from, so results from a list, a tuple and a
    generator of the same snapshots are equal, with equal hashes."""
    with_position = TrackSnapshot(3, 1.0, 2.0, 3.0, 0.0, -0.0, 1, 0.5, 2, True, (1.0, -2.0, 3.0))
    without = TrackSnapshot(1, 4.0, 5.0, 6.0, 0.5, 0.25, 0, 0.75, 1, False, None)
    snapshots = [with_position, without]
    from_list = FrameResult(0, 0.0, snapshots)
    snapshots.append(without._replace(track_id=2))  # changes nothing built before
    from_tuple, from_iterator = FrameResult(0, 0.0, tuple(snapshots[:2])), FrameResult(0, 0.0, iter(snapshots[:2]))
    assert from_list == from_tuple == from_iterator
    assert hash(from_list) == hash(from_tuple) == hash(from_iterator)
    assert hash(FrameResult(0, 0.0, [])) == hash(FrameResult(0, 0.0, ()))
    assert from_list.tracks == (with_position, without)
    with pytest.raises(FrozenInstanceError):
        from_list.tracks = ()
    for column in (from_list.track_id, from_list.u, from_list.fused, from_list.position, from_list.has_position):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(ValueError):  # a position of other than 3 values
        FrameResult(0, 0.0, [without._replace(position=(1.0, 2.0))])

    # A NaN position is a position: kept apart from a missing one, and the
    # result's hash stays the same from one call to the next.
    nan = FrameResult(0, 0.0, [with_position._replace(position=(math.nan, 0.0, 0.0)), without])
    (kept, missing) = nan.tracks
    assert math.isnan(kept.position[0]) and missing.position is None
    assert hash(nan) == hash(nan)


def test_copies_of_frames_are_equal_read_only_and_screened():
    """copy.copy, copy.deepcopy and a pickle round trip of a frame input, a
    result, a ground-truth frame and a predicted frame give an equal frame
    with an equal hash, every column read-only; a copy of a frame broken in
    place is screened again and refused."""
    snapshots = [TrackSnapshot(3, 1.0, 2.0, 3.0, 0.0, -0.0, 1, 0.5, 2, True, (1.0, -2.0, 3.0)),
                 TrackSnapshot(4, 4.0, 5.0, 6.0, 0.5, 0.25, 0, 0.75, 1, False, None)]
    frames = [
        FrameInput(2, 0.2, [det(400.0, 224.0, bbox=(380.0, 204.0, 420.0, 244.0)), det(100.0, 100.0, cls=2)],
                   [RadarPoint(19.0, 0.0, 0.0, 3.0, 1.0)]),
        FrameResult(2, 0.2, snapshots),
        GroundTruthFrame(2, [GroundTruthObject(1, 0.5, -1.0, 0), GroundTruthObject(2, 3.0, 4.0, 1)]),
        PredictedFrame(2, [PredictedObject(7, 0.5, -1.0, 0, 0.9), PredictedObject(7, 3.0, 4.0, 1, 0.0)]),
    ]
    for original in frames:
        for copied in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            assert copied == original and hash(copied) == hash(original)
            columns = [*copied.detections.columns(), copied.radar] if type(copied) is FrameInput else copied.columns
            assert len(columns) >= 4 and not any(column.flags.writeable for column in columns), type(copied).__name__
    state = copy.copy(frames[2].__dict__)
    state["gt_id"] = np.array([1, 1])  # a state that the frame's screen refuses
    with pytest.raises(ValueError, match="duplicate ground-truth ids"):
        GroundTruthFrame.__new__(GroundTruthFrame).__setstate__(state)
