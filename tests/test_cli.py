"""Command-line surface: simulate/track/evaluate/sweep plumbing, determinism,
flag precedence, and error exits. Commands run in-process through cli.main;
one test drives the installed module entry point for real."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fusetrack.cli
import fusetrack.fileio
import fusetrack.fusion
import fusetrack.tracker
from fusetrack.association import AssociationResult, CostWeights
from fusetrack.cli import _format_report, main
from fusetrack.fileio import (
    ParseError,
    config_to_dict,
    load_yaml,
    read_ground_truth,
    read_replay,
    read_results,
    results_to_predictions,
    save_yaml,
    write_results,
)
from fusetrack.geometry import CameraModel
from fusetrack.metrics import amota
from fusetrack.simulator import (
    NoiseModel,
    ObjectSpec,
    RadarModel,
    ScenarioConfig,
    crossing_scenario,
    generate,
)
from fusetrack.tracker import TrackerConfig, run_sequence
from reader_fuzz import Invalid, fuzz_lines, reference_record
from track_memory import repeat_replay

CROSSING_CONFIG = str(Path(__file__).parent.parent / "configs" / "crossing.yaml")
CROSSING_SEED = 8  # seed whose pixel-only ablation loses AMOTA (deterministic)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scenario yaml + simulated scene files, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scenario = str(root / "crossing.yaml")
    save_yaml(scenario, crossing_scenario(10.0, seed=CROSSING_SEED).to_dict())
    assert main(["simulate", scenario, "--out", str(root / "scene")]) == 0
    return root


def replay_path(workdir) -> str:
    return str(workdir / "scene" / "replay.jsonl")


def gt_path(workdir) -> str:
    return str(workdir / "scene" / "ground_truth.jsonl")


def scenario_path(workdir) -> str:
    return str(workdir / "crossing.yaml")


def overall_row(report: str):
    """AMOTA..GT columns of the report's aggregate row, as strings."""
    for line in report.splitlines():
        if line.startswith("overall"):
            return line.split()[1:]
    raise AssertionError(f"no overall row in:\n{report}")


# ------------------------------------------------------------------ simulate

def test_simulate_writes_scene_files(workdir):
    cfg_frames = crossing_scenario(10.0, seed=CROSSING_SEED).num_frames
    with open(replay_path(workdir)) as fh:
        assert sum(1 for _ in fh) == cfg_frames
    assert os.path.exists(gt_path(workdir))


def test_simulate_same_seed_byte_identical(workdir, tmp_path):
    assert main(["simulate", scenario_path(workdir), "--out", str(tmp_path / "again")]) == 0
    for name in ("replay.jsonl", "ground_truth.jsonl"):
        a = (workdir / "scene" / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b


def test_simulate_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: [unclosed\n")
    out = tmp_path / "out"
    assert main(["simulate", str(bad), "--out", str(out)]) != 0
    assert "error:" in capsys.readouterr().err
    assert not out.exists()  # no partial output


def test_simulate_incomplete_config(tmp_path, capsys):
    cfg = tmp_path / "partial.yaml"
    cfg.write_text("seed: 1\nnum_frames: 5\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_config_dir_env_var(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("FUSETRACK_CONFIG_DIR", str(workdir))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "crossing.yaml", "--out", "envscene"]) == 0
    a = (tmp_path / "envscene" / "replay.jsonl").read_bytes()
    b = Path(replay_path(workdir)).read_bytes()
    assert a == b


# --------------------------------------------------------------------- track

def test_track_single_object_keeps_one_id(tmp_path):
    camera_cfg = crossing_scenario(10.0, seed=0)
    quiet = ScenarioConfig(
        seed=5,
        num_frames=30,
        frame_dt=0.1,
        camera=camera_cfg.camera,
        objects=(ObjectSpec(0, (30.0, 0.0, 0.0), (1.0, 0.5, 0.0)),),
        noise=NoiseModel.none(),
        radar=RadarModel(points_per_object=0, position_sigma_m=0.0, velocity_sigma_mps=0.0, clutter_per_frame=0),
    )
    scenario = str(tmp_path / "quiet.yaml")
    save_yaml(scenario, quiet.to_dict())
    assert main(["simulate", scenario, "--out", str(tmp_path / "scene")]) == 0
    out = str(tmp_path / "results.jsonl")
    rc = main(["track", str(tmp_path / "scene" / "replay.jsonl"), "--no-fusion", "--out", out])
    assert rc == 0
    results = read_results(out)
    assert len(results) == 30
    for frame in results:
        assert [t.track_id for t in frame.tracks] == [1]


def test_track_flag_ablation_matches_library(workdir, tmp_path):
    out = str(tmp_path / "ablation.jsonl")
    rc = main(
        ["track", replay_path(workdir), "--no-fusion", "--beta", "0", "--delta", "0", "--out", out]
    )
    assert rc == 0
    config = TrackerConfig(weights=CostWeights(beta=0.0, delta=0.0), fusion_enabled=False)
    scene = generate(crossing_scenario(10.0, seed=CROSSING_SEED))
    expected, _ = run_sequence(scene.frames, config)
    ref = str(tmp_path / "reference.jsonl")
    write_results(ref, expected)
    assert Path(out).read_bytes() == Path(ref).read_bytes()


def test_track_empty_replay(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = str(tmp_path / "results.jsonl")
    assert main(["track", str(empty), "--no-fusion", "--out", out]) == 0
    assert Path(out).read_text() == ""
    assert "latency over 0 steps" in capsys.readouterr().err


def test_track_parse_error_names_line(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"frame": 0, "time": 0.0, "detections": [], "radar": []}\nnope\n')
    assert main(["track", str(corrupt), "--no-fusion"]) == 1
    assert ":2:" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["replay", "config"])
def test_track_invalid_utf8_names_file_and_line(workdir, tmp_path, capsys, bad_file):
    replay, config = tmp_path / "replay.jsonl", tmp_path / "tracker.yaml"
    replay.write_bytes(Path(replay_path(workdir)).read_bytes())
    config.write_bytes(b"max_age: 3\n")
    bad = {"replay": replay, "config": config}[bad_file]
    text = bad.read_bytes().split(b"\n")
    text[1] = b"\xff" + text[1]
    bad.write_bytes(b"\n".join(text))
    assert main(["track", str(replay), "--config", str(config), "--no-fusion", "--out", str(tmp_path / "out.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: invalid UTF-8: byte 0xff at offset 0 of the line")


def test_track_integer_beyond_int64_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    det = {"u": 100.0, "v": 320.0, "depth": 20.0, "vx": 0.0, "vy": 0.0, "class": 2**70, "confidence": 0.9}
    bad.write_text(json.dumps({"frame": 0, "time": 0.0, "detections": [det], "radar": []}) + "\n")
    assert main(["track", str(bad), "--no-fusion"]) == 1
    assert "bad.jsonl:1:" in capsys.readouterr().err


def test_track_streams_to_stdout(workdir, capsys):
    rc = main(["track", replay_path(workdir), "--scene", scenario_path(workdir)])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 41
    first = json.loads(lines[0])
    assert first["frame"] == 0 and "tracks" in first
    assert "median" in captured.err  # latency goes to stderr only


def test_track_file_stdout_and_library_bytes_agree(tmp_path, capsys):
    """On configs/crossing.yaml, track --out FILE, track --out - and
    write_results of the library's run_sequence give the same bytes."""
    assert main(["simulate", CROSSING_CONFIG, "--out", str(tmp_path / "scene")]) == 0
    replay = str(tmp_path / "scene" / "replay.jsonl")
    to_file, library = tmp_path / "results.jsonl", tmp_path / "library.jsonl"
    assert main(["track", replay, "--scene", CROSSING_CONFIG, "--out", str(to_file)]) == 0
    capsys.readouterr()
    assert main(["track", replay, "--scene", CROSSING_CONFIG, "--out", "-"]) == 0
    to_stdout = capsys.readouterr().out
    camera = CameraModel.from_dict(load_yaml(CROSSING_CONFIG)["camera"])
    write_results(str(library), run_sequence(read_replay(replay), TrackerConfig(), camera)[0])
    assert to_file.read_text().count("\n") == 41
    assert to_file.read_bytes() == library.read_bytes() == to_stdout.encode()


def test_track_builds_no_track_snapshot(tmp_path, monkeypatch):
    """track --scene writes each result line from the step's columns: no
    TrackSnapshot is built between the replay and the results file, while
    reading the file back builds one per track."""
    assert main(["simulate", CROSSING_CONFIG, "--out", str(tmp_path / "scene")]) == 0
    calls = []
    for module in (fusetrack.tracker, fusetrack.fileio):  # the modules that build snapshots
        build = module._snapshot_from_row
        monkeypatch.setattr(module, "_snapshot_from_row", lambda row, build=build: calls.append(1) or build(row))
    out = str(tmp_path / "results.jsonl")
    assert main(["track", str(tmp_path / "scene" / "replay.jsonl"), "--scene", CROSSING_CONFIG, "--out", out]) == 0
    assert calls == []
    tracks = sum(len(result.tracks) for result in read_results(out))
    assert tracks > 0 and len(calls) == 2 * tracks  # once by the reader, once by .tracks


def test_track_builds_no_radar_match_and_no_match_tuples(tmp_path, monkeypatch):
    """track --scene fuses from associate_boxes' winner columns and updates
    tracks from the association's arrays: no RadarMatch is built, and no
    tuple of matches or unmatched ids. The counting stand-ins are live:
    iterating the winners builds one RadarMatch per hit."""
    assert main(["simulate", CROSSING_CONFIG, "--out", str(tmp_path / "scene")]) == 0
    built, returned = [], []
    build = fusetrack.fusion.RadarMatch
    monkeypatch.setattr(fusetrack.fusion, "RadarMatch", lambda *values: built.append(1) or build(*values))
    for name in ("matches", "unmatched_detections", "unmatched_tracks"):
        tuples = getattr(AssociationResult, name)
        monkeypatch.setattr(AssociationResult, name, property(lambda r, t=tuples: built.append(1) or t.fget(r)))
    associate = fusetrack.tracker.associate_boxes
    monkeypatch.setattr(fusetrack.tracker, "associate_boxes", lambda *a: returned.append(associate(*a)) or returned[-1])
    out = str(tmp_path / "results.jsonl")
    assert main(["track", str(tmp_path / "scene" / "replay.jsonl"), "--scene", CROSSING_CONFIG, "--out", out]) == 0
    assert built == []
    winners = sum(len(won.box) for won in returned)
    assert winners > 0 and sum(match is not None for won in returned for match in won) == winners == len(built)


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    """main builds its argparse parser once per process. A valid command,
    a bad flag (exit 2) and another valid command in one process print
    what they print with a fresh parser for each call."""
    scene = tmp_path / "scene"
    assert main(["simulate", CROSSING_CONFIG, "--out", str(scene)]) == 0
    results = str(tmp_path / "results.jsonl")
    assert main(["track", str(scene / "replay.jsonl"), "--scene", CROSSING_CONFIG, "--out", results]) == 0
    commands = (
        ["evaluate", results, str(scene / "ground_truth.jsonl")],
        ["evaluate", results, str(scene / "ground_truth.jsonl"), "--num-thresholds", "many"],
        ["simulate", CROSSING_CONFIG, "--out", str(scene)],
    )

    def run_all():
        capsys.readouterr()
        return [(main(list(argv)), *capsys.readouterr()) for argv in commands]

    reused = run_all()
    assert fusetrack.cli._build_parser() is fusetrack.cli._build_parser()
    monkeypatch.setattr(fusetrack.cli, "_build_parser", fusetrack.cli._build_parser.__wrapped__)
    assert [code for code, _, _ in reused] == [0, 2, 0]
    assert "invalid int value: 'many'" in reused[1][2]
    assert reused == run_all()


@pytest.mark.parametrize("bad_line", [1, 2, 30])
def test_track_bad_replay_line_keeps_the_results_before_it(workdir, tmp_path, capsys, bad_line):
    """A bad replay line k exits 1 with the reader's message, naming path:k,
    and leaves the library's first k - 1 result lines."""
    lines = Path(replay_path(workdir)).read_text().splitlines(keepends=True)
    lines[bad_line - 1] = lines[bad_line - 1].replace('"time":', '"tme":', 1)
    replay, out, full = tmp_path / "replay.jsonl", tmp_path / "results.jsonl", tmp_path / "full.jsonl"
    replay.write_text("".join(lines))
    with pytest.raises(ParseError) as err:
        read_replay(str(replay))
    assert main(["track", str(replay), "--scene", scenario_path(workdir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert str(err.value).startswith(f"{replay}:{bad_line}: bad frame: missing field 'time'")
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", str(full)]) == 0
    assert out.read_bytes() == b"".join(full.read_bytes().splitlines(keepends=True)[: bad_line - 1])


@pytest.mark.parametrize("command", ["track-file", "track-stdout", "sweep"])
@pytest.mark.parametrize("rule", ["frame", "time"])
def test_a_frame_out_of_order_names_its_line(workdir, tmp_path, capsys, rule, command):
    """A replay line k that reads but breaks the frame order (an index not
    after the last one, a time before it) fails as a bad line does: path:k,
    exit status 1, and from track the full run's first k - 1 result lines."""
    bad_line = 5
    lines = Path(replay_path(workdir)).read_text().splitlines(keepends=True)
    record, before = json.loads(lines[bad_line - 1]), json.loads(lines[bad_line - 2])
    if rule == "frame":  # as in frames 0, 2, 1
        record["frame"] = before["frame"] - 1
        message = f"frame {before['frame'] - 1} is not after frame {before['frame']}"
    else:
        record["time"] = before["time"] - 0.05
        message = "timestamps must be non-decreasing"
    lines[bad_line - 1] = json.dumps(record) + "\n"
    replay, out, full = tmp_path / "replay.jsonl", tmp_path / "results.jsonl", tmp_path / "full.jsonl"
    replay.write_text("".join(lines))
    assert len(read_replay(str(replay))) == len(lines)  # every line reads
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", str(full)]) == 0
    capsys.readouterr()
    if command == "sweep":
        argv = ["sweep", str(replay), gt_path(workdir), "--scene", scenario_path(workdir)]
    else:
        argv = ["track", str(replay), "--scene", scenario_path(workdir), "--out", str(out) if command == "track-file" else "-"]
    assert main(argv) == 1
    stdout, stderr = capsys.readouterr()
    assert stderr == f"error: {replay}:{bad_line}: bad frame: {message}\n"
    written = out.read_text() if command == "track-file" else stdout
    kept = "".join(full.read_text().splitlines(keepends=True)[: bad_line - 1])
    assert written == ("" if command == "sweep" else kept)


@pytest.mark.parametrize("replay", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_track_unreadable_replay_creates_no_results(tmp_path, capsys, replay):
    out = tmp_path / "results.jsonl"
    assert main(["track", str(tmp_path / replay), "--no-fusion", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_track_fuzzed_replay_fails_as_the_reader_does(workdir, tmp_path, capsys):
    """A sample of fuzzed replays (tests/reader_fuzz.py) through track
    --no-fusion: a line the reader rejects fails with read_replay's message,
    after one result line for each frame before it."""
    source = Path(replay_path(workdir)).read_text().splitlines()[:8]
    replay, out = tmp_path / "replay.jsonl", tmp_path / "results.jsonl"
    failed = 0
    for index, line, mutation in list(fuzz_lines(seed=7, lines=source, trials=250))[::8]:
        replay.write_text("\n".join(source[:index] + [line] + source[index + 1:]) + "\n")
        code = main(["track", str(replay), "--no-fusion", "--out", str(out)])
        err = capsys.readouterr().err
        try:
            reference_record("replay", line)
        except Invalid:
            with pytest.raises(ParseError) as expected:
                read_replay(str(replay))
            assert (code, err) == (1, f"error: {expected.value}\n"), (mutation, line)
            assert out.read_text().count("\n") == index, (mutation, line)
            failed += 1
        else:  # a valid line may still break the frame order, which the tracker refuses
            assert out.read_text().count("\n") == (len(source) if code == 0 else index), (mutation, line, err)
    assert failed >= 10


def test_track_memory_does_not_grow_with_the_sequence(workdir, tmp_path):
    """The traced peak of track on ten frames repeated ten times stays within
    1.1x of the ten frames' peak: memory is bounded by the live tracks, not by
    the length of the sequence.

    CPython keeps up to 2,000 freed tuples of each small size for reuse, and
    a tuple built from an iterator of unknown length is freed at another size
    than it was taken at. Without the spare tuples freed below, those lists
    would fill with traced blocks as the run goes on and count as growth."""
    short = tmp_path / "short.jsonl"
    short.write_text("".join(Path(replay_path(workdir)).read_text().splitlines(keepends=True)[:10]))
    peaks = []
    for times in (1, 10):
        replay = str(tmp_path / f"replay_x{times}.jsonl")
        assert repeat_replay(str(short), replay, times) == 10 * times
        spare = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
        del spare
        tracemalloc.start()
        try:
            assert main(["track", replay, "--scene", scenario_path(workdir), "--out", str(tmp_path / "out.jsonl")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_track_fusion_without_camera_fails(workdir, capsys):
    assert main(["track", replay_path(workdir)]) == 2
    assert "--no-fusion" in capsys.readouterr().err


def test_config_file_with_flag_override(workdir, tmp_path):
    cfg = TrackerConfig(
        weights=CostWeights(beta=0.0, delta=0.0), max_age=1, fusion_enabled=False
    )
    cfg_path = str(tmp_path / "tracker.yaml")
    save_yaml(cfg_path, config_to_dict(cfg))
    out = str(tmp_path / "flagged.jsonl")
    # flag wins over the file for beta; everything else comes from the file
    rc = main(["track", replay_path(workdir), "--config", cfg_path, "--beta", "0.04", "--out", out])
    assert rc == 0
    merged = TrackerConfig(
        weights=CostWeights(beta=0.04, delta=0.0), max_age=1, fusion_enabled=False
    )
    scene = generate(crossing_scenario(10.0, seed=CROSSING_SEED))
    expected, _ = run_sequence(scene.frames, merged)
    ref = str(tmp_path / "reference.jsonl")
    write_results(ref, expected)
    assert Path(out).read_bytes() == Path(ref).read_bytes()


@pytest.mark.parametrize(
    "config, named",
    [
        ("weights:\n  gama: 1.0\n", ["'weights'", "'gama'"]),
        ("pillar_dims:\n  width: 0.5\n", ["'pillar_dims'", "'width'"]),
        ("pillar_dims: [1, 2]\n", ["'pillar_dims'", "mapping"]),
        ("weights: 0.5\n", ["'weights'", "mapping"]),
    ],
    ids=["unknown-weights-key", "unknown-pillar-key", "pillar-dims-list", "weights-scalar"],
)
def test_bad_config_section_is_a_clean_error(workdir, tmp_path, capsys, config, named):
    cfg_path = tmp_path / "tracker.yaml"
    cfg_path.write_text(config)
    track = ["track", replay_path(workdir), "--no-fusion", "--config", str(cfg_path)]
    sweep = ["sweep", replay_path(workdir), gt_path(workdir), "--scene", scenario_path(workdir), "--config", str(cfg_path)]
    for argv in (track, sweep):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(word in err for word in named)


@pytest.mark.parametrize(
    "section, value, named",
    [
        ("noise", {"center_pix": 1.0}, ["'center_pix'", "'noise'"]),
        ("radar", {"points": 3}, ["'points'", "'radar'"]),
        ("occlusion", {"iou": 0.5}, ["'iou'", "'occlusion'"]),
        ("radar", 3, ["'radar'", "mapping"]),
        ("noise", [1.0, 2.0], ["'noise'", "mapping"]),
    ],
    ids=["unknown-noise-key", "unknown-radar-key", "unknown-occlusion-key", "radar-scalar", "noise-list"],
)
def test_bad_scenario_section_is_a_clean_error(tmp_path, capsys, section, value, named):
    data = crossing_scenario(10.0, seed=CROSSING_SEED).to_dict()
    data[section] = value
    path = tmp_path / "scenario.yaml"
    save_yaml(str(path), data)
    assert main(["simulate", str(path), "--out", str(tmp_path / "scene")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(word in err for word in named)
    assert not (tmp_path / "scene").exists()


@pytest.mark.parametrize(
    "command, edit, named",
    [
        ("track", lambda data: {"weights": {"alpha": "0.1"}}, "'alpha'"),
        ("track", lambda data: {"fusion_enabled": "false"}, "'fusion_enabled'"),
        ("simulate", lambda data: {**data, "radar": {"points_per_object": "3"}}, "'points_per_object'"),
        ("simulate", lambda data: {k: v for k, v in data.items() if k != "seed"}, "missing field 'seed'"),
        ("simulate", lambda data: {**data, "num_frames": 3.7}, "'num_frames'"),
        ("track", lambda data: {"weights": {"alpha": math.nan}}, "'weights': cost weights must be finite"),
        ("track", lambda data: {"pillar_dims": {"depth_x": math.inf}}, "'pillar_dims': pillar dimensions must be finite"),
        ("simulate", lambda data: {**data, "noise": {**data["noise"], "center_px": math.nan}}, "'noise': noise sigmas"),
        ("simulate", lambda data: {**data, "radar": {**data["radar"], "velocity_sigma_mps": math.inf}}, "'radar': radar"),
        ("simulate", lambda data: {**data, "frame_dt": math.inf}, "frame_dt must be finite"),
    ],
    ids=["weight-string", "fusion-string", "radar-count-string", "scenario-without-seed", "frame-count-float",
         "weight-nan", "pillar-depth-inf", "noise-nan", "radar-sigma-inf", "frame-dt-inf"],
)
def test_mistyped_config_value_names_file_and_key(workdir, tmp_path, capsys, command, edit, named):
    path = tmp_path / "config.yaml"
    save_yaml(str(path), edit(crossing_scenario(10.0, seed=CROSSING_SEED).to_dict()))
    if command == "track":
        argv = ["track", replay_path(workdir), "--no-fusion", "--config", str(path)]
    else:
        argv = ["simulate", str(path), "--out", str(tmp_path / "scene")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--alpha", "nan"], "cost weights"), (["--alpha", "inf"], "cost weights"), (["--beta=-inf"], "cost weights"),
     (["--pillar-width", "nan"], "pillar dimensions"), (["--radius", "inf"], None)],
    ids=["alpha-nan", "alpha-inf", "beta-minus-inf", "pillar-width-nan", "radius-inf-is-gate-free"],
)
def test_non_finite_tuning_flag_is_rejected(workdir, tmp_path, capsys, flags, message):
    argv = ["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", str(tmp_path / "out.jsonl")]
    code = main(argv + flags)
    err = capsys.readouterr().err
    if message is None:
        assert code == 0
    else:
        assert code == 1 and err.startswith(f"error: {message} must be finite")


@pytest.mark.parametrize("count, message", [("0", "at least 1, got 0"), ("-1", "at least 1, got -1"), ("two", "integer")])
@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_worker_count_below_one_is_rejected(workdir, capsys, command, count, message):
    argv = [command, "results.jsonl", gt_path(workdir), "--workers", count]
    if command == "sweep":
        argv[1:2] = [replay_path(workdir)]
        argv += ["--scene", scenario_path(workdir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "argument --workers" in err and message in err


# ------------------------------------------------------------------ evaluate

def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def perfect_files(tmp_path):
    """Five frames, two objects, predictions glued to the ground truth."""
    gt, res = [], []
    for k in range(5):
        objs = [
            {"id": 1, "x": 10.0 + k, "y": 0.0, "class": 0},
            {"id": 2, "x": 20.0, "y": 5.0 - k, "class": 1},
        ]
        gt.append({"frame": k, "objects": objs})
        res.append(
            {
                "frame": k,
                "time": 0.1 * k,
                "tracks": [
                    {
                        "id": 10 + o["id"], "u": 0.0, "v": 0.0, "depth": 1.0,
                        "vx": 0.0, "vy": 0.0, "class": o["class"],
                        "confidence": 0.9, "fused": False,
                        "x": o["x"], "y": o["y"], "z": 0.0,
                    }
                    for o in objs
                ],
            }
        )
    gt_file, res_file = str(tmp_path / "gt.jsonl"), str(tmp_path / "res.jsonl")
    write_jsonl(gt_file, gt)
    write_jsonl(res_file, res)
    return res_file, gt_file


def test_evaluate_perfect_results(tmp_path, capsys):
    res_file, gt_file = perfect_files(tmp_path)
    assert main(["evaluate", res_file, gt_file]) == 0
    row = overall_row(capsys.readouterr().out)
    assert row[0] == "1.0000"  # AMOTA
    assert row[1] == "0.0000"  # AMOTP
    assert row[6] == "10"      # GT observations


def test_evaluate_matches_library(workdir, tmp_path, capsys):
    out = str(tmp_path / "results.jsonl")
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", out]) == 0
    assert main(["evaluate", out, gt_path(workdir)]) == 0
    report_amota = overall_row(capsys.readouterr().out)[0]
    scene = generate(crossing_scenario(10.0, seed=CROSSING_SEED))
    results, _ = run_sequence(scene.frames, TrackerConfig(), scene.config.camera)
    expected = amota(results_to_predictions(results), list(scene.ground_truth))
    assert report_amota == f"{expected.amota:.4f}"


def test_evaluate_class_names_filter(tmp_path, capsys):
    res_file, gt_file = perfect_files(tmp_path)
    assert main(["evaluate", res_file, gt_file, "--classes", "car"]) == 0
    report = capsys.readouterr().out
    assert "car" in report
    assert "class 1" not in report  # unnamed ids are hidden
    assert overall_row(report)[6] == "10"  # aggregate still counts everything


def test_evaluate_misalignment_names_frame(tmp_path, capsys):
    res_file, gt_file = perfect_files(tmp_path)
    records = [json.loads(line) for line in Path(gt_file).read_text().splitlines()]
    records[3]["frame"] = 77
    write_jsonl(gt_file, records)
    assert main(["evaluate", res_file, gt_file]) == 1
    err = capsys.readouterr().err
    assert "frame 3" in err and "77" in err


def test_evaluate_rejects_results_without_positions(workdir, tmp_path, capsys):
    out = str(tmp_path / "nopos.jsonl")
    assert main(["track", replay_path(workdir), "--no-fusion", "--out", out]) == 0
    capsys.readouterr()
    assert main(["evaluate", out, gt_path(workdir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: frame 0: track 1 has no ground-plane position; ")


def test_evaluate_bad_results_line_is_named_once(workdir, tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", str(results)]) == 0
    lines = results.read_text().splitlines(keepends=True)
    lines[4] = "{oops\n"
    results.write_text("".join(lines))
    capsys.readouterr()
    assert main(["evaluate", str(results), gt_path(workdir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {results}:5: invalid JSON: ")


def test_evaluate_fuzzed_results_fail_as_the_reader_does(workdir, tmp_path, capsys):
    """A sample of fuzzed results files (tests/reader_fuzz.py) through
    evaluate, which reads them straight into prediction columns: a line
    read_results refuses fails with exactly its ParseError; any other file
    fails as results_to_predictions or amota does on what read_results
    gives, or reports what they report."""
    results, fuzzed, gt = tmp_path / "results.jsonl", tmp_path / "fuzzed.jsonl", tmp_path / "gt.jsonl"
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", str(results)]) == 0
    source = results.read_text().splitlines()[:8]
    gt.write_text("".join(Path(gt_path(workdir)).read_text().splitlines(keepends=True)[:8]))
    failed = 0
    for index, line, mutation in list(fuzz_lines(seed=7, lines=source, trials=250))[::8]:
        fuzzed.write_text("\n".join(source[:index] + [line] + source[index + 1:]) + "\n")
        capsys.readouterr()
        code = main(["evaluate", str(fuzzed), str(gt)])
        got = (code, *capsys.readouterr())
        try:
            reference_record("results", line)
        except Invalid:
            with pytest.raises(ParseError) as refused:
                read_results(str(fuzzed))
            assert got == (1, "", f"error: {refused.value}\n"), (mutation, line)
            failed += 1
            continue
        try:
            preds = results_to_predictions(read_results(str(fuzzed)))
        except ValueError as exc:
            assert got == (1, "", f"error: {fuzzed}: {exc}\n"), (mutation, line)
            continue
        try:
            expected = (0, _format_report(amota(preds, read_ground_truth(str(gt))), None, 2.0), "")
        except ValueError as exc:  # a valid line may still break the frame alignment
            expected = (1, "", f"error: {exc}\n")
        assert got == expected, (mutation, line)
    assert failed >= 10


def test_evaluate_report_to_file(tmp_path, capsys):
    res_file, gt_file = perfect_files(tmp_path)
    report_file = str(tmp_path / "report.txt")
    assert main(["evaluate", res_file, gt_file, "--out", report_file]) == 0
    assert capsys.readouterr().out == ""
    assert overall_row(Path(report_file).read_text())[0] == "1.0000"


def test_report_files_are_utf8_under_an_ascii_locale(tmp_path):
    """evaluate --out and sweep --out write UTF-8 under the C locale with
    Python's UTF-8 mode and locale coercion off: non-ASCII class names are
    written as the bytes given, and the sweep table is its golden file."""
    res_file, gt_file = perfect_files(tmp_path)
    report, table, golden = tmp_path / "report.txt", tmp_path / "sweep.txt", Path(__file__).parent / "golden" / "crossing"
    for argv in (["evaluate", res_file, gt_file, "--classes", "voiture,piéton,vélo", "--out", str(report)],
                 ["sweep", str(golden / "replay.jsonl"), str(golden / "ground_truth.jsonl"), "--scene",
                  str(Path(__file__).parent.parent / "configs" / "crossing.yaml"), "--beta", "0,0.04", "--out", str(table)]):
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}
        proc = subprocess.run([sys.executable, "-m", "fusetrack", *argv], capture_output=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, b"")
    assert [line.split()[0] for line in report.read_bytes().decode("utf-8").splitlines()[2:]] == ["voiture", "piéton", "overall"]
    assert table.read_bytes() == (golden / "sweep.txt").read_bytes()


# --------------------------------------------------------------------- sweep

def sweep_rows(text):
    """(alpha, beta, delta, radius, amota) per data row, in printed order."""
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        rows.append(tuple(float(p) for p in parts[:5]))
    return rows


def test_sweep_single_point_matches_evaluate(workdir, tmp_path, capsys):
    out = str(tmp_path / "results.jsonl")
    assert main(["track", replay_path(workdir), "--scene", scenario_path(workdir), "--out", out]) == 0
    assert main(["evaluate", out, gt_path(workdir)]) == 0
    eval_amota = overall_row(capsys.readouterr().out)[0]
    rc = main(["sweep", replay_path(workdir), gt_path(workdir), "--scene", scenario_path(workdir)])
    assert rc == 0
    rows = sweep_rows(capsys.readouterr().out)
    assert len(rows) == 1
    assert f"{rows[0][4]:.4f}" == eval_amota


def test_sweep_beta_rows_dominate(workdir, capsys):
    rc = main(
        [
            "sweep", replay_path(workdir), gt_path(workdir),
            "--scene", scenario_path(workdir),
            "--beta", "0,0.04", "--delta", "0,0.25", "--num-thresholds", "10",
        ]
    )
    assert rc == 0
    rows = sweep_rows(capsys.readouterr().out)
    assert len(rows) == 4
    amotas = [r[4] for r in rows]
    assert amotas == sorted(amotas, reverse=True)  # best first
    beta_pos = [r[4] for r in rows if r[1] > 0]
    beta_zero = [r[4] for r in rows if r[1] == 0]
    assert min(beta_pos) >= max(beta_zero)
    pixel_only = next(r[4] for r in rows if r[1] == 0 and r[2] == 0)
    assert all(pixel_only < v for v in beta_pos)


def test_sweep_deduplicates_grid(workdir, capsys):
    rc = main(
        [
            "sweep", replay_path(workdir), gt_path(workdir),
            "--scene", scenario_path(workdir),
            "--beta", "0.04,0.04", "--num-thresholds", "5",
        ]
    )
    assert rc == 0
    assert len(sweep_rows(capsys.readouterr().out)) == 1


def test_sweep_workers_do_not_change_output(workdir, tmp_path):
    args = [
        "sweep", replay_path(workdir), gt_path(workdir),
        "--scene", scenario_path(workdir),
        "--beta", "0,0.04", "--delta", "0,0.25", "--num-thresholds", "5",
    ]
    one, three = str(tmp_path / "w1.txt"), str(tmp_path / "w3.txt")
    assert main(args + ["--out", one]) == 0
    assert main(args + ["--workers", "3", "--out", three]) == 0
    assert Path(one).read_bytes() == Path(three).read_bytes()


def test_sweep_gap_covers_frames_over_ten_detections(tmp_path, capsys):
    # 14 static, noise-free objects on a grid: every frame after the first
    # matches 14 detections to 14 tracks, beyond any 10x10 exhaustive search.
    objects = tuple(
        ObjectSpec(class_id=0, position=(30.0, 8.0 - 2.5 * (i % 7), 1.0 - 2.0 * (i // 7)), velocity=(0.0, 0.0, 0.0))
        for i in range(14)
    )
    camera = crossing_scenario().camera
    scenario = ScenarioConfig(
        seed=0, num_frames=5, frame_dt=0.1, camera=camera, objects=objects,
        noise=NoiseModel.none(), radar=RadarModel(clutter_per_frame=0),
    )
    scenario_file = str(tmp_path / "grid.yaml")
    save_yaml(scenario_file, scenario.to_dict())
    assert main(["simulate", scenario_file, "--out", str(tmp_path / "scene")]) == 0
    replay, gt = str(tmp_path / "scene" / "replay.jsonl"), str(tmp_path / "scene" / "ground_truth.jsonl")
    assert all(len(json.loads(line)["detections"]) == 14 for line in Path(replay).read_text().splitlines())
    capsys.readouterr()
    assert main(["sweep", replay, gt, "--scene", scenario_file]) == 0
    header, row = capsys.readouterr().out.splitlines()
    gap_mean, frames, shortfall = row.split()[-3:]
    assert float(gap_mean) == 0.0  # static and noise-free: greedy is optimal
    assert (frames, shortfall) == ("4", "0")


# ------------------------------------------------------------------- plumbing

def test_module_entry_point(workdir, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fusetrack", "track", replay_path(workdir), "--no-fusion"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 41
    assert "latency" in proc.stderr


def test_cli_import_leaves_scipy_submodules_unloaded():
    # Only sweep (scipy.optimize) and heatmap.extract_peaks (scipy.ndimage)
    # need them, and each adds tens of MB to every command that imports them.
    code = "import sys, fusetrack.cli; print([m for m in ('scipy.ndimage', 'scipy.optimize') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_command_exits_nonzero(capsys):
    assert main(["frobnicate"]) != 0
    capsys.readouterr()
