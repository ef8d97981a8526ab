"""Command-line surface: simulate/track/evaluate/sweep plumbing, determinism,
flag precedence, and error exits. Commands run in-process through cli.main;
one test drives the installed module entry point for real."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusetrack.association import CostWeights
from fusetrack.cli import main
from fusetrack.fileio import (
    read_results,
    results_to_predictions,
    save_yaml,
    tracker_config_to_dict,
    write_results,
)
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


def test_track_fusion_without_camera_fails(workdir, capsys):
    assert main(["track", replay_path(workdir)]) == 2
    assert "--no-fusion" in capsys.readouterr().err


def test_config_file_with_flag_override(workdir, tmp_path):
    cfg = TrackerConfig(
        weights=CostWeights(beta=0.0, delta=0.0), max_age=1, fusion_enabled=False
    )
    cfg_path = str(tmp_path / "tracker.yaml")
    save_yaml(cfg_path, tracker_config_to_dict(cfg))
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
    assert main(["evaluate", out, gt_path(workdir)]) == 1
    assert "position" in capsys.readouterr().err


def test_evaluate_report_to_file(tmp_path, capsys):
    res_file, gt_file = perfect_files(tmp_path)
    report_file = str(tmp_path / "report.txt")
    assert main(["evaluate", res_file, gt_file, "--out", report_file]) == 0
    assert capsys.readouterr().out == ""
    assert overall_row(Path(report_file).read_text())[0] == "1.0000"


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
