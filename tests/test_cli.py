import json
import os

import numpy as np
import pytest

from pointdet.cli import main
from pointdet.config import TrainConfig, format_config
from pointdet.model import DetectionModel, ModelConfig


def _write_config(tmp_path, **overrides):
    cfg = TrainConfig(
        iters=overrides.pop("iters", 30),
        image_size=overrides.pop("image_size", 32),
        max_objects=overrides.pop("max_objects", 2),
        out_dir=str(tmp_path / "run"),
        **overrides,
    )
    path = tmp_path / "config.txt"
    path.write_text(format_config(cfg))
    return path, cfg


def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", "3", "--count", "4", "--out", str(out),
               "--image-size", "32"])
    assert rc == 0
    assert (out / "manifest.json").exists()
    assert (out / "scenes.npz").exists()
    assert (out / "gts.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["count"] == 4 and manifest["seed"] == 3


def test_gen_data_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["gen-data", "--seed", "5", "--count", "3", "--out", str(a), "--image-size", "32"])
    main(["gen-data", "--seed", "5", "--count", "3", "--out", str(b), "--image-size", "32"])
    assert (a / "gts.jsonl").read_bytes() == (b / "gts.jsonl").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    with np.load(a / "scenes.npz") as na, np.load(b / "scenes.npz") as nb:
        assert np.array_equal(na["images"], nb["images"])


def test_train_eval_cycle(tmp_path, capsys):
    config_path, cfg = _write_config(tmp_path)
    rc = main(["train", "--config", str(config_path)])
    assert rc == 0
    out = capsys.readouterr().out
    ckpt = json.loads(out.strip().splitlines()[-1])["checkpoint"]
    assert os.path.exists(ckpt)
    log_lines = (tmp_path / "run" / "train_log.jsonl").read_text().strip().splitlines()
    assert len(log_lines) == 30
    entry = json.loads(log_lines[0])
    assert set(entry) == {"iter", "l_cls", "l_reg", "l_reg2", "total", "gnorm", "clipped", "lr",
                          "n_pos"}

    data_dir = tmp_path / "data"
    main(["gen-data", "--seed", "9", "--count", "3", "--out", str(data_dir),
          "--image-size", "32"])
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--ckpt", ckpt, "--data", str(data_dir),
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"AP", "AP50", "AP75", "per_class"}
    assert (tmp_path / "report_detections.jsonl").exists()

    # rerunning eval is byte-identical
    first = report_path.read_bytes()
    first_dets = (tmp_path / "report_detections.jsonl").read_bytes()
    main(["eval", "--ckpt", ckpt, "--data", str(data_dir), "--report", str(report_path)])
    assert report_path.read_bytes() == first
    assert (tmp_path / "report_detections.jsonl").read_bytes() == first_dets


def test_eval_prints_detect_latency(tmp_path, capsys):
    ckpt = tmp_path / "model.pdn"
    DetectionModel(ModelConfig(channels=8, n_semantic=4), seed=0).save(ckpt)
    data_dir = tmp_path / "data"
    main(["gen-data", "--seed", "4", "--count", "3", "--out", str(data_dir),
          "--image-size", "32"])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
               "--report", str(report_path)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["detect_ms_p90"] >= printed["detect_ms_p50"] > 0
    # the report file holds only the deterministic AP figures
    report = json.loads(report_path.read_text())
    assert report == {k: v for k, v in printed.items() if not k.startswith("detect_ms")}


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = main(["eval", "--ckpt", str(tmp_path / "missing.pdn"),
               "--data", str(tmp_path), "--report", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    parsed = json.loads(err)
    assert "error" in parsed


def test_cli_unknown_config_key_fails(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("bogus = 1\n")
    rc = main(["train", "--config", str(bad)])
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["ablate", "--config", "c.txt", "--mode", "coupled", "--eval-count", "-3"],
     "--eval-count: must be an integer >= 1, got -3"),
    (["analyze", "--ckpt", "m.pdn", "--data", "d", "--out", "o", "--max-heatmaps", "-1"],
     "--max-heatmaps: must be an integer >= 0, got -1"),
    (["render", "--ckpt", "m.pdn", "--image", "i.npy", "--out", "sub/r.ppm", "--scale", "0"],
     "--scale: must be an integer >= 1, got 0"),
    (["render", "--ckpt", "m.pdn", "--image", "i.npy", "--out", "sub/r.ppm", "--scale", "-2"],
     "--scale: must be an integer >= 1, got -2"),
], ids=["ablate-eval-count", "analyze-max-heatmaps", "render-scale-0", "render-scale-negative"])
def test_cli_rejects_negative_counts(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("override", [
    {"classes": 0}, {"image_size": 60}, {"lr": 0.0}, {"max_objects": 0}, {"neighbor_set": ()},
    {"n_semantic": 5},
], ids=["classes", "image-size", "lr", "max-objects", "neighbor-set", "n-semantic"])
def test_rejected_config_leaves_no_run_directory(tmp_path, capsys, command, override):
    config_path, _ = _write_config(tmp_path, iters=1, **override)
    argv = [command, "--config", str(config_path)]
    rc = main(argv + (["--mode", "coupled"] if command == "ablate" else []))
    assert rc == 1
    assert "error" in json.loads(capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_gen_data_rejects_a_negative_count(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", "1", "--count", "-2", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "ValueError: scene count must be a non-negative integer, got -2"
    assert not out.exists()


@pytest.mark.parametrize("option, value", [
    ("--image-size", "-4"), ("--image-size", "0"), ("--max-objects", "0"), ("--classes", "0"),
    ("--seed", "-1"), ("--seed", "1.5"),
])
def test_gen_data_rejects_counts_below_one(tmp_path, capsys, option, value):
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--seed", "1", "--count", "2", "--out", str(out), option, value])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_a_scene_too_small_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["gen-data", "--seed", "1", "--count", "2", "--out", str(out), "--image-size", "8"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err.startswith("ValueError: width must be an integer of at least 12 px")
    assert not out.exists()


def test_gradcheck_cli_single_op(capsys):
    rc = main(["gradcheck", "--op", "softmax"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "softmax" in out and "PASS" in out


def test_gradcheck_cli_unknown_op(capsys):
    rc = main(["gradcheck", "--op", "frobnicate"])
    assert rc == 1
    assert "unknown gradcheck op" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf", "1e400"])
def test_gradcheck_cli_rejects_a_tolerance_that_is_not_positive_finite(tolerance, capsys):
    # nan and -1 failed every check, inf passed every one
    rc = main(["gradcheck", "--op", "softmax", "--tolerance", tolerance])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""  # no check ran
    assert json.loads(err)["error"] == (f"ValueError: --tolerance must be a positive finite "
                                        f"number, got {float(tolerance)}")


def test_render_cli(tmp_path, capsys):
    config_path, cfg = _write_config(tmp_path, iters=10)
    main(["train", "--config", str(config_path)])
    ckpt = str(tmp_path / "run" / "model.pdn")

    from pointdet.scenes import generate_scene

    img, _ = generate_scene(4, width=32, height=32)
    np.save(tmp_path / "scene.npy", img)
    out_path = tmp_path / "render.ppm"
    rc = main(["render", "--ckpt", ckpt, "--image", str(tmp_path / "scene.npy"),
               "--out", str(out_path), "--score-thresh", "0.0"])
    assert rc == 0
    from pointdet.ppm import read_ppm

    rendered = read_ppm(out_path)
    assert rendered.shape == (128, 128, 3)


def _marker_pixels(x, y, size):
    cx, cy = int(round(x)), int(round(y))
    return {(cy + d, cx) for d in range(-size, size + 1)} | {
        (cy, cx + d) for d in range(-size, size + 1)
    }


def test_render_cli_draws_points_of_source_grids(tmp_path, capsys):
    from pointdet.inference import detect
    from pointdet.model import DetectionModel
    from pointdet.ppm import BOUNDARY_COLOR, GRID_COLOR, SEMANTIC_COLOR, read_ppm
    from pointdet.scenes import generate_scene

    config_path, _ = _write_config(tmp_path, iters=10)
    main(["train", "--config", str(config_path)])
    ckpt = str(tmp_path / "run" / "model.pdn")
    img, _ = generate_scene(4, width=32, height=32)
    np.save(tmp_path / "scene.npy", img)
    out_path = tmp_path / "render.ppm"
    rc = main(["render", "--ckpt", ckpt, "--image", str(tmp_path / "scene.npy"),
               "--out", str(out_path), "--score-thresh", "0.02", "--scale", "4"])
    assert rc == 0
    rendered = read_ppm(out_path)

    # each detection's source-grid points, in drawing order: boundary then
    # semantic markers per detection, then one grid-center pixel per detection
    model = DetectionModel.load(ckpt)
    dets = detect(model, img, score_thresh=0.02)
    assert dets
    state = model.forward(img)
    markers = []
    col = state.collection
    grids = [col.cuts[det.source_level].start + det.source_grid for det in dets]
    for g in grids:
        markers += [(4 * x, 4 * y, BOUNDARY_COLOR, 1) for x, y in zip(col.bx[:, g], col.by[:, g])]
        markers += [(4 * x, 4 * y, SEMANTIC_COLOR, 1) for x, y in zip(col.sx[:, g], col.sy[:, g])]
    for g in grids:
        markers.append((4 * col.grid_cx[g], 4 * col.grid_cy[g], GRID_COLOR, 0))
    checked = {BOUNDARY_COLOR.tobytes(): 0, SEMANTIC_COLOR.tobytes(): 0}
    for k, (x, y, color, _) in enumerate(markers[:-len(dets)]):
        center = (int(round(y)), int(round(x)))
        if not (0 <= center[0] < 128 and 0 <= center[1] < 128):
            continue
        if any(center in _marker_pixels(*m[:2], m[3]) for m in markers[k + 1:]):
            continue  # a later marker paints over this one
        assert np.array_equal(rendered[center], color), (k, center)
        checked[color.tobytes()] += 1
    # most markers are not painted over, so the check covers both kinds
    assert checked[BOUNDARY_COLOR.tobytes()] >= 2 * len(dets)
    assert checked[SEMANTIC_COLOR.tobytes()] >= 9 * len(dets) // 2


def test_render_cli_runs_one_forward(tmp_path, capsys, monkeypatch):
    from pointdet.model import DetectionModel, ModelConfig
    from pointdet.scenes import generate_scene

    ckpt = str(tmp_path / "model.pdn")
    DetectionModel(ModelConfig(channels=8), seed=0).save(ckpt)
    img, _ = generate_scene(4, width=32, height=32)
    np.save(tmp_path / "scene.npy", img)
    calls = []
    forward = DetectionModel.forward
    monkeypatch.setattr(DetectionModel, "forward",
                        lambda self, image, **kw: calls.append(kw) or forward(self, image, **kw))
    rc = main(["render", "--ckpt", ckpt, "--image", str(tmp_path / "scene.npy"),
               "--out", str(tmp_path / "render.ppm"), "--score-thresh", "0.0"])
    assert rc == 0
    assert calls == [{"keep_cache": False}]  # one forward, without backward caches


def test_analyze_cli(tmp_path, capsys):
    config_path, cfg = _write_config(tmp_path, iters=10)
    main(["train", "--config", str(config_path)])
    ckpt = str(tmp_path / "run" / "model.pdn")
    data_dir = tmp_path / "data"
    main(["gen-data", "--seed", "2", "--count", "3", "--out", str(data_dir),
          "--image-size", "32"])
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--ckpt", ckpt, "--data", str(data_dir),
               "--out", str(out_dir)])
    assert rc == 0
    hist = json.loads((out_dir / "histograms.json").read_text())
    assert set(hist["hist"]) == {"l", "t", "r", "b", "c"}
    dists = json.loads((out_dir / "distances.json").read_text())
    assert set(dists) >= {"grid", "grid_offset", "midpoint", "dynamic"}
    ppms = list((out_dir / "accuracy_maps").glob("*.ppm"))
    assert ppms


@pytest.mark.parametrize("option, value, message", [
    ("--level", "5", "ValueError: level 5 is outside the pyramid's [0, 3)"),
    ("--level", "-1", "ValueError: level -1 is outside the pyramid's [0, 3)"),
    ("--margin", "nan", "ValueError: margin must be a finite number, got nan"),
    ("--margin", "inf", "ValueError: margin must be a finite number, got inf"),
], ids=["level-5", "level-negative", "margin-nan", "margin-inf"])
def test_analyze_cli_rejected_argument_leaves_no_out_directory(tmp_path, capsys, option, value,
                                                               message):
    ckpt = tmp_path / "model.pdn"
    DetectionModel(ModelConfig(channels=8, n_semantic=4), seed=0).save(ckpt)
    data_dir = tmp_path / "data"
    main(["gen-data", "--seed", "2", "--count", "2", "--out", str(data_dir),
          "--image-size", "32"])
    capsys.readouterr()
    out_dir = tmp_path / "analysis"
    rc = main(["analyze", "--ckpt", str(ckpt), "--data", str(data_dir), "--out", str(out_dir),
               option, value])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not out_dir.exists()


def test_analyze_cli_deterministic(tmp_path):
    config_path, cfg = _write_config(tmp_path, iters=10)
    main(["train", "--config", str(config_path)])
    ckpt = str(tmp_path / "run" / "model.pdn")
    data_dir = tmp_path / "data"
    main(["gen-data", "--seed", "2", "--count", "2", "--out", str(data_dir),
          "--image-size", "32"])
    out_a, out_b = tmp_path / "an_a", tmp_path / "an_b"
    main(["analyze", "--ckpt", ckpt, "--data", str(data_dir), "--out", str(out_a)])
    main(["analyze", "--ckpt", ckpt, "--data", str(data_dir), "--out", str(out_b)])
    assert (out_a / "histograms.json").read_bytes() == (out_b / "histograms.json").read_bytes()
    assert (out_a / "distances.json").read_bytes() == (out_b / "distances.json").read_bytes()
    for ppm_a in (out_a / "accuracy_maps").glob("*.ppm"):
        ppm_b = out_b / "accuracy_maps" / ppm_a.name
        assert ppm_a.read_bytes() == ppm_b.read_bytes()


def test_ablate_cli(tmp_path, capsys):
    config_path, cfg = _write_config(tmp_path, iters=15)
    rc = main(["ablate", "--config", str(config_path), "--mode", "coupled",
               "--eval-count", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["mode"] == "coupled"
    report = json.loads((tmp_path / "run" / "coupled" / "report.json").read_text())
    assert "AP" in report
