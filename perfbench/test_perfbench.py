"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

import run

run.bootstrap()

import spans  # noqa: E402
import workloads  # noqa: E402
from pointdet.geometry import Box  # noqa: E402
from pointdet.inference import Detection  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,6] > b [2,3]; root > c [7,9]
    s = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 7.0, 9.0, 0, 0],
    ]
    assert spans.self_times(s) == [3.0, 4.0, 1.0, 2.0]
    agg = spans.aggregate(s + [["b", 20.0, 20.5, -1, 1]])
    assert agg["b"] == {"self": 1.5, "incl": 1.5, "calls": 2}
    assert agg["root"]["incl"] == 10.0
    # self times of all spans of a run add up to the roots' durations
    assert sum(spans.self_times(s)) == 10.0
    assert spans.aggregate(s, keep_run=lambda r: r == 1) == {}


def _lookup_sites():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in spans._patch_sites()]


def test_tracer_restores_every_patched_attribute():
    before = _lookup_sites()
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with tracer:
            assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
            raise KeyError("abort inside the traced region")
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


def test_traced_forward_nests_convs_under_their_layers():
    model = workloads.load_eval_model(workloads.load_manifest())
    image, _ = workloads.eval_scenes(3, 1)[0]
    with spans.Tracer() as tracer:
        workloads.inference.detect(model, image)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "model.forward"
    assert sum(n == "ops.conv2d" for n in names) == 40
    for name, _, _, parent, _ in tracer.spans:
        if name == "ops.conv2d":
            assert tracer.spans[parent][0].startswith("layers.") and tracer.spans[parent][0].endswith(".fwd")
    layer_names = {n[len("layers."):-len(".fwd")] for n in names if n.startswith("layers.")}
    assert layer_names == set(spans.CONV_NAMES)
    assert tracer.counters["ops.conv2d.flop"] > 0


def test_train_phase_is_bit_identical_with_tracing():
    plain = workloads.train_phase(5, steps=5)
    with spans.Tracer() as tracer:
        traced = workloads.train_phase(5, steps=5, tracer=tracer)
    assert len(plain.digests) == len(traced.digests) == 5
    assert workloads.same_outputs(plain, traced)
    other = workloads.train_phase(6, steps=5)
    assert not workloads.same_outputs(plain, other)
    assert {s[4] for s in tracer.spans if s[0] == "bench.train_step"} == set(range(5))


def test_eval_checkpoint_with_other_hash_is_refused(tmp_path, monkeypatch):
    bad = tmp_path / "eval_model.pdn"
    data = bytearray(workloads.CHECKPOINT.read_bytes())
    data[-1] ^= 1
    bad.write_bytes(bytes(data))
    monkeypatch.setattr(workloads, "CHECKPOINT", bad)
    with pytest.raises(workloads.CheckpointMismatch):
        workloads.load_eval_model(workloads.load_manifest())


def test_detection_check_rejects_each_defect():
    def det(l, t, r, b, cls=0, score=0.5):
        return Detection(box=Box(l, t, r, b), class_id=cls, score=score)

    ok = [det(1, 1, 10, 10, score=0.9), det(2, 2, 20, 20, cls=2, score=0.4)]
    assert workloads.detections_ok(ok, 0.05, 64, 64, 3)
    bad = {
        "unsorted": [ok[1], ok[0]],
        "outside": [det(1, 1, 65, 10)],
        "class id": [det(1, 1, 10, 10, cls=3)],
        "below threshold": [det(1, 1, 10, 10, score=0.01)],
        "non-finite": [det(1, 1, 10, 10, score=float("nan"))],
        "over the cap": [det(1, 1, 10, 10)] * 101,
    }
    for what, dets in bad.items():
        assert not workloads.detections_ok(dets, 0.05, 64, 64, 3), what


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_command_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", "4",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
