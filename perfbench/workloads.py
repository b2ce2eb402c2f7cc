"""The benchmark's workloads: single-process, closed-loop callers of
pointdet's public functions. Each caller starts the next training step or
detect call only after the previous one has returned.

``train``       default-config ``train_from_config``; one op is one step.
``eval``        frozen checkpoint, ``detect`` per held-out scene at the
                default thresholds, one ``average_precision`` per pass.
``eval-dense``  the same at ``score_thresh=0.005``, so NMS and AP see
                hundreds of candidates per image.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pointdet import inference, training
from pointdet.config import TrainConfig
from pointdet.model import DetectionModel

from spans import Tracer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "eval_model.pdn"
MANIFEST = HERE / "eval_model.json"

WORKLOADS = ("train", "eval", "eval-dense")
SCORE_THRESH = {"eval": inference.DEFAULT_SCORE_THRESH, "eval-dense": 0.005}

# The first steps fill kernel caches (``ops._COL2IM_CACHE``) and run about
# twice as slow; they count as set-up, not as timed steps.
TRAIN_WARMUP_STEPS = 3
TRAIN_PASS_STEPS = 25
EVAL_SCENES = 200
EVAL_PASS_SCENES = 25
EVAL_WARMUP_IMAGES = 2
# Machine-speed calibration: how often it runs, and the time it takes on the
# machine the benchmark was built on in its usual state (2-core x86_64 VM,
# OpenBLAS 0.3.31 Haswell kernels, one thread).
CAL_EVERY = 5
CAL_HALF_WINDOW = 4
REFERENCE_CAL_S = 0.007
# Length of the traced replay an untraced run makes to check that tracing
# leaves the numerics unchanged.
REPLAY_OPS = 4


class CheckpointMismatch(RuntimeError):
    """The stored eval checkpoint is not the one recorded in the manifest."""


def calibrate() -> float:
    """Seconds of a fixed kernel that shares no code with pointdet: small
    GEMMs, a chain of ufuncs and a sort of Python tuples, the three kinds of
    work in a training step or a detect call."""
    a = np.linspace(0.0, 1.0, 256 * 288).reshape(256, 288)
    b = np.linspace(1.0, 0.0, 288 * 32).reshape(288, 32)
    t0 = time.perf_counter()
    for _ in range(12):
        a @ b
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(40):
        x = np.sqrt(x * x + 1.0) - 0.5
    rows = [(i % 97, i * 0.5) for i in range(6000)]
    rows.sort(key=lambda r: (-r[0], r[1]))
    return time.perf_counter() - t0


@dataclass
class Phase:
    """What one closed-loop phase measured and produced.

    The calibration kernel runs before the first timed op, after every
    ``CAL_EVERY`` ops and after every AP, outside the timed intervals. A
    timed interval is normalised by the median of the ``2 * CAL_HALF_WINDOW
    + 2`` calibrations around it (``bracket`` is the index of the first one
    after it), which follows the machine's slow and fast stretches but not
    the jitter of single calibrations.
    """

    op_s: list = field(default_factory=list)      # raw seconds per timed op
    op_bracket: list = field(default_factory=list)
    passes: list = field(default_factory=list)    # (first op, end op, AP s, AP bracket)
    cal_s: list = field(default_factory=list)
    digests: list = field(default_factory=list)   # per op: output_digest of its output
    failed: int = 0                               # ops whose output check failed
    pass_ap: list = field(default_factory=list)   # AP of each eval pass
    setup_end: float | None = None                # perf_counter at end of warm-up
    tracer: Tracer | None = None

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    def calibrate(self) -> None:
        self.cal_s.append(calibrate())

    def add_op(self, seconds) -> None:
        self.op_s.append(seconds)
        self.op_bracket.append(len(self.cal_s))
        if len(self.op_s) % CAL_EVERY == 0:
            self.calibrate()

    def add_pass(self, first, ap_s=0.0) -> None:
        self.passes.append((first, len(self.op_s), ap_s, len(self.cal_s)))
        if ap_s:
            self.calibrate()

    def finish(self) -> None:
        """Close the last bracket."""
        if self.op_bracket and self.op_bracket[-1] == len(self.cal_s):
            self.calibrate()

    def _scale(self, bracket) -> float:
        lo = max(0, bracket - 1 - CAL_HALF_WINDOW)
        return REFERENCE_CAL_S / statistics.median(self.cal_s[lo:bracket + 1 + CAL_HALF_WINDOW])

    def norm_op_s(self) -> list:
        """Op times at reference machine speed."""
        return [t * self._scale(b) for t, b in zip(self.op_s, self.op_bracket)]

    def pass_s(self, normalised=False) -> list:
        ops = self.norm_op_s() if normalised else self.op_s
        return [
            sum(ops[first:end]) + (ap * self._scale(b) if normalised and ap else ap)
            for first, end, ap, b in self.passes
        ]


# ---------------------------------------------------------------------------
# output checks


def loss_entry_ok(entry) -> bool:
    return all(math.isfinite(entry[k]) for k in ("l_cls", "l_reg", "l_reg2", "total"))


def detections_ok(dets, score_thresh, width, height, classes) -> bool:
    """Finite, clamped to the image, at most the cap, score-sorted, valid ids."""
    if len(dets) > inference.DEFAULT_MAX_DETECTIONS:
        return False
    prev = math.inf
    for d in dets:
        b = d.box
        if not all(math.isfinite(v) for v in (b.l, b.t, b.r, b.b, d.score)):
            return False
        if not (0.0 <= b.l <= b.r <= width and 0.0 <= b.t <= b.b <= height):
            return False
        if not (score_thresh < d.score <= 1.0 and d.score <= prev):
            return False
        if not (0 <= d.class_id < classes):
            return False
        prev = d.score
    return True


def loss_bits(entry):
    return tuple(float(entry[k]).hex() for k in ("l_cls", "l_reg", "l_reg2", "total"))


def det_bits(dets):
    return [tuple(float(v).hex() for v in (d.box.l, d.box.t, d.box.r, d.box.b, d.score))
            + (d.class_id, d.image_id) for d in dets]


def output_digest(bits) -> bytes:
    """8-byte digest of an op's output bits. A phase keeps only these, so its
    memory does not grow with the op's output size times the ops it ran."""
    return hashlib.blake2b(repr(bits).encode(), digest_size=8).digest()


def same_outputs(a: Phase, b: Phase) -> bool:
    """Outputs of the common prefix of two phases are bit-identical."""
    n = min(len(a.digests), len(b.digests))
    return n > 0 and a.digests[:n] == b.digests[:n]


# ---------------------------------------------------------------------------
# train


class _Stop(Exception):
    """Raised from the training log callback to end a phase."""


def train_phase(seed, seconds=None, steps=None, tracer=None) -> Phase:
    """Train the default config from scratch until ``seconds`` of timed steps
    (rounded up to a whole pass) or ``steps`` steps in all have run.

    Each step is timed between consecutive ``log_fn`` callbacks of the real
    ``run_training`` loop, so it includes scene generation, forward, losses,
    backward, clipping and the SGD step. A finished run restarts with the
    same config, so a fast build still measures for ``seconds``.
    """
    ph = Phase(tracer=tracer)
    cfg = TrainConfig(seed=seed)
    t_prev = time.perf_counter()
    root = [tracer.begin("bench.train_step") if tracer else None]

    def log_fn(entry):
        nonlocal t_prev
        now = time.perf_counter()
        n = len(ph.digests)
        ph.digests.append(output_digest(loss_bits(entry)))
        if tracer:
            tracer.end(root[0])
            tracer.run = n + 1
            root[0] = None
        if n >= TRAIN_WARMUP_STEPS:
            ph.add_op(now - t_prev)
            if not loss_entry_ok(entry):
                ph.failed += 1
        elif n + 1 == TRAIN_WARMUP_STEPS:
            ph.setup_end = now
            ph.calibrate()
        timed = len(ph.op_s)
        if timed and timed % TRAIN_PASS_STEPS == 0:
            ph.add_pass(timed - TRAIN_PASS_STEPS)
            if seconds is not None and sum(ph.op_s) >= seconds:
                raise _Stop
        if steps is not None and n + 1 >= steps:
            raise _Stop
        if tracer:
            root[0] = tracer.begin("bench.train_step")
        t_prev = time.perf_counter()

    try:
        while True:
            training.train_from_config(cfg, log_fn=log_fn)
    except _Stop:
        pass
    except training.TrainingDiverged:
        ph.failed += 1
    finally:
        if tracer and root[0] is not None:
            tracer.end(root[0])
    ph.finish()
    return ph


# ---------------------------------------------------------------------------
# eval


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as f:
        return json.load(f)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_eval_model(manifest) -> DetectionModel:
    """Load the frozen checkpoint, refusing one whose hash differs."""
    digest = file_sha256(CHECKPOINT)
    if digest != manifest["sha256"]:
        raise CheckpointMismatch(
            f"{CHECKPOINT.name} has SHA-256 {digest}, the manifest records "
            f"{manifest['sha256']}; rebuild it with make_checkpoint.py"
        )
    return DetectionModel.load(CHECKPOINT)


def eval_scenes(seed, count=EVAL_SCENES):
    """Held-out scenes of the seed's evaluation stream (disjoint from training)."""
    return training.holdout_scenes(TrainConfig(seed=seed), count)


def reference_ap(model, score_thresh, manifest) -> float:
    """AP of ``model`` on the reference held-out set recorded in the manifest."""
    ref = manifest["reference"]
    scenes = eval_scenes(ref["seed"], ref["scenes"])
    dets = {
        i: inference.detect(model, img, score_thresh=score_thresh, image_id=i)
        for i, (img, _) in enumerate(scenes)
    }
    return inference.average_precision(dets, {i: gt for i, (_, gt) in enumerate(scenes)})["AP"]


def eval_warmup(model, scenes, score_thresh) -> None:
    dets = {
        i: inference.detect(model, scenes[i][0], score_thresh=score_thresh, image_id=i)
        for i in range(EVAL_WARMUP_IMAGES)
    }
    inference.average_precision(dets, {i: scenes[i][1] for i in dets})


def eval_phase(model, scenes, score_thresh, seconds=None, images=None, tracer=None) -> Phase:
    """Detect on successive passes of ``EVAL_PASS_SCENES`` scenes, with one
    ``average_precision`` per pass, until ``seconds`` have passed (whole
    passes only) or ``images`` detect calls have run (then without AP)."""
    ph = Phase(tracer=tracer)
    classes = model.config.classes
    n_chunks = len(scenes) // EVAL_PASS_SCENES
    ph.calibrate()
    p = 0
    while True:
        if tracer:
            tracer.run = p
        lo = (p % n_chunks) * EVAL_PASS_SCENES
        chunk = range(lo, lo + EVAL_PASS_SCENES)
        first = len(ph.op_s)
        dets = {}
        for i in chunk:
            img = scenes[i][0]
            t0 = time.perf_counter()
            root = tracer.begin("bench.detect") if tracer else None
            out = inference.detect(model, img, score_thresh=score_thresh, image_id=i)
            if tracer:
                tracer.end(root)
            ph.add_op(time.perf_counter() - t0)
            ph.digests.append(output_digest(det_bits(out)))
            dets[i] = out
            if not detections_ok(out, score_thresh, img.shape[2], img.shape[1], classes):
                ph.failed += 1
            if images is not None and len(ph.op_s) >= images:
                ph.finish()
                return ph
        t0 = time.perf_counter()
        report = inference.average_precision(dets, {i: scenes[i][1] for i in chunk})
        ph.add_pass(first, time.perf_counter() - t0)
        ph.pass_ap.append(report["AP"])
        p += 1
        if seconds is not None and sum(ph.pass_s()) >= seconds:
            return ph
