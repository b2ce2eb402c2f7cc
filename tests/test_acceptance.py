"""Acceptance criteria, one test per criterion.

Each test prints a ``[criterion N] PASS/FAIL`` line with its measured
numbers (run with ``pytest tests/test_acceptance.py -v -s``). Training runs
are cached and shared between criteria. Everything is deterministic, so the
reported numbers are stable for fixed seeds.
"""

import time

import numpy as np

from pointdet.analysis import (
    best_location_histogram,
    compute_accuracy_maps,
    point_distance_distribution,
)
from pointdet.config import TrainConfig
from pointdet.geometry import Box
from pointdet.gradcheck import run_checks
from pointdet.head import LevelMaps, available_levels, collect_level
from pointdet.inference import AP_IOU_THRESHOLDS, Detection, average_precision, detect, nms
from pointdet.model import DetectionModel, ModelConfig
from pointdet.scenes import generate_scene, scene_seed
from pointdet.training import model_config_from, run_training, train_from_config

from oracles import average_precision_reference, nms_reference

_CACHE: dict = {}


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _eval_ap(model, scenes):
    dets = {i: detect(model, img, image_id=i) for i, (img, _) in enumerate(scenes)}
    gts = {i: gt for i, (_, gt) in enumerate(scenes)}
    return average_precision(dets, gts)


def _default_run():
    """Criterion 2's pinned run: default config, 2000 iterations, seed 0."""
    if "default" not in _CACHE:
        cfg = TrainConfig()
        t0 = time.monotonic()
        model, history = train_from_config(cfg)
        scenes = [
            generate_scene(scene_seed(cfg.seed, 1, i), cfg.image_size, cfg.image_size,
                           cfg.max_objects, cfg.classes)
            for i in range(200)
        ]
        report = _eval_ap(model, scenes)
        elapsed = time.monotonic() - t0
        _CACHE["default"] = {
            "cfg": cfg, "model": model, "history": history,
            "report": report, "elapsed": elapsed,
        }
    return _CACHE["default"]


def _ablation_ap(mode: str, seed: int, neighbor=(-1, 0)) -> float:
    key = ("ablate", mode, seed, neighbor)
    if key not in _CACHE:
        cfg = TrainConfig(seed=seed, iters=700, neighbor_set=neighbor)
        model, _ = train_from_config(cfg, mode=mode)
        scenes = [
            generate_scene(scene_seed(seed, 1, i), 64, 64, cfg.max_objects, cfg.classes)
            for i in range(60)
        ]
        _CACHE[key] = _eval_ap(model, scenes)["AP"]
    return _CACHE[key]


def _multiscale_ap(seed: int, neighbor) -> float:
    key = ("multiscale", seed, neighbor)
    if key not in _CACHE:
        iters = 1500
        cfg = TrainConfig(seed=seed, iters=iters, neighbor_set=neighbor, max_objects=2)
        model = DetectionModel(model_config_from(cfg, "decoupled"), seed=seed)

        def provider(it):
            return generate_scene(scene_seed(seed, 0, it), 64, 64, 2, 3, size_range=(8, 56))

        run_training(model, provider, iters=iters, lr=cfg.lr, momentum=cfg.momentum,
                     weight_decay=cfg.weight_decay, lambda1=cfg.lambda1, lambda2=cfg.lambda2)
        scenes = [
            generate_scene(scene_seed(seed, 1, i), 64, 64, 2, 3, size_range=(8, 56))
            for i in range(60)
        ]
        _CACHE[key] = _eval_ap(model, scenes)["AP"]
    return _CACHE[key]


def _analysis_baseline():
    """The paper-style dense baseline: coupled collection, inside-box positives."""
    if "baseline" not in _CACHE:
        seed, iters = 0, 1500
        cfg = TrainConfig(seed=seed, iters=iters)
        model = DetectionModel(model_config_from(cfg, "coupled"), seed=seed)

        def provider(it):
            return generate_scene(scene_seed(seed, 0, it), 64, 64, 2, 3, size_range=(20, 48))

        run_training(model, provider, iters=iters, lr=cfg.lr, momentum=cfg.momentum,
                     weight_decay=cfg.weight_decay, assignment_rule="inside-box")
        scenes = [
            generate_scene(scene_seed(seed, 1, i), 64, 64, 2, 3, size_range=(20, 48))
            for i in range(80)
        ]
        _CACHE["baseline"] = (model, scenes)
    return _CACHE["baseline"]


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    results = run_checks()
    elapsed = time.monotonic() - t0
    worst = max(results.values())
    detail = (
        f"max rel err {worst:.3e} over {sorted(results)} in {elapsed:.1f}s "
        f"(tolerance 1e-4, budget 120s)"
    )
    ok = worst < 1e-4 and elapsed < 120.0
    assert _report(1, ok, detail)


# ---------------------------------------------------------------------------
# 2. default toy training


def test_criterion_2_toy_training():
    run = _default_run()
    ap50 = run["report"]["AP50"]
    loss0 = run["history"][0]["total"]
    loss_end = run["history"][-1]["total"]
    ratio = loss_end / loss0
    detail = (
        f"AP50 {ap50:.4f} (need >= 0.85) on 200 held-out scenes, "
        f"loss {loss0:.3f} -> {loss_end:.3f} (ratio {ratio:.3f}, need < 0.25), "
        f"train+eval {run['elapsed']:.0f}s (budget 900s)"
    )
    ok = ap50 >= 0.85 and ratio < 0.25 and run["elapsed"] < 900.0
    assert _report(2, ok, detail)


# ---------------------------------------------------------------------------
# 3. decoupling ablation trend


def test_criterion_3_decoupling_trend():
    seeds = (0, 1, 2)
    med = {
        mode: float(np.median([_ablation_ap(mode, s) for s in seeds]))
        for mode in ("decoupled", "coupled", "loc-only", "cls-only")
    }
    detail = (
        f"median AP over {len(seeds)} seeds: decoupled {med['decoupled']:.3f}, "
        f"loc-only {med['loc-only']:.3f}, cls-only {med['cls-only']:.3f}, "
        f"coupled baseline {med['coupled']:.3f}"
    )
    ok = (
        med["decoupled"] >= med["coupled"]
        and med["loc-only"] >= med["coupled"]
        and med["cls-only"] >= med["coupled"]
    )
    assert _report(3, ok, detail)


# ---------------------------------------------------------------------------
# 4. multi-level trend


def test_criterion_4_multilevel_trend():
    seeds = (0, 1, 2)
    multi = float(np.median([_multiscale_ap(s, (-1, 0)) for s in seeds]))
    single = float(np.median([_multiscale_ap(s, (0,)) for s in seeds]))
    detail = (
        f"median AP on the multi-scale set: neighbors {{s0-1,s0}} {multi:.4f} "
        f"vs {{s0}} {single:.4f} (need >=)"
    )
    assert _report(4, multi >= single, detail)


# ---------------------------------------------------------------------------
# 5. boundary-bias reproduction


def test_criterion_5_boundary_bias():
    model, scenes = _analysis_baseline()
    all_maps = []
    for img, gt in scenes:
        if len(gt):
            all_maps.extend(compute_accuracy_maps(model, img, gt, level=0))
    out = best_location_histogram(all_maps)
    bins, (lo, hi) = out["bins"], out["range"]
    centers = lo + (np.arange(bins) + 0.5) * (hi - lo) / bins

    def frac(target, axis, band):
        h = out["hist"][target]
        mass = h.sum(axis=0) if axis == "x" else h.sum(axis=1)
        sel = (centers >= band[0]) & (centers < band[1])
        return float(mass[sel].sum() / max(1, h.sum()))

    third = 1.0 / 3.0
    fr = {
        "l": frac("l", "x", (lo, third)),
        "r": frac("r", "x", (1.0 - third, hi)),
        "t": frac("t", "y", (lo, third)),
        "b": frac("b", "y", (1.0 - third, hi)),
    }
    detail = (
        f"{out['analyzed']} objects; argmax fraction in the matching third: "
        + ", ".join(f"{k}={v:.3f}" for k, v in fr.items())
        + " (each needs > 0.5)"
    )
    assert _report(5, all(v > 0.5 for v in fr.values()), detail)


# ---------------------------------------------------------------------------
# 6. point-distance ordering


def test_criterion_6_point_distance_ordering():
    run = _default_run()
    scenes = [
        generate_scene(scene_seed(0, 1, i), 64, 64, 3, 3) for i in range(60)
    ]
    dists = point_distance_distribution(run["model"], scenes)
    dyn = dists["dynamic"]["median"]
    mid = dists["midpoint"]["median"]
    grid = dists["grid"]["median"]
    dyn_c = dists["dynamic"]["median_to_edge_center"]
    mid_c = dists["midpoint"]["median_to_edge_center"]
    detail = (
        f"median normalized edge distance: dynamic {dyn:.4f}, midpoint {mid:.4f}, "
        f"grid {grid:.4f} (need dynamic < midpoint < grid). "
        f"Context: the dynamic point and the coarse-edge midpoint share the edge "
        f"coordinate exactly (on-edge invariant) and for IoU>0.6 positives the "
        f"midpoint's transverse coordinate provably lies inside the gt edge span, "
        f"so segment distance per-sample satisfies dynamic >= midpoint and the "
        f"strict first inequality is unattainable for rectangle silhouettes; the "
        f"edge-center diagnostic (dynamic {dyn_c:.4f} vs midpoint {mid_c:.4f}) is "
        f"inverted as well because the trained shifts pull toward the source grid "
        f"(which measurably improves held-out regression), not toward the edge "
        f"center. See the README section \"Tests and acceptance suite\"."
    )
    ok = dyn < mid < grid
    assert _report(6, ok, detail)


def test_point_distance_weak_ordering_holds():
    """The attainable part: dynamic <= midpoint (ties) and midpoint < grid."""
    run = _default_run()
    scenes = [
        generate_scene(scene_seed(0, 1, i), 64, 64, 3, 3) for i in range(60)
    ]
    dists = point_distance_distribution(run["model"], scenes)
    assert dists["dynamic"]["median"] <= dists["midpoint"]["median"] + 1e-9
    assert dists["midpoint"]["median"] < dists["grid"]["median"]
    assert dists["grid_offset"]["median"] < dists["grid"]["median"]


# ---------------------------------------------------------------------------
# 7. oracle equivalence


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(0, 201))
        boxes = np.empty((n, 4))
        xy = rng.uniform(0, 80, size=(n, 2))
        wh = rng.uniform(1, 30, size=(n, 2))
        boxes[:, :2] = xy
        boxes[:, 2:] = xy + wh
        scores = rng.uniform(0.01, 1.0, size=n)
        if n and rng.random() < 0.5:
            scores = np.round(scores, 2)
        classes = rng.integers(0, 3, size=n)
        got = nms(boxes, scores, classes, 0.6)
        want = nms_reference(boxes, scores, classes, 0.6)
        mismatches += got != want

    ap_worst = 0.0
    for case in range(200):
        case_rng = np.random.default_rng(9000 + case)
        gts, dets, o_gts, o_dets = {}, {}, {}, {}
        for img in range(int(case_rng.integers(1, 3))):
            m = int(case_rng.integers(1, 4))
            boxes = []
            for _ in range(m):
                x, y = case_rng.uniform(0, 40, size=2)
                w, h = case_rng.uniform(4, 20, size=2)
                boxes.append([x, y, x + w, y + h])
            labels = case_rng.integers(0, 2, size=m)
            from pointdet.scenes import GroundTruth

            gts[img] = GroundTruth(np.array(boxes), labels)
            o_gts[img] = [(int(labels[k]), boxes[k]) for k in range(m)]
            d_list, o_list = [], []
            for _ in range(int(case_rng.integers(0, 6))):
                if case_rng.random() < 0.7:
                    base = boxes[int(case_rng.integers(0, m))]
                    jit = case_rng.normal(0, 2.5, size=4)
                    cand = [base[0] + jit[0], base[1] + jit[1],
                            base[2] + jit[2], base[3] + jit[3]]
                    cand = [min(cand[0], cand[2]), min(cand[1], cand[3]),
                            max(cand[0], cand[2]), max(cand[1], cand[3])]
                else:
                    x, y = case_rng.uniform(0, 40, size=2)
                    w, h = case_rng.uniform(4, 20, size=2)
                    cand = [x, y, x + w, y + h]
                cls = int(case_rng.integers(0, 2))
                score = float(np.round(case_rng.uniform(0.1, 1.0), 2))
                d_list.append(Detection(Box(*cand), cls, score, img))
                o_list.append((cls, score, cand))
            dets[img] = d_list
            o_dets[img] = o_list
        rep = average_precision(dets, gts)
        ref = average_precision_reference(o_dets, o_gts, list(AP_IOU_THRESHOLDS))
        for k in ("AP", "AP50", "AP75"):
            ap_worst = max(ap_worst, abs(rep[k] - ref[k]))

    detail = (
        f"NMS exact matches on 1000 random instances (n<=200): "
        f"{1000 - mismatches}/1000; AP vs exhaustive oracle on 200 instances: "
        f"max |diff| {ap_worst:.2e} (need < 1e-9)"
    )
    ok = mismatches == 0 and ap_worst < 1e-9
    assert _report(7, ok, detail)


# ---------------------------------------------------------------------------
# 8. structural invariants


def test_criterion_8_structural_invariants(tmp_path):
    # the invariants are checked on the shipped collection over random raw
    # maps of a 128x128 image (1344 grids per draw)
    rng = np.random.default_rng(77)
    cfg = ModelConfig()
    on_edge = simplex = dilated = True
    grids = 0
    while grids < 10_000:
        maps = []
        for stride in cfg.strides:
            h = w = 128 // stride
            maps.append(LevelMaps(
                stride=stride,
                reg=rng.normal(size=(4, h, w)),
                cls=rng.normal(size=(cfg.n_points * cfg.classes, h, w)),
                coarse=rng.normal(scale=1.5, size=(4, h, w)),
                bshift=rng.normal(scale=2.0, size=(4, h, w)),
                sshift=rng.normal(scale=2.0, size=(2 * cfg.n_points, h, w)),
                lvlw=rng.normal(scale=3.0, size=(4 * len(cfg.offsets), h, w)),
            ))
        col = collect_level(maps, cfg)
        grids += len(col.level)
        l, t, r, b = col.coarse.T
        on_edge &= bool(np.all(col.bx[0] == l) and np.all(col.bx[2] == r))
        on_edge &= bool(np.all(col.by[1] == t) and np.all(col.by[3] == b))
        on_edge &= bool(
            np.all((t <= col.by[0]) & (col.by[0] <= b) & (t <= col.by[2]) & (col.by[2] <= b))
            and np.all((l <= col.bx[1]) & (col.bx[1] <= r)
                       & (l <= col.bx[3]) & (col.bx[3] <= r))
        )
        for li, sl in enumerate(col.cuts):
            # the weights of each grid's available neighbor slots
            slots = [q or 0 for q, _ in available_levels(li, len(maps), cfg.offsets)]
            weights = col.weights[:, slots, sl]
            simplex &= bool(np.all(weights > 0))
            simplex &= bool(np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-12))
        bw, bh = r - l, b - t
        dilated &= bool(
            np.all((col.sx >= l - 0.5 * bw) & (col.sx <= r + 0.5 * bw))
            and np.all((col.sy >= t - 0.5 * bh) & (col.sy <= b + 0.5 * bh))
        )

    # checkpoint round trip is bit exact
    model = DetectionModel(ModelConfig(channels=8, classes=2, n_semantic=4), seed=9)
    path = tmp_path / "model.pdn"
    model.save(path)
    back = DetectionModel.load(path)
    ckpt_ok = all(
        p.value.tobytes() == q.value.tobytes()
        for p, q in zip(model.parameters(), back.parameters())
    )
    path2 = tmp_path / "model2.pdn"
    back.save(path2)
    ckpt_ok &= path.read_bytes() == path2.read_bytes()

    # fixed-seed training is bit reproducible
    cfg = TrainConfig(iters=40, image_size=32, max_objects=2, seed=11)
    m1, h1 = train_from_config(cfg)
    m2, h2 = train_from_config(cfg)
    train_ok = h1 == h2 and all(
        p.value.tobytes() == q.value.tobytes()
        for p, q in zip(m1.parameters(), m2.parameters())
    )

    detail = (
        f"{grids} collected grids: on-edge exact {on_edge}, weight simplex<=1e-12 {simplex}, "
        f"semantic points in dilated box {dilated}; checkpoint round-trip "
        f"bit-exact {ckpt_ok}; fixed-seed training bit-reproducible {train_ok}"
    )
    ok = on_edge and simplex and dilated and ckpt_ok and train_ok
    assert _report(8, ok, detail)
