"""Independent brute-force reference implementations used only by tests.

These deliberately share no code with the library: scalar arithmetic,
explicit loops, and direct transcriptions of the definitions. Array inputs
are only indexed, so numpy arrays and nested lists both work.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

# raw coarse values are clamped to +/- this before exponentiation
COARSE_RAW_LIMIT = 6.0


def iou_scalar(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(ix, 0.0) * max(iy, 0.0)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def giou_scalar(a, b) -> float:
    """Generalized IoU: IoU - (C - U)/C with C the area of the smallest
    enclosing box; 0 when the union is empty."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(ix, 0.0) * max(iy, 0.0)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    if union <= 0:
        return 0.0
    enclose = (max(a[2], b[2]) - min(a[0], b[0])) * (max(a[3], b[3]) - min(a[1], b[1]))
    return inter / union - (enclose - union) / enclose


def level_views(col):
    """Per-level views of a collection over the grid index (its ``cuts``
    mark each level's slice), in the per-level form the collection oracles
    below take. The views share memory with ``col``."""
    return [SimpleNamespace(level=i, grid_cx=col.grid_cx[sl], grid_cy=col.grid_cy[sl],
                            coarse=col.coarse[sl], boxes=col.boxes[sl], scores=col.scores[:, sl])
            for i, sl in enumerate(col.cuts)]


def assign_reference(collections, gt_boxes, rule="coarse-iou", iou_thresh=0.6):
    """Loop transcription of sample assignment over the grid index: every
    level's grids in collection order, each row-major. ``collections[i]``
    has ``coarse`` [G][4], ``grid_cx`` and ``grid_cy`` [G].

    ``coarse-iou``: a grid is positive iff its best IoU exceeds the
    threshold strictly, matched to the first gt of that IoU. ``inside-box``:
    a grid whose center lies strictly inside some gt box is positive,
    matched to the first gt of the smallest area that contains it. Each gt
    gets the grid whose center is nearest to the gt center, scanning levels
    coarsest first and keeping only strictly nearer grids, so ties go to the
    coarser level, then to the earlier grid. Returns ``(pos_grid, pos_gt,
    center_grid)`` lists."""
    grids = []  # (level, coarse box, cx, cy) in grid-index order
    for li, col in enumerate(collections):
        for g in range(len(col.grid_cx)):
            grids.append((li, col.coarse[g], float(col.grid_cx[g]), float(col.grid_cy[g])))
    pos_grid, pos_gt = [], []
    if not len(gt_boxes):
        return pos_grid, pos_gt, []
    for k, (_, coarse, cx, cy) in enumerate(grids):
        best, best_val = None, None
        for j, box in enumerate(gt_boxes):
            if rule == "coarse-iou":
                val = iou_scalar(coarse, box)
                if best is None or val > best_val:
                    best, best_val = j, val
            elif box[0] < cx < box[2] and box[1] < cy < box[3]:
                val = (box[2] - box[0]) * (box[3] - box[1])
                if best is None or val < best_val:
                    best, best_val = j, val
        if best is not None and (rule == "inside-box" or best_val > iou_thresh):
            pos_grid.append(k)
            pos_gt.append(best)
    center_grid = []
    for box in gt_boxes:
        gcx = 0.5 * (box[0] + box[2])
        gcy = 0.5 * (box[1] + box[3])
        best, best_d = None, math.inf
        for li in range(len(collections) - 1, -1, -1):
            for k, (level, _, cx, cy) in enumerate(grids):
                d = (cx - gcx) ** 2 + (cy - gcy) ** 2
                if level == li and d < best_d:
                    best, best_d = k, d
        center_grid.append(best)
    return pos_grid, pos_gt, center_grid


def nms_reference(boxes, scores, classes, iou_thresh):
    """Textbook greedy NMS: repeatedly take the max-score remaining entry
    (ties: earliest index), drop same-class entries overlapping above the
    threshold. Returns kept indices in selection order."""
    alive = list(range(len(boxes)))
    kept = []
    while alive:
        best = alive[0]
        for i in alive[1:]:
            if scores[i] > scores[best]:
                best = i
        kept.append(best)
        survivors = []
        for i in alive:
            if i == best:
                continue
            if classes[i] == classes[best] and iou_scalar(boxes[i], boxes[best]) > iou_thresh:
                continue
            survivors.append(i)
        alive = survivors
    return kept


def decode_reference(collections, width, height, score_thresh, topk_per_level):
    """Loop transcription of decoding. ``collections[i]`` has ``scores``
    [C][G], ``boxes`` [G][4] and ``level``. Per level: every class-grid pair
    with score strictly above the threshold, in flat index order c * G + g;
    when more than ``topk_per_level`` pass, the top-k by score, ties to the
    lower flat index. Each box is folded (min and max of its coordinate
    pairs), then clamped to [0, width] x [0, height]. Returns ``(box, score,
    class, level, grid)`` tuples, levels in order."""
    out = []
    for col in collections:
        n_grid = len(col.scores[0])
        passed = [(c * n_grid + g, float(col.scores[c][g]))
                  for c in range(len(col.scores)) for g in range(n_grid)
                  if col.scores[c][g] > score_thresh]
        if len(passed) > topk_per_level:
            passed = sorted(passed, key=lambda e: (-e[1], e[0]))[:topk_per_level]
        for flat, score in passed:
            c, g = divmod(flat, n_grid)
            l, t, r, b = (float(v) for v in col.boxes[g])
            folded = (min(l, r), min(t, b), max(l, r), max(t, b))
            box = tuple(float(min(max(v, 0.0), hi))
                        for v, hi in zip(folded, (width, height, width, height)))
            out.append((box, score, c, col.level, g))
    return out


def average_precision_reference(dets_per_image, gts_per_image, iou_thresholds,
                                recall_points=101):
    """Loop transcription of 101-point interpolated COCO-style AP.

    ``dets_per_image``: image -> list of (class_id, score, box).
    ``gts_per_image``: image -> list of (class_id, box).
    Matching: detections in score order (ties: image id, insertion order)
    greedily take the unmatched same-class gt with the highest IoU >=
    threshold (IoU ties: lowest gt index).
    """
    classes = set()
    for rows in gts_per_image.values():
        for cls, _ in rows:
            classes.add(cls)

    per_class = {}
    per_class_at = {t: {} for t in iou_thresholds}
    for cls in sorted(classes):
        n_gt = sum(1 for rows in gts_per_image.values() for c, _ in rows if c == cls)
        entries = []
        for img in sorted(gts_per_image.keys()):
            for k, (c, score, box) in enumerate(dets_per_image.get(img, [])):
                if c == cls:
                    entries.append((img, k, score, box))
        entries.sort(key=lambda e: (-e[2], e[0], e[1]))

        ap_sum = 0.0
        for thr in iou_thresholds:
            used = {img: [False] * sum(1 for c, _ in gts_per_image[img] if c == cls)
                    for img in gts_per_image}
            cls_boxes = {img: [box for c, box in gts_per_image[img] if c == cls]
                         for img in gts_per_image}
            tps = []
            for img, _, _, box in entries:
                best_j, best_iou = -1, -1.0
                for j, gt_box in enumerate(cls_boxes[img]):
                    if used[img][j]:
                        continue
                    v = iou_scalar(box, gt_box)
                    if v > best_iou:
                        best_iou, best_j = v, j
                if best_j >= 0 and best_iou >= thr:
                    used[img][best_j] = True
                    tps.append(True)
                else:
                    tps.append(False)
            # precision/recall sweep
            precisions, recalls = [], []
            tp = fp = 0
            for flag in tps:
                tp += 1 if flag else 0
                fp += 0 if flag else 1
                precisions.append(tp / (tp + fp))
                recalls.append(tp / n_gt if n_gt else 0.0)
            ap = 0.0
            for i in range(recall_points):
                r = i / (recall_points - 1)
                best_p = 0.0
                for p, rec in zip(precisions, recalls):
                    if rec >= r - 1e-12 and p > best_p:
                        best_p = p
                ap += best_p
            ap /= recall_points
            per_class_at[thr][cls] = ap
            ap_sum += ap
        per_class[cls] = ap_sum / len(iou_thresholds)

    def mean(d):
        return sum(d.values()) / len(d) if d else 0.0

    return {
        "AP": mean(per_class),
        "AP50": mean(per_class_at.get(0.5, {})),
        "AP75": mean(per_class_at.get(0.75, {})),
        "per_class": per_class,
    }


# ---------------------------------------------------------------------------
# prediction collection for one grid


def sigmoid_scalar(z) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def coarse_box_reference(cx, cy, stride, raw):
    """Coarse box (l, t, r, b): side k sits exp(clamped raw[k]) * stride
    from the grid's image point (cx, cy)."""
    d = [math.exp(min(max(float(raw[k]), -COARSE_RAW_LIMIT), COARSE_RAW_LIMIT)) * stride
         for k in range(4)]
    return (cx - d[0], cy - d[1], cx + d[2], cy + d[3])


def boundary_points_reference(box, raw):
    """One (x, y) point per coarse edge in l, t, r, b order: the edge
    midpoint moved along the edge by tanh(raw) of half the edge length."""
    l, t, r, b = box
    mx, my = 0.5 * (l + r), 0.5 * (t + b)
    hw, hh = 0.5 * (r - l), 0.5 * (b - t)
    return [
        (l, my + math.tanh(raw[0]) * hh),
        (mx + math.tanh(raw[1]) * hw, t),
        (r, my + math.tanh(raw[2]) * hh),
        (mx + math.tanh(raw[3]) * hw, b),
    ]


def semantic_points_reference(box, raw):
    """N = root^2 points: point k starts at cell center (k % root, k // root)
    of a root x root grid over the box and moves by tanh of its raw (x, y)
    pair times half the box extents."""
    l, t, r, b = box
    n = len(raw) // 2
    root = math.isqrt(n)
    pts = []
    for k in range(n):
        col, row = k % root, k // root
        x = l + (col + 0.5) / root * (r - l) + 0.5 * math.tanh(raw[2 * k]) * (r - l)
        y = t + (row + 0.5) / root * (b - t) + 0.5 * math.tanh(raw[2 * k + 1]) * (b - t)
        pts.append((x, y))
    return pts


def level_weights_reference(raw, k, qs=None):
    """Softmax over each side's raw values ``raw[side * k + q]`` for q in
    ``qs`` (default: all k). Returns 4 rows, one weight per q."""
    qs = range(k) if qs is None else qs
    rows = []
    for side in range(4):
        vals = [float(raw[side * k + q]) for q in qs]
        top = max(vals)
        e = [math.exp(v - top) for v in vals]
        rows.append([v / sum(e) for v in e])
    return rows


def bilinear_reference(map2d, x, y) -> float:
    """Bilinear sample of an [H,W] map at grid coordinate (x, y), with the
    coordinates clamped to [0, W-1] x [0, H-1]."""
    h, w = len(map2d), len(map2d[0])
    x = min(max(x, 0.0), w - 1.0)
    y = min(max(y, 0.0), h - 1.0)
    x0, y0 = int(math.floor(x)), int(math.floor(y))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fx, fy = x - x0, y - y0
    top = (1.0 - fx) * map2d[y0][x0] + fx * map2d[y0][x1]
    bot = (1.0 - fx) * map2d[y1][x0] + fx * map2d[y1][x1]
    return float((1.0 - fy) * top + fy * bot)


def neighbor_levels_reference(level, n_levels, offsets):
    """``(q, level + offsets[q])`` for every neighbor level that exists, or
    ``[(None, level)]`` when none does."""
    out = [(q, level + off) for q, off in enumerate(offsets) if 0 <= level + off < n_levels]
    return out or [(None, level)]


def collect_box_reference(level_maps, boundary, weights, level, offsets):
    """Final box sides (l, t, r, b) of one grid: per side, the boundary
    point's own coordinate plus the weighted image-space regression samples
    of the neighbor levels. ``level_maps[i]`` has ``stride`` and ``reg``
    ([4,h,w], image offset = value * stride); ``weights`` is [4][K]."""
    levels = neighbor_levels_reference(level, len(level_maps), offsets)
    out = []
    for side in range(4):
        x, y = boundary[side]
        acc = 0.0
        for a, (_, li) in enumerate(levels):
            m = level_maps[li]
            v = bilinear_reference(m.reg[side], x / m.stride - 0.5, y / m.stride - 0.5)
            acc += weights[side][a] * v * m.stride
        out.append(acc + (x if side in (0, 2) else y))
    return tuple(out)


def class_scores_reference(cls, classes, semantic, stride):
    """Per class, sigmoid of the summed samples where semantic point n reads
    only its own map ``cls[n * classes + c]`` ([N*C,h,w] logits)."""
    scores = []
    for c in range(classes):
        total = 0.0
        for n, (x, y) in enumerate(semantic):
            total += bilinear_reference(cls[n * classes + c], x / stride - 0.5, y / stride - 0.5)
        scores.append(sigmoid_scalar(total))
    return scores


def collect_grid_reference(level_maps, level, i, j, loc_decoupled, cls_decoupled, offsets,
                           classes):
    """Scalar collection of grid (i, j) of ``level``: ``(coarse box, boundary
    points, semantic points, weights [4][K], final box, class scores)``.
    ``level_maps[l]`` has ``stride`` and the raw maps ``reg``, ``cls``,
    ``coarse``, ``bshift``, ``sshift`` and ``lvlw`` (the last three may be
    None); ``offsets`` are the neighbor offsets the mode reads. A
    coordinate that is not decoupled sits at the grid itself, and levels
    without learned weights blend uniformly."""
    m = level_maps[level]
    cx, cy = (j + 0.5) * m.stride, (i + 0.5) * m.stride
    coarse = coarse_box_reference(cx, cy, m.stride, [m.coarse[k][i][j] for k in range(4)])
    if loc_decoupled:
        boundary = boundary_points_reference(coarse, [m.bshift[k][i][j] for k in range(4)])
    else:
        boundary = [(cx, cy)] * 4
    if cls_decoupled:
        semantic = semantic_points_reference(
            coarse, [m.sshift[k][i][j] for k in range(len(m.sshift))])
    else:
        semantic = [(cx, cy)]
    levels = neighbor_levels_reference(level, len(level_maps), offsets)
    if loc_decoupled and m.lvlw is not None and levels[0][0] is not None:
        weights = level_weights_reference([m.lvlw[k][i][j] for k in range(len(m.lvlw))],
                                          len(offsets), [q for q, _ in levels])
    else:
        weights = [[1.0 / len(levels)] * len(levels) for _ in range(4)]
    box = collect_box_reference(level_maps, boundary, weights, level, offsets)
    scores = class_scores_reference(m.cls, classes, semantic, m.stride)
    return coarse, boundary, semantic, weights, box, scores


def focal_loss_reference(scores, targets, alpha=0.25, gamma=2.0, n_positives=None) -> float:
    """Focal loss on probabilities: ``scores[g][c]`` in [0, 1], ``targets[g]``
    the positive class or -1. Sum of -a_t (1 - p_t)^gamma log p_t over every
    grid-class pair (0 where p_t = 1), over max(1, positives)."""
    total = 0.0
    for g, row in enumerate(scores):
        for c, p in enumerate(row):
            pos = targets[g] == c
            p_t = p if pos else 1.0 - p
            if p_t < 1.0:
                total += -(alpha if pos else 1.0 - alpha) * (1.0 - p_t) ** gamma * math.log(p_t)
    if n_positives is None:
        n_positives = sum(1 for t in targets if t >= 0)
    return total / max(1, n_positives)


def _conv_taps(h, w, k, stride, padding, i, j):
    """``(u, v, y, x)`` for every kernel tap of output (i, j) that lands
    inside the [H,W] input; taps in the zero padding are left out."""
    for u in range(k):
        for v in range(k):
            y, x = i * stride + u - padding, j * stride + v - padding
            if 0 <= y < h and 0 <= x < w:
                yield u, v, y, x


def conv2d_reference(x, w, b, stride, padding):
    """Cross-correlation by its definition: ``x`` [Cin][H][W], ``w``
    [Cout][Cin][k][k], ``b`` [Cout] or None. ``y[o][i][j]`` is ``b[o]`` plus
    ``w[o][c][u][v] * x[c][i*stride + u - padding][j*stride + v - padding]``
    summed over c, u, v, with x read as zero outside its extent."""
    cin, h, wd, k = len(x), len(x[0]), len(x[0][0]), len(w[0][0])
    ho, wo = (h + 2 * padding - k) // stride + 1, (wd + 2 * padding - k) // stride + 1
    out = [[[0.0] * wo for _ in range(ho)] for _ in w]
    for o in range(len(w)):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0 if b is None else float(b[o])
                for c in range(cin):
                    for u, v, y, xx in _conv_taps(h, wd, k, stride, padding, i, j):
                        acc += w[o][c][u][v] * x[c][y][xx]
                out[o][i][j] = float(acc)
    return out


def conv2d_backward_reference(x, w, gy, stride, padding, has_bias=True):
    """Gradients of ``sum(gy * conv2d_reference(x, w, b, ...))`` with respect
    to x, w and b, accumulated tap by tap. Returns ``(gx, gw, gb)`` as nested
    lists; ``gb`` is None without a bias."""
    cin, h, wd, k = len(x), len(x[0]), len(x[0][0]), len(w[0][0])
    gx = [[[0.0] * wd for _ in range(h)] for _ in range(cin)]
    gw = [[[[0.0] * k for _ in range(k)] for _ in range(cin)] for _ in w]
    gb = [0.0] * len(w)
    for o in range(len(w)):
        for i in range(len(gy[o])):
            for j in range(len(gy[o][i])):
                g = float(gy[o][i][j])
                gb[o] += g
                for c in range(cin):
                    for u, v, y, xx in _conv_taps(h, wd, k, stride, padding, i, j):
                        gx[c][y][xx] += w[o][c][u][v] * g
                        gw[o][c][u][v] += x[c][y][xx] * g
    return gx, gw, (gb if has_bias else None)
