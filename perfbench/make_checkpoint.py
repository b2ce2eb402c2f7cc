#!/usr/bin/env python3
"""Recipe for the frozen eval checkpoint and its manifest.

    python3 perfbench/make_checkpoint.py

Trains the default config (``TrainConfig``) for 1000 iterations at seed 0
with ``train_from_config``, saves ``eval_model.pdn`` and writes
``eval_model.json`` with the file's SHA-256 and the checkpoint's AP on the
reference held-out set at both eval thresholds. Training is bit-reproducible,
so the same source tree rebuilds the same bytes; a tree that reorders float
operations may not, which is why the eval workloads load the stored file and
refuse one whose hash differs.
"""

from __future__ import annotations

import json
import sys
import time

from run import bootstrap, source_sha256

RECIPE = {"seed": 0, "iters": 1000}
REFERENCE = {"seed": 0, "scenes": 50}
AP_TOLERANCE = 1e-6


def main() -> int:
    bootstrap()
    import workloads
    from pointdet.config import TrainConfig
    from pointdet.training import train_from_config

    t0 = time.perf_counter()
    model, history = train_from_config(TrainConfig(**RECIPE))
    print(f"trained {len(history)} iterations in {time.perf_counter() - t0:.1f} s, "
          f"final loss {history[-1]['total']:.4f}", file=sys.stderr)
    model.save(workloads.CHECKPOINT)
    manifest = {
        "recipe": {
            "command": "python3 perfbench/make_checkpoint.py",
            "train_from_config": dict(TrainConfig(**RECIPE).__dict__),
            "source_sha256": source_sha256(),
        },
        "sha256": workloads.file_sha256(workloads.CHECKPOINT),
        "reference": {
            **REFERENCE,
            "stream": "training.holdout_scenes(TrainConfig(seed=reference.seed), reference.scenes)",
            "ap": {},
            "ap_tolerance": AP_TOLERANCE,
        },
    }
    for workload, thresh in workloads.SCORE_THRESH.items():
        manifest["reference"]["ap"][workload] = workloads.reference_ap(model, thresh, manifest)
    with open(workloads.MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    print(json.dumps(manifest["reference"]["ap"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
