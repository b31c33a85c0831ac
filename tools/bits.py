#!/usr/bin/env python3
"""Print a fingerprint of the program's numeric bits.

Two sections, one line each:

* every `gradcheck.run_all` report as `op_name max_rel_err.hex()`, at the
  (dim, max_len, vocab_size) points (8, 6, 50), (2, 12, 128), (16, 2, 8)
  and (3, 3, 9): 44 reports;
* per dataset (TREC6, ATIS) and head (none, add, dot), one training epoch at
  seed 7 with the other TrainConfig defaults: the first 16 hex digits of the
  sha256 of the float32 value store, the epoch's `train_loss` as hex, and
  the first 16 hex digits of the sha256 of the file that `save_checkpoint`
  writes for the model (in a temporary directory).

A change that claims to keep every bit, checkpoint bytes included, prints
the same text as its parent:

    python3 tools/bits.py > after.txt
    mkdir ../parent && git archive <parent> | tar -x -C ../parent
    cp tools/bits.py ../parent/tools/ && python3 ../parent/tools/bits.py > before.txt
    diff before.txt after.txt

The script imports labelmatch from the `src/` of the checkout it sits in.
It takes 5-10 s on two cores.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from labelmatch import TrainConfig, load_dataset, save_checkpoint, train  # noqa: E402
from labelmatch.fusion import FUSION_MODES  # noqa: E402
from labelmatch.gradcheck import run_all  # noqa: E402

GRADCHECK_POINTS = ((8, 6, 50), (2, 12, 128), (16, 2, 8), (3, 3, 9))
DATASETS = ("trec6", "atis")
SEED = 7


def checkpoint_digest(model) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def main() -> None:
    for dim, max_len, vocab_size in GRADCHECK_POINTS:
        print(f"gradcheck dim={dim} max_len={max_len} vocab={vocab_size}")
        for outcome in run_all(dim, max_len, vocab_size):
            print(f"  {outcome.report.op_name} {outcome.report.max_rel_err.hex()}")
    for name in DATASETS:
        train_set = load_dataset(ROOT / "data" / f"{name}.train.tsv", split="train")
        test_set = load_dataset(ROOT / "data" / f"{name}.test.tsv", split="test")
        for mode in FUSION_MODES:
            config = TrainConfig(fusion_mode=mode, epochs=1, seed=SEED)
            model, history = train(config, train_set, test_set)
            digest = hashlib.sha256(model.store.value.tobytes()).hexdigest()[:16]
            loss = history.epochs[-1].train_loss
            print(f"train {name} {mode} store={digest} train_loss={loss.hex()} "
                  f"checkpoint={checkpoint_digest(model)}")


if __name__ == "__main__":
    main()
