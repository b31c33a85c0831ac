"""Command-line surface: train, eval, ablation, gradcheck, stats.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data or file
error, 3 verification failure.

cmd_train writes three files next to --out PATH: the checkpoint itself, a
history CSV at PATH.history.csv (no header; one `epoch,train_loss,
train_acc,test_acc` line per epoch), and a run manifest at
PATH.manifest.json recording the config, dataset paths with sha256 content
hashes, and timestamps. It checks that --out can be written before the
first epoch, so a bad path exits 2 without training. cmd_eval rebuilds the
vocabulary from the manifest's train dataset (override with --train) and
refuses fingerprint mismatches.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import multiprocessing
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from .corpus import dataset_stats, load_dataset, load_verbalizer
from .errors import DataError, LabelMatchError, VerificationError
from .fusion import FUSION_MODES
from .gradcheck import run_all
from .trainer import (TrainConfig, evaluate, load_checkpoint, model_vocab,
                      read_checkpoint_header, save_checkpoint, train)

CLI_BATCH_SIZES = (32, 64)  # the trainer takes any batch size >= 1
ABLATION_ROWS = (("No", "No", "none"), ("Yes", "Add", "add"), ("Yes", "Dot Product", "dot"))

# One BLAS thread per ablation worker: the workers already fill the cores, and
# BLAS threads inside each would oversubscribe them. One setting for every
# worker also keeps results independent of --jobs (see README, Determinism).
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _batch_size(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value not in CLI_BATCH_SIZES:
        raise argparse.ArgumentTypeError("batch size is selected from [32, 64]")
    return value


def _bounded_int(name: str, lo: int, hi: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be an integer") from exc
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo}, {hi}]")
        return value
    return parse


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_pair(train_path, test_path, verbalizer_path):
    train_set = load_dataset(train_path, split="train")
    test_set = load_dataset(test_path, split="test")
    verbalizer = load_verbalizer(verbalizer_path) if verbalizer_path else None
    return train_set, test_set, verbalizer


def _config_from_args(args, **fields) -> TrainConfig:
    """TrainConfig from the flags add_train_flags declares, plus `fields`."""
    return TrainConfig(batch_size=args.batch, epochs=args.epochs, dim=args.dim, **fields)


def _write_history(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in history.epochs:
            f.write(f"{row.epoch},{row.train_loss:.6f},{row.train_acc:.6f},{row.test_acc:.6f}\n")


def _write_manifest(path, args, config: TrainConfig, started: float) -> None:
    manifest = {
        "config": asdict(config),
        "train_path": str(Path(args.train).resolve()),
        "train_sha256": _sha256(args.train),
        "test_path": str(Path(args.test).resolve()),
        "test_sha256": _sha256(args.test),
        "verbalizer_path": str(Path(args.verbalizer).resolve()) if args.verbalizer else None,
        "verbalizer_sha256": _sha256(args.verbalizer) if args.verbalizer else None,
        "checkpoint_path": str(Path(args.out).resolve()),
        "started_unix": started,
        "finished_unix": time.time(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def _check_writable(path) -> None:
    """Raise the OSError that writing the checkpoint and its two companion
    files would meet: a directory at `path`, or a directory that does not
    take new files."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
        pass


def cmd_train(args) -> int:
    started = time.time()
    train_set, test_set, verbalizer = _load_pair(args.train, args.test, args.verbalizer)
    config = _config_from_args(args, fusion_mode=args.fusion, seed=args.seed)
    _check_writable(args.out)  # fail before training, not after it

    def progress(stats):
        print(f"epoch={stats.epoch} train_loss={stats.train_loss:.4f} "
              f"train_acc={stats.train_acc:.2f} test_acc={stats.test_acc:.2f} "
              f"({stats.seconds:.1f}s)")

    model, history = train(config, train_set, test_set, verbalizer, progress=progress)
    save_checkpoint(model, args.out)
    _write_history(f"{args.out}.history.csv", history)
    _write_manifest(f"{args.out}.manifest.json", args, config, started)
    print(f"checkpoint written to {args.out}")
    return 0


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a JSON object")
    return manifest


def _manifest_field(manifest: dict, key: str, path: Path) -> str:
    value = manifest.get(key)
    if not isinstance(value, str):
        raise DataError(f"{path}: no {key!r} string in the manifest")
    return value


def _vocab_for_checkpoint(args, config: TrainConfig):
    verbalizer = None
    train_path = args.train
    if train_path is None or args.verbalizer is None:
        manifest_path = Path(f"{args.checkpoint}.manifest.json")
        if not manifest_path.exists():
            if train_path is None:
                raise DataError(f"no manifest at {manifest_path}; pass --train explicitly")
            manifest = None
        else:
            manifest = _read_manifest(manifest_path)
            if train_path is None:
                train_path = _manifest_field(manifest, "train_path", manifest_path)
                if _sha256(train_path) != _manifest_field(manifest, "train_sha256", manifest_path):
                    raise DataError(f"{train_path}: content hash differs from the manifest")
            if args.verbalizer is None and manifest.get("verbalizer_path"):
                vpath = _manifest_field(manifest, "verbalizer_path", manifest_path)
                if _sha256(vpath) != _manifest_field(manifest, "verbalizer_sha256", manifest_path):
                    raise DataError(f"{vpath}: content hash differs from the manifest")
                verbalizer = load_verbalizer(vpath)
    if args.verbalizer is not None:
        verbalizer = load_verbalizer(args.verbalizer)

    train_set = load_dataset(train_path, split="train")
    vocab = model_vocab(train_set, config.min_freq, verbalizer)
    return vocab, train_set.label_names, verbalizer


def cmd_eval(args) -> int:
    config, _ = read_checkpoint_header(args.checkpoint)
    vocab, label_names, verbalizer = _vocab_for_checkpoint(args, config)
    model = load_checkpoint(args.checkpoint, vocab, label_names, verbalizer)
    test_set = load_dataset(args.test, split="test")
    result = evaluate(model, test_set)
    print(f"accuracy {result.accuracy_pct:.1f} ({result.correct}/{result.total})")
    for name in label_names:
        gold, correct = result.per_class.get(name, (0, 0))
        if gold:
            print(f"  {name}: {correct}/{gold}")
    return 0


def _ablation_worker(payload) -> tuple[str, int, float]:
    config, *paths = payload
    train_set, test_set, verbalizer = _load_pair(*paths)
    model, history = train(config, train_set, test_set, verbalizer)
    if history.epochs:
        return config.fusion_mode, config.seed, history.epochs[-1].test_acc
    return config.fusion_mode, config.seed, evaluate(model, test_set).accuracy_pct


@contextmanager
def _environment(overrides: dict[str, str]):
    """Set environment variables for processes started inside the block."""
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run_ablation(args) -> dict[tuple[str, int], float]:
    """Train every fusion mode for every seed; deterministic per (mode, seed).
    Returns the test accuracy percentage of each (mode, seed)."""
    repeated = sorted({s for s in args.seeds if args.seeds.count(s) > 1})
    if repeated:
        raise DataError(f"--seeds repeats {', '.join(map(str, repeated))}; give each seed once")
    jobs = [(_config_from_args(args, fusion_mode=mode, seed=seed),
             args.train, args.test, args.verbalizer)
            for _, _, mode in ABLATION_ROWS for seed in args.seeds]

    results: dict[tuple[str, int], float] = {}
    spawn = multiprocessing.get_context("spawn")  # fresh workers read WORKER_ENV
    with _environment(WORKER_ENV), \
            ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
        for mode, seed, acc in pool.map(_ablation_worker, jobs):
            results[(mode, seed)] = acc
            print(f"done fusion={mode} seed={seed} acc={acc:.1f}")
    return results


def render_ablation(dataset: str, seeds, results) -> tuple[str, str]:
    """The ablation table and its CSV twin from run_ablation's results; each
    row's mean sums its accuracies in seed order."""
    table = [f"{'Label Embeddings':<18}{'Fusion Method':<15}{dataset}"]
    details = ["", f"seeds: {', '.join(str(s) for s in seeds)}"]
    csv = ["label_embeddings,fusion_method,dataset,seed,accuracy"]
    for emb, name, mode in ABLATION_ROWS:
        accs = [results[(mode, s)] for s in seeds]
        mean = sum(accs) / len(accs)
        table.append(f"{emb:<18}{name:<15}{mean:.1f}")
        details.append(f"{name}: " + "  ".join(f"seed {s}: {a:.1f}" for s, a in zip(seeds, accs)))
        csv += [f"{emb},{name},{dataset},{s},{a:.6f}" for s, a in zip(seeds, accs)]
        csv.append(f"{emb},{name},{dataset},mean,{mean:.6f}")
    return "\n".join(table + details), "\n".join(csv)


def cmd_ablation(args) -> int:
    dataset = Path(args.train).name.split(".")[0]
    table, csv = render_ablation(dataset, args.seeds, run_ablation(args))
    print(table)
    if args.out:
        Path(f"{args.out}.txt").write_text(table + "\n", encoding="utf-8")
        Path(f"{args.out}.csv").write_text(csv + "\n", encoding="utf-8")
        print(f"report written to {args.out}.txt / {args.out}.csv")
    return 0


def cmd_gradcheck(args) -> int:
    started = time.monotonic()
    outcomes = run_all(dim=args.dim, max_len=args.maxlen, vocab_size=args.vocab)
    failures = []
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{outcome.report.op_name:<18} max_rel_err={outcome.report.max_rel_err:.3e} "
              f"threshold={outcome.threshold:.0e} {status}")
        if not outcome.passed:
            failures.append(outcome.report.op_name)
    print(f"total {time.monotonic() - started:.1f}s")
    if failures:
        raise VerificationError(f"gradient checks failed: {', '.join(failures)}")
    return 0


def cmd_stats(args) -> int:
    dataset = load_dataset(args.data)
    stats = dataset_stats(dataset)
    print(f"{stats.num_classes} classes, {stats.num_examples} examples, "
          f"avg {stats.avg_token_len:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="labelmatch",
                     description="Train and evaluate label-matching intent classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_train_flags(p):
        p.add_argument("--train", required=True, help="train TSV (label<TAB>text)")
        p.add_argument("--test", required=True, help="test TSV")
        p.add_argument("--dim", type=_bounded_int("dim", 1, 4096), default=TrainConfig.dim)
        p.add_argument("--batch", type=_batch_size, default=TrainConfig.batch_size,
                       metavar="{32,64}")
        p.add_argument("--epochs", type=_bounded_int("epochs", 0, 100000),
                       default=TrainConfig.epochs)
        p.add_argument("--verbalizer", default=None,
                       help="JSON file mapping label -> phrase")

    p = sub.add_parser("train", help="train one model")
    add_train_flags(p)
    p.add_argument("--fusion", choices=FUSION_MODES, default=TrainConfig.fusion_mode)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", default=None,
                   help="train TSV for vocabulary rebuild (default: from the manifest)")
    p.add_argument("--verbalizer", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation", help="train all three fusion modes over several seeds")
    add_train_flags(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4], help="distinct seeds")
    p.add_argument("--jobs", type=_bounded_int("jobs", 1, 64), default=1,
                   help="run configurations concurrently")
    p.add_argument("--out", default=None, help="basename for the .txt/.csv report")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("gradcheck", help="finite-difference checks, float64")
    p.add_argument("--dim", type=_bounded_int("dim", 2, 16), default=8)
    p.add_argument("--maxlen", type=_bounded_int("maxlen", 2, 12), default=6)
    p.add_argument("--vocab", type=_bounded_int("vocab", 8, 128), default=50)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except (LabelMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
