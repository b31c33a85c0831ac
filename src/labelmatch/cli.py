"""Command-line surface: train, eval, ablation, gradcheck, stats.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data or file
error, 3 verification failure.

cmd_train writes two files next to --out PATH: the checkpoint itself and a
history CSV at PATH.history.csv (no header; one `epoch,train_loss,
train_acc,test_acc` line per epoch). It checks that --out can be written
before the first epoch, so a bad path exits 2 without training; cmd_ablation
checks its --out reports the same way. cmd_eval builds the model from the
checkpoint alone, which holds the config, the vocabulary, the labels and
their phrases behind a sha256 trailer, and reads only the checkpoint and the
test TSV.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from .corpus import dataset_stats, load_dataset, load_verbalizer
from .errors import DataError, LabelMatchError, VerificationError
from .fusion import FUSION_MODES
from .gradcheck import run_all
from .trainer import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

CLI_BATCH_SIZES = (32, 64)  # the trainer takes any batch size >= 1
ABLATION_ROWS = (("No", "No", "none"), ("Yes", "Add", "add"), ("Yes", "Dot Product", "dot"))

# One BLAS thread per ablation worker: the workers already fill the cores, and
# BLAS threads inside each would oversubscribe them. Results do not depend on it.
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


def _load_pair(train_path, test_path, verbalizer_path):
    train_set = load_dataset(train_path, split="train")
    test_set = load_dataset(test_path, split="test")
    verbalizer = load_verbalizer(verbalizer_path) if verbalizer_path else None
    return train_set, test_set, verbalizer


def _config_from_args(args, **fields) -> TrainConfig:
    """TrainConfig from the flags add_train_flags declares, plus `fields`."""
    return TrainConfig(batch_size=args.batch, epochs=args.epochs, dim=args.dim, **fields)


def _epoch_line(row) -> str:
    return f"{row.epoch},{row.train_loss:.6f},{row.train_acc:.6f},{row.test_acc:.6f}"


def _write_history(path, history) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in history.epochs:
            f.write(_epoch_line(row) + "\n")


def _check_writable(*paths) -> None:
    """Raise the OSError that writing a new file at each of `paths` (the
    checkpoint and its history file, or the ablation reports) would meet: a
    directory in its place, or a directory that does not take new files."""
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        try:
            with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))):
                pass
        except OSError as exc:   # name `path`, not the probe file
            raise type(exc)(exc.errno, exc.strerror, str(path)) from None


def cmd_train(args) -> int:
    train_set, test_set, verbalizer = _load_pair(args.train, args.test, args.verbalizer)
    config = _config_from_args(args, fusion_mode=args.fusion, seed=args.seed)
    history_path = f"{args.out}.history.csv"
    _check_writable(args.out, history_path)  # fail before training, not after it

    def progress(stats):
        print(f"epoch={stats.epoch} train_loss={stats.train_loss:.4f} "
              f"train_acc={stats.train_acc:.2f} test_acc={stats.test_acc:.2f} "
              f"({stats.seconds:.1f}s)")

    model, history = train(config, train_set, test_set, verbalizer, progress=progress)
    save_checkpoint(model, args.out)
    _write_history(history_path, history)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    test_set = load_dataset(args.test, split="test")
    result = evaluate(model, test_set)
    print(f"accuracy {result.accuracy_pct:.1f} ({result.correct}/{result.total})")
    for name in model.labels.label_names:
        gold, correct = result.per_class.get(name, (0, 0))
        if gold:
            print(f"  {name}: {correct}/{gold}")
    return 0


def _ablation_worker(payload):
    config, *paths = payload
    train_set, test_set, verbalizer = _load_pair(*paths)
    model, history = train(config, train_set, test_set, verbalizer)
    if history.epochs:
        return config.fusion_mode, config.seed, history.epochs[-1].test_acc, history.epochs
    return config.fusion_mode, config.seed, evaluate(model, test_set).accuracy_pct, []


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


def run_ablation(args):
    """Train every fusion mode for every seed; deterministic per (mode, seed).
    Returns the test accuracy percentage and the EpochStats list of each."""
    repeated = sorted({s for s in args.seeds if args.seeds.count(s) > 1})
    if repeated:
        raise DataError(f"--seeds repeats {', '.join(map(str, repeated))}; give each seed once")
    # the pool is imported here: no other command needs it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(_config_from_args(args, fusion_mode=mode, seed=seed),
             args.train, args.test, args.verbalizer)
            for _, _, mode in ABLATION_ROWS for seed in args.seeds]

    results, curves = {}, {}
    spawn = multiprocessing.get_context("spawn")  # fresh workers read WORKER_ENV
    with _environment(WORKER_ENV), \
            ProcessPoolExecutor(max_workers=args.jobs, mp_context=spawn) as pool:
        for mode, seed, acc, epochs in pool.map(_ablation_worker, jobs):
            results[(mode, seed)] = acc
            curves[(mode, seed)] = epochs
            print(f"done fusion={mode} seed={seed} acc={acc:.1f}")
    return results, curves


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
    reports = [f"{args.out}{suffix}" for suffix in (".txt", ".csv", ".epochs.csv") if args.out]
    _check_writable(*reports)  # fail before training, not after it
    results, curves = run_ablation(args)
    table, csv = render_ablation(dataset, args.seeds, results)
    print(table)
    if reports:
        epochs = ["fusion_method,seed,epoch,train_loss,train_acc,test_acc"]
        epochs += [f"{name},{seed},{_epoch_line(row)}" for _, name, mode in ABLATION_ROWS
                   for seed in args.seeds for row in curves[(mode, seed)]]
        for path, text in zip(reports, (table, csv, "\n".join(epochs))):
            Path(path).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {' / '.join(reports)}")
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
                   help="ignored: the checkpoint holds the vocabulary (to be removed, "
                        "see ROADMAP item 1)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation", help="train all three fusion modes over several seeds")
    add_train_flags(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4], help="distinct seeds")
    p.add_argument("--jobs", type=_bounded_int("jobs", 1, 64), default=1,
                   help="run configurations concurrently")
    p.add_argument("--out", default=None, help="basename for the .txt/.csv/.epochs.csv reports")
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
