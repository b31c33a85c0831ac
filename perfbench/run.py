"""End-to-end benchmark of labelmatch, with a traced run for per-layer costs.

    python3 perfbench/run.py --workload trec6-train --seed 0 --seconds 54 --trace 0

Run it from the root of a source checkout (it imports `src/labelmatch` and
reads `data/`). One process runs one workload through labelmatch's public
functions only. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it, and
`perfbench/out/result-<workload>-seed<seed>-trace<t>.json`, record the
environment, the sample counts and every failed check.

Workloads (the seed goes to the program only as `TrainConfig.seed`):

* trec6-train: TREC6, K=6, vocab 8,686. The 8,686 x 64 embedding makes the
  Adam step heavy (its value, grad and two moments exceed L2), while the
  label path is light.
* atis-train: ATIS, K=22, vocab 907. Twenty-two label phrases are encoded
  forward and backward every step, while the embedding fits in L2.

Both also run `gradcheck.run_all()`: float64, d=8 and 3-example batches,
where per-call Python overhead dominates and Adam never runs.

A run sets up SETUP_REPS times, then runs units of repeated cycles until
`--seconds` have passed. A cycle takes the heads in turn (the order rotates
per cycle): it trains the head for one epoch (`lm.train`, default config),
evaluates it over the train split, and runs `labelmatch eval` in-process on
the saved dot checkpoint COLD_EVALS_PER_HEAD times; `gradcheck.run_all()` at
the CLI defaults runs after the first and the last head. So every workload
reports every end-to-end metric, and each metric's samples spread over the
whole run. `setup_s` is the import time, taken once from the first line of
this script, plus the median of the SETUP_REPS set-ups (both TSV loads and
`build_model`). Train and eval throughputs divide the examples of all the
run's calls by their total wall time, `eval_cold_s` and `gradcheck_s` are
means per call, and `step_ms_*` pool every optimizer step of the run.

With `--trace 0` it reports the end-to-end metrics; only two boundary timers
(batch_step entry, adam_step exit) are installed, for the step latency. With
`--trace 1` it runs set-up and one cycle three times, the middle one with
every public function of corpus, nncore, encoder, fusion, trainer, gradcheck
and cli wrapped. It reports per-function calls, self time and time per
call, the encoder rows inside optimizer steps, and the tracing overhead as
the traced wall minus the mean of the two untraced walls. The spans go to
`perfbench/out/spans-<workload>-seed<seed>.npz`.

Which end-to-end metric each layer should move:

* trainer.adam_step, nncore.embed_backward: train_examples_per_s.* and
  step_ms_* on trec6-train; little on atis-train.
* encoder.encode_labels_*, encoder.label_row_share: train_examples_per_s.add
  and .dot on atis-train; little on trec6-train, nothing for .none.
* nncore.attention_*, nncore.ffn_*, fusion.score_*: every throughput, and
  gradcheck_s through ms_per_call.
* corpus.*, trainer.build_model: setup_s.
* trainer.save_checkpoint/load_checkpoint, cli.cmd_eval: eval_cold_s.
* gradcheck.batch_loss calls x ms_per_call: gradcheck_s.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import ctypes
import functools
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = {"trec6-train": "trec6", "atis-train": "atis"}  # -> data/<name>.{train,test}.tsv
HEADS = ("dot", "none", "add")  # dot first: its checkpoint feeds the cold evals
EPOCHS = 1
SETUP_REPS = 5
COLD_EVALS_PER_HEAD = 3
GRADCHECK = {"dim": 8, "max_len": 6, "vocab_size": 50}   # the CLI defaults
TINY_EXAMPLES = (64, 16)
TINY_GRADCHECK = {"dim": 4, "max_len": 4, "vocab_size": 12}


# --- environment -------------------------------------------------------------

def _blas_threads(numpy) -> dict:
    """Thread count as the bundled OpenBLAS reports it, else env and nproc."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"threads": fn(), "source": f"{lib.name}:{symbol}"}
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")}
    return {"threads": None, "source": "env", "env": env,
            "nproc": len(os.sched_getaffinity(0))}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "labelmatch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _blas_threads(numpy),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(), "source_sha256": digest.hexdigest()}


# --- inputs ------------------------------------------------------------------

def _write_tsv(path: Path, rows) -> Path:
    path.write_text("".join(f"{label}\t{text}\n" for label, text in rows), encoding="utf-8")
    return path


def _read_rows(path: Path) -> list[tuple[str, str]]:
    return [tuple(line.split("\t", 1))
            for line in path.read_text(encoding="utf-8").splitlines()]


def prepare_inputs(dataset: str, workdir: Path, tiny: bool) -> tuple[Path, Path]:
    """Train and test TSV paths; tiny runs use truncated copies."""
    train = ROOT / "data" / f"{dataset}.train.tsv"
    test = ROOT / "data" / f"{dataset}.test.tsv"
    if not tiny:
        return train, test
    train_rows = _read_rows(train)[:TINY_EXAMPLES[0]]
    seen = {label for label, _ in train_rows}
    test_rows = [r for r in _read_rows(test) if r[0] in seen][:TINY_EXAMPLES[1]]
    return _write_tsv(workdir / "train.tsv", train_rows), _write_tsv(workdir / "test.tsv", test_rows)


# --- one run -----------------------------------------------------------------

@dataclass
class Run:
    """State and samples of one workload run."""

    lm: object
    seed: int
    train_path: Path
    test_path: Path
    workdir: Path
    gradcheck_args: dict
    attempted: int = 0
    failures: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    train_s: dict = field(default_factory=lambda: {h: [] for h in HEADS})
    eval_s: dict = field(default_factory=lambda: {h: [] for h in HEADS})
    cold_s: list = field(default_factory=list)
    gradcheck_s: list = field(default_factory=list)
    cycles: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def config(self, head: str):
        return self.lm.TrainConfig(fusion_mode=head, epochs=EPOCHS, seed=self.seed)

    def setup(self) -> None:
        t = time.perf_counter()
        self.train_set = self.lm.load_dataset(self.train_path, split="train")
        self.test_set = self.lm.load_dataset(self.test_path, split="test")
        self.lm.build_model(self.config("dot"), self.train_set)
        self.setup_s.append(time.perf_counter() - t)

    def train_and_evaluate(self, head: str) -> None:
        ln_k = math.log(len(self.train_set.label_names))
        t = time.perf_counter()
        model, history = self.lm.train(self.config(head), self.train_set, self.test_set)
        self.train_s[head].append(time.perf_counter() - t)
        loss = history.epochs[-1].train_loss
        self.check(math.isfinite(loss) and loss < ln_k,
                   f"{head}: last-epoch mean loss {loss:.4f} not below ln K = {ln_k:.4f}")
        t = time.perf_counter()
        self.lm.evaluate(model, self.train_set)
        self.eval_s[head].append(time.perf_counter() - t)
        if head == "dot":
            self.save_dot(model)

    def save_dot(self, model) -> None:
        """Write the dot checkpoint and its in-memory test accuracy (untimed)."""
        self.checkpoint = self.workdir / "dot.ckpt"
        self.lm.save_checkpoint(model, self.checkpoint)
        loaded = self.lm.load_checkpoint(self.checkpoint, model.vocab, model.labels.label_names)
        result = self.lm.evaluate(loaded, self.test_set)
        self.reference = (result.correct, result.total)

    def cold_eval(self) -> None:
        from labelmatch import cli
        out = io.StringIO()
        argv = ["eval", "--checkpoint", str(self.checkpoint), "--test", str(self.test_path),
                "--train", str(self.train_path)]
        t = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        self.cold_s.append(time.perf_counter() - t)
        match = re.search(r"^accuracy \S+ \((\d+)/(\d+)\)", out.getvalue(), re.M)
        got = (int(match[1]), int(match[2])) if match else None
        self.check(code == 0 and got == self.reference,
                   f"labelmatch eval exit {code}, counts {got}, in memory {self.reference}")

    def gradcheck(self) -> None:
        from labelmatch.gradcheck import run_all
        t = time.perf_counter()
        outcomes = run_all(**self.gradcheck_args)
        self.gradcheck_s.append(time.perf_counter() - t)
        failed = [o.report.op_name for o in outcomes if not o.passed]
        self.check(len(outcomes) == 11 and not failed,
                   f"gradcheck {len(outcomes) - len(failed)}/{len(outcomes)} PASS, failed {failed}")

    def cold_evals(self) -> None:
        for _ in range(COLD_EVALS_PER_HEAD):
            self.cold_eval()

    def cycle(self) -> list:
        """The next cycle's units: per head, train and evaluate it, then cold
        evals; a gradcheck after the first and the last head.

        The head order rotates from cycle to cycle, so no head is always
        measured at the same point of a run.
        """
        shift = self.cycles % len(HEADS)
        self.cycles += 1
        order = HEADS[shift:] + HEADS[:shift]
        units = []
        for i, head in enumerate(order):
            units += [functools.partial(self.train_and_evaluate, head), self.cold_evals]
            if i != 1:
                units.append(self.gradcheck)
        return units


def _import_program():
    for path in (str(ROOT / "src"), str(Path(__file__).resolve().parent)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # cli and gradcheck bind trainer functions with `from ... import`; import
    # them before any wrapper is installed, or they would bind the wrapper.
    import labelmatch
    import labelmatch.cli  # noqa: F401
    import labelmatch.gradcheck  # noqa: F401
    return labelmatch, time.perf_counter() - _T0


def _timed_metrics(run: Run, import_s: float, step_ns: list) -> dict:
    """Throughputs are the run's total work over its total time, and per-call
    times are means: this host alternates between two speeds for seconds to
    minutes, and a median over such a mixture jumps from one speed to the
    other, while a mean moves with the share of time spent in each."""
    import numpy as np
    steps_ms = np.array(step_ns, dtype=np.float64) / 1e6
    n = len(run.train_set.examples)
    metrics = {"setup_s": (import_s + statistics.median(run.setup_s), "s")}
    for head in HEADS:
        walls = run.train_s[head]
        metrics[f"train_examples_per_s.{head}"] = (n * EPOCHS * len(walls) / sum(walls),
                                                   "examples/s")
    metrics["step_ms_p50"] = (float(np.percentile(steps_ms, 50)), "ms")
    metrics["step_ms_p95"] = (float(np.percentile(steps_ms, 95)), "ms")
    evals = [wall for head in HEADS for wall in run.eval_s[head]]
    metrics["eval_examples_per_s"] = (n * len(evals) / sum(evals), "examples/s")
    metrics["eval_cold_s"] = (statistics.fmean(run.cold_s), "s")
    metrics["gradcheck_s"] = (statistics.fmean(run.gradcheck_s), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics


def _run_units(units) -> None:
    for unit in units:
        gc.collect()  # so no unit pays for the garbage of the one before
        unit()


def _untraced(run: Run, seconds: float, import_s: float) -> tuple[dict, dict]:
    """Set-up SETUP_REPS times, then one cycle, then units until `seconds` have passed."""
    from tracer import StepTimer
    for _ in range(SETUP_REPS):
        run.setup()
    deadline = time.perf_counter() + seconds

    def until_deadline():
        yield from run.cycle()  # one whole cycle, so every metric has a sample
        while True:
            for unit in run.cycle():
                if time.perf_counter() >= deadline:
                    return
                yield unit

    with StepTimer() as steps:
        _run_units(until_deadline())
    samples = {"cycles": run.cycles, "steps": len(steps.step_ns), "import_s": import_s,
               "setup_s": run.setup_s, "train_s": run.train_s,
               "eval_s": run.eval_s, "eval_cold_s": run.cold_s, "gradcheck_s": run.gradcheck_s}
    return _timed_metrics(run, import_s, steps.step_ns), samples


def _traced(run: Run, spans_path: Path | None) -> tuple[dict, dict]:
    """One traced cycle between two untraced ones; the untraced mean is the base."""
    from tracer import Tracer, installed_wrappers

    def one_cycle() -> float:
        t = time.perf_counter()
        run.setup()
        _run_units(run.cycle())
        return time.perf_counter() - t

    before = one_cycle()
    with Tracer() as tracer:
        traced_s = one_cycle()
    untraced_s = (before + one_cycle()) / 2
    left = installed_wrappers()
    run.check(not left, f"wrappers still installed after the traced run: {left}")
    if spans_path is not None:
        tracer.save(spans_path)

    layers = tracer.layer_stats()
    metrics = {}
    for name, stats in layers.items():
        calls = stats["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (stats["self_ms"], "ms")
        metrics[f"{name}.ms_per_call"] = (stats["total_ms"] / calls if calls else 0.0, "ms")
    rows = tracer.text_rows + tracer.label_rows
    metrics["encoder.text_rows"] = (tracer.text_rows, "count")
    metrics["encoder.label_rows"] = (tracer.label_rows, "count")
    metrics["encoder.label_row_share"] = (tracer.label_rows / rows if rows else 0.0, "ratio")
    metrics["trainer.adam_step.computed_mb"] = (
        tracer.adam_bytes / max(tracer.adam_calls, 1) / 1e6, "MB")
    metrics["trainer.adam_step.self_share"] = (
        layers["trainer.adam_step"]["self_ms"] / (traced_s * 1e3), "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.name_id), "count")
    samples = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.name_id)}
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, keep_spans: bool = True) -> tuple[dict, dict]:
    """Run one workload; returns (result line, record of environment and samples)."""
    lm, import_s = _import_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        train_path, test_path = prepare_inputs(WORKLOADS[name], workdir, tiny)
        run = Run(lm=lm, seed=seed, train_path=train_path, test_path=test_path,
                  workdir=workdir, gradcheck_args=TINY_GRADCHECK if tiny else GRADCHECK)
        if trace:
            spans = OUT / f"spans-{name}-seed{seed}.npz" if keep_spans else None
            metrics, samples = _traced(run, spans)
        else:
            metrics, samples = _untraced(run, seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "samples": samples, "failures": run.failures,
              "environment": environment()}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="labelmatch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "labelmatch" / "__init__.py",
                           ROOT / "data" / "trec6.train.tsv", ROOT / "data" / "atis.train.tsv")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a labelmatch checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
