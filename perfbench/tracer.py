"""Span tracing and step timing around labelmatch's public functions.

Both work by swapping module attributes, so they see every call the program
makes through a module global. A name bound with `from ... import` is a
separate binding in the importing module; `_bindings` finds every binding of
the same function object across the package, so each one is wrapped where it
is looked up. Nothing is patched inside function bodies.

Spans live in flat typed arrays while the run lasts and are written out once
at the end (`Tracer.save`).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions wrapped by the traced run, by module of definition.
TARGETS = {
    "corpus": ("load_dataset", "build_vocab", "tokenize"),
    "nncore": ("embed_forward", "embed_backward", "attention_forward",
               "attention_backward", "ffn_forward", "ffn_backward",
               "mean_pool_masked", "mean_pool_backward", "cross_entropy",
               "finite_diff_check"),
    "encoder": ("encode_forward", "encode_backward", "encode_labels_forward",
                "encode_labels_backward"),
    "fusion": ("score_forward", "score_backward"),
    "trainer": ("build_model", "batch_step", "adam_step", "evaluate_seqs",
                "shuffled_indices", "save_checkpoint", "load_checkpoint"),
    "gradcheck": ("check_full_model", "batch_loss"),
    "cli": ("cmd_eval",),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# A span with no grouped ancestor opens a new group when it is one of these:
# an optimizer step starts at batch_step (adam_step joins it), each eval call
# and each gradient check is one group.
GROUP_ROOTS = frozenset({"trainer.batch_step", "trainer.evaluate_seqs",
                         "nncore.finite_diff_check", "gradcheck.check_full_model",
                         "cli.cmd_eval"})

# Adam reads value, grad, m and v and writes value, m, v and the zeroed grad.
ADAM_ARRAYS_TOUCHED = 8

PACKAGE = "labelmatch"
_MARK = "_perfbench_wrapper"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _bindings(qualname: str):
    """Every (module, attribute) in the package bound to the function `qualname`."""
    mod_name, fn_name = qualname.split(".")
    fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
    return fn, [(m, attr) for m in _package_modules()
                for attr, value in vars(m).items() if value is fn]


def installed_wrappers() -> list[str]:
    """Names of package attributes that still hold a benchmark wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, value in vars(m).items() if getattr(value, _MARK, False)]


class _Patch:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)


class StepTimer:
    """Times one optimizer step: from batch_step entry to adam_step exit.

    Only `trainer.batch_step` and `trainer.adam_step` are replaced, the
    bindings `trainer.train` looks up, so gradcheck's own batch_step calls
    are not timed.
    """

    def __init__(self):
        self._trainer = sys.modules[f"{PACKAGE}.trainer"]
        self._patch = _Patch()
        self.step_ns: list[int] = []
        self._started = 0

    def __enter__(self) -> "StepTimer":
        batch_step, adam_step = self._trainer.batch_step, self._trainer.adam_step
        clock = time.perf_counter_ns
        samples = self.step_ns

        def timed_batch_step(*args, **kwargs):
            self._started = clock()
            return batch_step(*args, **kwargs)

        def timed_adam_step(*args, **kwargs):
            try:
                return adam_step(*args, **kwargs)
            finally:
                samples.append(clock() - self._started)

        for wrapper in (timed_batch_step, timed_adam_step):
            setattr(wrapper, _MARK, True)
        self._patch.set(self._trainer, "batch_step", timed_batch_step)
        self._patch.set(self._trainer, "adam_step", timed_adam_step)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.restore()


class Tracer:
    """Records a span per call of every function in TARGETS.

    A span is (name, start ns, end ns, parent span, group). Spans nest on one
    thread, so a parent's child coverage is the sum of its children's
    durations. Counters are taken at the same boundaries: the valid rows
    (`true_len`) the encoder takes inside optimizer steps, text vs label
    phrases, and the bytes Adam's arrays span.
    """

    def __init__(self):
        self.names = list(TRACED_NAMES)
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.group = array("i")
        self.text_rows = 0
        self.label_rows = 0
        self.adam_bytes = 0
        self.adam_calls = 0
        self._stack: list[int] = []
        self._groups = 0
        self._step_group = 0
        self._patch = _Patch()

    def __enter__(self) -> "Tracer":
        for idx, qualname in enumerate(self.names):
            fn, bindings = _bindings(qualname)
            wrapper = self._wrap(idx, qualname, fn)
            for module, attr in bindings:
                self._patch.set(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self._patch.restore()

    def _group_for(self, qualname: str, parent: int) -> int:
        if parent >= 0 and self.group[parent]:
            return self.group[parent]
        if qualname == "trainer.adam_step":
            return self._step_group
        if qualname in GROUP_ROOTS:
            self._groups += 1
            if qualname == "trainer.batch_step":
                self._step_group = self._groups
            return self._groups
        return 0

    def _count(self, qualname: str, parent: int, group: int, args) -> None:
        if qualname == "encoder.encode_forward":
            if group == 0 or group != self._step_group:
                return  # not inside an optimizer step
            rows = args[0].true_len
            if parent >= 0 and self.names[self.name_id[parent]] == "encoder.encode_labels_forward":
                self.label_rows += rows
            else:
                self.text_rows += rows
        elif qualname == "trainer.adam_step":
            self.adam_bytes += ADAM_ARRAYS_TOUCHED * sum(p.value.nbytes for p in args[0])
            self.adam_calls += 1

    def _wrap(self, idx: int, qualname: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        counted = qualname in ("encoder.encode_forward", "trainer.adam_step")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            group = self._group_for(qualname, parent)
            if counted:
                self._count(qualname, parent, group, args)
            span = len(self.name_id)
            self.name_id.append(idx)
            self.parent.append(parent)
            self.group.append(group)
            self.end.append(0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    # --- results ------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "group": np.frombuffer(self.group, dtype=np.int32).copy(),
                "names": np.array(self.names)}

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total and self milliseconds."""
        spans = self.span_arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        has_parent = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        self_ns = dur - covered
        n = len(self.names)
        calls = np.bincount(spans["name_id"], minlength=n)
        total = np.bincount(spans["name_id"], weights=dur, minlength=n)
        own = np.bincount(spans["name_id"], weights=self_ns, minlength=n)
        return {name: {"calls": int(calls[i]), "total_ms": total[i] / 1e6,
                       "self_ms": own[i] / 1e6}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.span_arrays())
