"""The hooks the benchmark relies on (perfbench/tracer.py, read here and
never modified): the functions it wraps exist, training reaches the two
step-boundary functions through module globals, once per optimizer step, and
the benchmark's own self-test runs every workload on this program."""

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import labelmatch.trainer
from labelmatch.corpus import Example, make_dataset
from labelmatch.trainer import TrainConfig, train

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_function_of_its_module():
    tracer = load_by_path(PERFBENCH / "tracer.py")
    for mod_name, fn_names in tracer.TARGETS.items():
        module = importlib.import_module(f"labelmatch.{mod_name}")
        for fn_name in fn_names:
            fn = getattr(module, fn_name, None)
            assert inspect.isfunction(fn), f"{mod_name}.{fn_name}"
            assert fn.__module__ == module.__name__, f"{mod_name}.{fn_name}"


def test_one_epoch_times_one_sample_per_optimizer_step(monkeypatch):
    tracer = load_by_path(PERFBENCH / "tracer.py")
    calls = {"batch_step": 0, "adam_step": 0}
    for name in calls:
        real = getattr(labelmatch.trainer, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(labelmatch.trainer, name, counted)

    examples = [Example("a" if i % 2 else "b", f"word{i} word{i % 3} tail")
                for i in range(7)]
    dataset = make_dataset(examples)
    config = TrainConfig(fusion_mode="dot", dim=8, epochs=1, batch_size=3, seed=0)
    with tracer.StepTimer() as steps:
        train(config, dataset, dataset)
    expected = math.ceil(len(examples) / config.batch_size)
    assert len(steps.step_ns) == expected
    assert calls == {"batch_step": expected, "adam_step": expected}
    assert tracer.installed_wrappers() == []


def test_benchmark_selftest():
    # every workload once untraced and once traced at a tiny size, through
    # the same calls the benchmark makes
    selftest = load_by_path(PERFBENCH / "selftest.py")
    selftest.test_every_metric_with_its_unit_and_no_wrapper_left()
