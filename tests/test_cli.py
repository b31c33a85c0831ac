import contextlib
import io
import json
import re
import os
import shlex
import shutil
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import labelmatch.nncore
from labelmatch.cli import build_parser, main, render_ablation
from labelmatch.corpus import load_dataset
from labelmatch.trainer import TrainConfig, build_model, load_checkpoint, save_checkpoint


def write_toy_files(directory: Path) -> tuple[Path, Path]:
    colors = ["blue sky above", "green grass below", "red paint bucket",
              "yellow sun shines", "blue and green mix", "deep red color"]
    animals = ["the dog barks", "a cat sleeps", "small bird sings",
               "the horse runs fast", "a fish swims", "the owl hoots"]
    rows = []
    for i in range(2):
        rows += [("color", t + f" v{i}") for t in colors]
        rows += [("animal", t + f" v{i}") for t in animals]
    train = directory / "toy.train.tsv"
    train.write_text("".join(f"{lab}\t{txt}\n" for lab, txt in rows), encoding="utf-8")
    test = directory / "toy.test.tsv"
    test.write_text("".join(f"{lab}\t{txt}\n" for lab, txt in rows[:8]), encoding="utf-8")
    return train, test


@pytest.fixture
def toy_files(tmp_path):
    return write_toy_files(tmp_path)


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run_cli("train", "--train", "x.tsv") == 1  # missing required flags
        assert run_cli("no-such-command") == 1

    def test_bad_batch_size_message(self, capsys):
        code = run_cli("train", "--train", "a", "--test", "b", "--out", "c",
                       "--batch", "48")
        assert code == 1
        assert "batch size is selected from [32, 64]" in capsys.readouterr().err

    def test_data_error_is_two(self, tmp_path, capsys):
        assert run_cli("stats", "--data", tmp_path / "missing.tsv") == 2

    def test_empty_dataset_is_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_bytes(b"")
        assert run_cli("stats", "--data", empty) == 2

    def test_gradcheck_tiny_dims_enforced(self, capsys):
        assert run_cli("gradcheck", "--dim", "512") == 1


class TestStats:
    def test_single_line_dataset(self, tmp_path, capsys):
        path = tmp_path / "one.tsv"
        path.write_text("X\ta b c\n", encoding="utf-8")
        assert run_cli("stats", "--data", path) == 0
        assert "1 classes, 1 examples, avg 3.00" in capsys.readouterr().out

    def test_trec6_train(self, trec6_train_path, capsys):
        assert run_cli("stats", "--data", trec6_train_path) == 0
        assert "6 classes, 5452 examples" in capsys.readouterr().out

    def test_atis_train(self, atis_train_path, capsys):
        assert run_cli("stats", "--data", atis_train_path) == 0
        assert "4978 examples" in capsys.readouterr().out

    def test_first_line_without_tab_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("what is the capital of france ?\nLOC\twhere is paris ?\n",
                        encoding="utf-8")
        assert_clean_exit_two(capsys, "stats", "--data", path,
                              message=":1: malformed line (no tab)")


class TestTrainCommand:
    def test_writes_checkpoint_history_manifest(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        out = tmp_path / "model.ckpt"
        code = run_cli("train", "--train", train, "--test", test, "--fusion", "dot",
                       "--dim", "8", "--epochs", "3", "--seed", "1", "--out", out)
        assert code == 0
        history = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()
        assert len(history) == 3  # one line per epoch, no header
        for line in history:
            assert re.fullmatch(r"\d+,\d+\.\d{6},\d+\.\d{6},\d+\.\d{6}", line)
        manifest = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
        assert manifest["config"]["fusion_mode"] == "dot"
        assert len(manifest["train_sha256"]) == 64

    def test_zero_epochs_checkpoint_equals_initialization(self, toy_files, tmp_path):
        train, test = toy_files
        out = tmp_path / "init.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--fusion", "dot",
                       "--dim", "8", "--epochs", "0", "--seed", "5", "--out", out) == 0
        config = TrainConfig(fusion_mode="dot", dim=8, epochs=0, seed=5)
        reference = build_model(config, load_dataset(train))
        loaded = load_checkpoint(out, reference.vocab, reference.labels.label_names)
        for a, b in zip(reference.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_eval_reproduces_final_train_accuracy(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--fusion", "add",
                       "--dim", "8", "--epochs", "4", "--seed", "2", "--out", out) == 0
        final_train_acc = (tmp_path / "model.ckpt.history.csv") \
            .read_text().splitlines()[-1].split(",")[2]
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", out, "--test", train) == 0
        got = capsys.readouterr().out
        match = re.search(r"accuracy \d+\.\d \((\d+)/(\d+)\)", got)
        correct, total = int(match.group(1)), int(match.group(2))
        assert f"{100.0 * correct / total:.6f}" == final_train_acc


class TestEvalCommand:
    def test_memorized_toy_set_scores_hundred(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--fusion", "dot",
                       "--dim", "16", "--epochs", "30", "--seed", "0", "--out", out) == 0
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", out, "--test", train) == 0
        assert "accuracy 100.0" in capsys.readouterr().out

    def test_constant_prediction_matches_label_counting_oracle(
            self, trec6_train_path, trec6_test_path, tmp_path, capsys):
        train_set = load_dataset(trec6_train_path)
        config = TrainConfig(fusion_mode="none", dim=8, seed=0)
        model = build_model(config, train_set)
        target = model.labels.label_names.index("DESC")
        model.head.w_out.value[...] = 0.0
        model.head.b_out.value[...] = 0.0
        model.head.b_out.value[target] = 5.0  # always predicts DESC
        path = tmp_path / "const.ckpt"
        save_checkpoint(model, path)

        lines = trec6_test_path.read_text(encoding="utf-8").splitlines()
        oracle = sum(1 for line in lines if line.split("\t")[0] == "DESC")

        assert run_cli("eval", "--checkpoint", path, "--test", trec6_test_path,
                       "--train", trec6_train_path) == 0
        out = capsys.readouterr().out
        assert f"({oracle}/{len(lines)})" in out
        assert f"accuracy {100.0 * oracle / len(lines):.1f}" in out

    def test_empty_test_file_is_data_error(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--fusion", "none",
                       "--dim", "8", "--epochs", "1", "--seed", "0", "--out", out) == 0
        empty = tmp_path / "empty.tsv"
        empty.write_bytes(b"")
        assert run_cli("eval", "--checkpoint", out, "--test", empty) == 2

    def test_missing_manifest_needs_train_flag(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--fusion", "none",
                       "--dim", "8", "--epochs", "1", "--seed", "0", "--out", out) == 0
        (tmp_path / "model.ckpt.manifest.json").unlink()
        assert run_cli("eval", "--checkpoint", out, "--test", test) == 2
        assert run_cli("eval", "--checkpoint", out, "--test", test,
                       "--train", train) == 0


@pytest.fixture
def trained(toy_files, tmp_path):
    """(checkpoint path, test path) of a 1-epoch `none` model and its manifest."""
    train, test = toy_files
    out = tmp_path / "model.ckpt"
    assert run_cli("train", "--train", train, "--test", test, "--fusion", "none",
                   "--dim", "8", "--epochs", "1", "--seed", "0", "--out", out) == 0
    return out, test


MODE_LENGTH_AT = 5 + 6 * 8 + 8  # magic, six u64 config fields, f64 learning rate


def assert_clean_exit_two(capsys, *argv, message: str) -> None:
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


class TestCorruptedEvalInput:
    def test_manifest_not_json(self, trained, capsys):
        ckpt, test = trained
        ckpt.with_name("model.ckpt.manifest.json").write_text("{not json", encoding="utf-8")
        assert_clean_exit_two(capsys, "eval", "--checkpoint", ckpt, "--test", test,
                              message="not valid JSON")

    def test_manifest_without_train_path(self, trained, capsys):
        ckpt, test = trained
        manifest_path = ckpt.with_name("model.ckpt.manifest.json")
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["train_path"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert_clean_exit_two(capsys, "eval", "--checkpoint", ckpt, "--test", test,
                              message="'train_path'")

    def test_checkpoint_string_not_utf8(self, trained, capsys):
        ckpt, test = trained
        raw = bytearray(ckpt.read_bytes())
        at = MODE_LENGTH_AT + 8
        assert raw[at:at + 4] == b"none"
        raw[at:at + 4] = b"\xff\xfe\xfd\xfc"
        ckpt.write_bytes(raw)
        assert_clean_exit_two(capsys, "eval", "--checkpoint", ckpt, "--test", test,
                              message="not UTF-8")

    @pytest.mark.parametrize("at, text", [(MODE_LENGTH_AT, b"none"),
                                          (MODE_LENGTH_AT + 8 + 4 + 16, b"emb")],
                             ids=["fusion-mode", "first-parameter-name"])
    def test_bit_flipped_string_length_is_refused_unread(self, trained, capsys, at, text):
        ckpt, test = trained
        raw = bytearray(ckpt.read_bytes())
        (length,) = struct.unpack_from("<Q", raw, at)
        assert raw[at + 8:at + 8 + length] == text
        struct.pack_into("<Q", raw, at, length | 1 << 40)  # one flipped bit: 1 TiB
        ckpt.write_bytes(raw)
        tracemalloc.start()
        try:
            assert_clean_exit_two(capsys, "eval", "--checkpoint", ckpt, "--test", test,
                                  message="truncated checkpoint")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_is_refused(self, trained, capsys, value):
        ckpt, test = trained
        raw = bytearray(ckpt.read_bytes())
        struct.pack_into("<f", raw, len(raw) - 4, value)  # the last parameter's last entry
        ckpt.write_bytes(raw)
        assert_clean_exit_two(capsys, "eval", "--checkpoint", ckpt, "--test", test,
                              message="non-finite value in parameter 'head.")

    def test_huge_stored_min_freq_fails_fast(self, trained):
        # eval rebuilds the vocabulary with the header's min_freq before it
        # can compare fingerprints; 2**40 once meant 2**40 passes per phrase
        ckpt, test = trained
        raw = bytearray(ckpt.read_bytes())
        at = 5 + 5 * 8  # magic, then batch_size, epochs, seed, dim, max_len
        assert struct.unpack_from("<Q", raw, at) == (1,)
        struct.pack_into("<Q", raw, at, 2**40)
        ckpt.write_bytes(raw)
        src = Path(labelmatch.nncore.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-m", "labelmatch.cli", "eval",
                                 "--checkpoint", str(ckpt), "--test", str(test)],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, timeout=10)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ") and "fingerprint" in result.stderr
        assert "Traceback" not in result.stderr


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["stats", "eval", "train"])
    def test_directory_in_place_of_a_file(self, toy_files, tmp_path, capsys, command):
        train, test = toy_files
        argv = {"stats": ["--data", tmp_path],
                "eval": ["--checkpoint", tmp_path, "--test", test],
                "train": ["--train", train, "--test", test, "--dim", "8", "--epochs", "0",
                          "--out", tmp_path]}[command]
        assert_clean_exit_two(capsys, command, *argv, message="Is a directory")

    @pytest.mark.parametrize("out, message", [(".", "Is a directory"),
                                              ("missing/model.ckpt", "No such file"),
                                              ("a-file/model.ckpt", "Not a directory")],
                             ids=["directory", "missing-directory", "file-as-directory"])
    def test_train_refuses_out_before_the_first_epoch(self, trec6_train_path, trec6_test_path,
                                                      tmp_path, capsys, out, message):
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        assert run_cli("train", "--train", trec6_train_path, "--test", trec6_test_path,
                       "--epochs", "1", "--out", tmp_path / out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err
        assert "epoch=" not in captured.out

    def test_train_refuses_seed_outside_64_bits(self, toy_files, tmp_path, capsys):
        # the checkpoint stores the seed in 64 unsigned bits; -1 would load as 2**64 - 1
        train, test = toy_files
        ckpt = tmp_path / "model.ckpt"
        assert run_cli("train", "--train", train, "--test", test, "--dim", "8",
                       "--seed", "-1", "--out", ckpt) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed must be in [0, 2**64)")
        assert "epoch=" not in captured.out
        assert not ckpt.exists()

    def test_dataset_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("X\tcaf\xe9 au lait\n".encode("latin-1"))
        assert_clean_exit_two(capsys, "stats", "--data", path, message="not UTF-8")

    def test_verbalizer_not_utf8(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        verbalizer = tmp_path / "verbalizer.json"
        verbalizer.write_bytes('{"color": "couleur \xe9"}'.encode("latin-1"))
        assert_clean_exit_two(capsys, "train", "--train", train, "--test", test, "--dim", "8",
                              "--epochs", "0", "--verbalizer", verbalizer,
                              "--out", tmp_path / "model.ckpt", message="not valid JSON")


# Mutated-input property: each example changes up to three bytes of one
# input file, each drawn from its first 128 bytes (where the headers are) or
# from the whole file, and may cut the file short; the command must exit 0 or
# 2 with no traceback, within the bound. Examples are fixed (derandomized)
# and few, so the suite's time stays flat.
FUZZ_EXAMPLES = 25
FUZZ_BOUND_S = 10.0


class _Overran(BaseException):
    """Raised by the timer; neither an OSError nor a LabelMatchError, so
    main() cannot turn it into an exit code."""


def _overran(signum, frame):
    raise _Overran


def run_cli_bounded(argv, bound: float) -> tuple[int, str]:
    """(exit code, stderr) of main(argv), with warnings shown as the command
    line shows them; a call still running after `bound` seconds fails."""
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            code = main([str(a) for a in argv])
    except _Overran:
        pytest.fail(f"{argv[0]} ran past {bound} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Base files: a 1-epoch `dot` checkpoint trained with a verbalizer, its
    manifest, the toy TSVs and the verbalizer; plus a directory for the
    mutated copies."""
    base = tmp_path_factory.mktemp("fuzz-base")
    train, test = write_toy_files(base)
    verbalizer = base / "verbalizer.json"
    verbalizer.write_text(json.dumps({"color": "a colour", "animal": "an animal"}),
                          encoding="utf-8")
    ckpt = base / "model.ckpt"
    assert run_cli("train", "--train", train, "--test", test, "--fusion", "dot", "--dim", "8",
                   "--epochs", "1", "--verbalizer", verbalizer, "--out", ckpt) == 0
    manifest = base / "model.ckpt.manifest.json"
    return dict(train=train, test=test, verbalizer=verbalizer, ckpt=ckpt, manifest=manifest,
                work=tmp_path_factory.mktemp("fuzz-case"))


def fuzz_case(files, reader):
    """(file to mutate, where the mutated copy goes, argv that reads it)."""
    work = files["work"]
    ckpt, test = work / "model.ckpt", files["test"]
    shutil.copyfile(files["ckpt"], ckpt)
    shutil.copyfile(files["manifest"], work / "model.ckpt.manifest.json")
    evaluate = ["eval", "--checkpoint", ckpt, "--test", test]
    if reader == "checkpoint":
        return files["ckpt"], ckpt, evaluate
    if reader == "manifest":
        return files["manifest"], work / "model.ckpt.manifest.json", evaluate
    if reader == "test-tsv":
        return files["test"], work / "test.tsv", evaluate[:-1] + [work / "test.tsv"]
    if reader == "train-tsv":
        return files["train"], work / "train.tsv", ["stats", "--data", work / "train.tsv"]
    return files["verbalizer"], work / "verbalizer.json", [
        "train", "--train", files["train"], "--test", test, "--dim", "8", "--epochs", "0",
        "--verbalizer", work / "verbalizer.json", "--out", work / "verbalized.ckpt"]


def mutate(raw: bytes, edits, cut) -> bytes:
    out = bytearray(raw)
    for at, byte in edits:
        out[at % len(out)] = byte
    return bytes(out[:cut])


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
@pytest.mark.parametrize("reader", ["checkpoint", "manifest", "test-tsv", "train-tsv",
                                    "verbalizer"])
def test_mutated_input_exits_cleanly(fuzz_inputs, reader):
    source, target, argv = fuzz_case(fuzz_inputs, reader)
    raw = source.read_bytes()
    position = st.one_of(st.integers(0, 127), st.integers(0, len(raw) - 1))
    edits = st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=3)
    cut = st.one_of(st.none(), st.integers(0, len(raw)))

    @settings(max_examples=FUZZ_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(edits, cut)
    def check(edits, cut):
        target.write_bytes(mutate(raw, edits, cut))
        code, err = run_cli_bounded(argv, FUZZ_BOUND_S)
        assert code in (0, 2), err
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: "), err

    check()


class TestAblationCommand:
    def test_three_rows_and_csv_twin(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        report = tmp_path / "report"
        code = run_cli("ablation", "--train", train, "--test", test, "--dim", "8",
                       "--epochs", "1", "--seeds", "7", "--out", report)
        assert code == 0
        table = (tmp_path / "report.txt").read_text()
        assert re.search(r"No\s+No\s+\d", table)
        assert re.search(r"Yes\s+Add\s+\d", table)
        assert re.search(r"Yes\s+Dot Product\s+\d", table)
        csv_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "label_embeddings,fusion_method,dataset,seed,accuracy"
        # single seed: mean equals the one run
        per_seed = [l for l in csv_lines[1:] if ",7," in l]
        means = [l for l in csv_lines[1:] if ",mean," in l]
        assert len(per_seed) == 3 and len(means) == 3
        for seed_line, mean_line in zip(per_seed, means):
            assert seed_line.rsplit(",", 1)[1] == mean_line.rsplit(",", 1)[1]

    def test_per_epoch_curves(self, toy_files, tmp_path, capsys):
        train, test = toy_files
        report = tmp_path / "report"
        assert run_cli("ablation", "--train", train, "--test", test, "--dim", "8",
                       "--epochs", "2", "--seeds", "0", "1", "--out", report) == 0
        lines = (tmp_path / "report.epochs.csv").read_text().splitlines()
        assert lines[0] == "fusion_method,seed,epoch,train_loss,train_acc,test_acc"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (name, seed, epoch) for name in ("No", "Add", "Dot Product")
            for seed in ("0", "1") for epoch in ("1", "2")]
        final = {(r[0], r[1]): r[5] for r in rows if r[2] == "2"}
        for line in (tmp_path / "report.csv").read_text().splitlines()[1:]:
            _, name, _, seed, acc = line.split(",")
            if seed != "mean":
                assert final[(name, seed)] == acc

    def test_repeated_seed_refused_before_training(self, toy_files, tmp_path, capsys):
        # a repeated seed would train twice and count twice in the mean
        train, test = toy_files
        report = tmp_path / "report"
        assert run_cli("ablation", "--train", train, "--test", test, "--dim", "8",
                       "--epochs", "1", "--seeds", "0", "1", "0", "--out", report) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --seeds repeats 0")
        assert "done fusion=" not in captured.out
        assert list(tmp_path.glob("report*")) == []

    def test_seed_prefix_selects_the_seeds_to_train(self):
        # ablation has no --seed of its own; argparse resolves the prefix to --seeds
        args = build_parser().parse_args(["ablation", "--train", "a", "--test", "b",
                                          "--seed", "3"])
        assert args.seeds == [3]
        assert not hasattr(args, "seed")


    def test_report_bytes(self):
        # captured from the report classes this function replaced; 85.25 and
        # 0.05 are not exact in binary, so they also pin the rounding
        results = {("none", 0): 85.25, ("none", 1): 86.35, ("add", 0): 100 / 3,
                   ("add", 1): 200 / 3, ("dot", 0): 0.05, ("dot", 1): 99.95}
        table, csv = render_ablation("trec6", [0, 1], results)
        assert table == ("Label Embeddings  Fusion Method  trec6\n"
                         "No                No             85.8\n"
                         "Yes               Add            50.0\n"
                         "Yes               Dot Product    50.0\n"
                         "\n"
                         "seeds: 0, 1\n"
                         "No: seed 0: 85.2  seed 1: 86.3\n"
                         "Add: seed 0: 33.3  seed 1: 66.7\n"
                         "Dot Product: seed 0: 0.1  seed 1: 100.0")
        assert csv == ("label_embeddings,fusion_method,dataset,seed,accuracy\n"
                       "No,No,trec6,0,85.250000\n"
                       "No,No,trec6,1,86.350000\n"
                       "No,No,trec6,mean,85.800000\n"
                       "Yes,Add,trec6,0,33.333333\n"
                       "Yes,Add,trec6,1,66.666667\n"
                       "Yes,Add,trec6,mean,50.000000\n"
                       "Yes,Dot Product,trec6,0,0.050000\n"
                       "Yes,Dot Product,trec6,1,99.950000\n"
                       "Yes,Dot Product,trec6,mean,50.000000")


def test_train_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["train", "--train", "a", "--test", "b", "--out", "c"])
    config = TrainConfig()
    assert (args.dim, args.batch, args.epochs, args.fusion, args.seed) == (
        config.dim, config.batch_size, config.epochs, config.fusion_mode, config.seed)


def test_readme_commands_parse():
    # every command in README's CLI block, continuations joined, is accepted as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("labelmatch ")]
    assert [argv[1] for argv in commands] == ["stats", "train", "eval", "ablation", "gradcheck"]
    for argv in commands:
        build_parser().parse_args(argv[1:])


class TestGradcheckCommand:
    def test_default_config_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 11
        assert "FAIL" not in out

    def test_corrupted_backward_fails_with_exit_three(self, monkeypatch, capsys):
        # an offset gradient, and a NaN one (whose relative error compares false)
        real = labelmatch.nncore.ffn_backward
        for corrupt in (lambda g: np.add(g, 1e-2, out=g), lambda g: g.fill(np.nan)):
            def corrupted(d_out, cache):
                d_x = real(d_out, cache)
                corrupt(cache.w1.grad)
                return d_x

            monkeypatch.setattr(labelmatch.nncore, "ffn_backward", corrupted)
            assert run_cli("gradcheck") == 3
            assert "FAIL" in capsys.readouterr().out
