"""Acceptance gate: every criterion runs at its stated tolerance and reports
one PASS/FAIL line in the terminal summary."""

import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

import labelmatch as lm
from bow_oracle import bow_logistic_regression, majority_class_accuracy, read_tsv
from conftest import record_acceptance
from labelmatch.cli import main
from labelmatch.corpus import make_dataset, tokenize
from labelmatch.encoder import encode
from labelmatch.fusion import FusionHead, score_dot
from labelmatch.nncore import ParamTensor, cross_entropy, softmax
from labelmatch.trainer import TrainConfig, build_model, load_checkpoint, save_checkpoint, train


@contextmanager
def criterion(name):
    outcome = {"detail": ""}
    try:
        yield outcome
    except BaseException:
        record_acceptance(name, False, outcome["detail"])
        raise
    record_acceptance(name, True, outcome["detail"])


class TestCriterion1DatasetFidelity:
    def test_counts_and_lengths(self, trec6_train_path, trec6_test_path,
                                atis_train_path, atis_test_path):
        with criterion("1 dataset fidelity") as out:
            trec_train = lm.dataset_stats(lm.load_dataset(trec6_train_path))
            trec_test = lm.dataset_stats(lm.load_dataset(trec6_test_path, split="test"))
            assert (trec_train.num_examples, trec_test.num_examples) == (5452, 500)
            assert trec_train.num_classes == 6

            atis_train = lm.dataset_stats(lm.load_dataset(atis_train_path))
            atis_test_ds = lm.load_dataset(atis_test_path, split="test")
            atis_train_ds = lm.load_dataset(atis_train_path)
            assert (atis_train.num_examples, len(atis_test_ds.examples)) == (4978, 893)
            union = set(atis_train_ds.label_names) | set(atis_test_ds.label_names)
            assert len(union) == 22

            # informational, non-blocking: tokenizer differs from the reference
            trec_delta = abs(trec_train.avg_token_len - 8.89)
            atis_delta = abs(atis_train.avg_token_len - 11.14)
            out["detail"] = (f"trec6 5452/500/6, atis 4978/893/22; "
                             f"avg len {trec_train.avg_token_len:.2f} vs 8.89 "
                             f"(|d|={trec_delta:.2f}), {atis_train.avg_token_len:.2f} "
                             f"vs 11.14 (|d|={atis_delta:.2f})")
            print(f"avg-length check (informational): trec6 within 1.5: "
                  f"{trec_delta <= 1.5}, atis within 1.5: {atis_delta <= 1.5}")


class TestCriterion2GradientCorrectness:
    def test_gradcheck_cli(self, capsys):
        with criterion("2 gradient correctness") as out:
            started = time.monotonic()
            code = main(["gradcheck", "--dim", "8", "--maxlen", "6", "--vocab", "50"])
            elapsed = time.monotonic() - started
            printed = capsys.readouterr().out
            assert code == 0
            assert printed.count("PASS") == 11 and "FAIL" not in printed
            assert elapsed < 60.0
            worst = max(float(m) for m in
                        re.findall(r"max_rel_err=(\S+)", printed))
            out["detail"] = f"11 checks PASS, worst rel err {worst:.2e}, {elapsed:.1f}s"


class TestCriterion3Memorization:
    def test_64_example_overfit_all_modes(self, trec6_train_path):
        with criterion("3 memorization sanity") as out:
            full = lm.load_dataset(trec6_train_path)
            subset = make_dataset(full.examples[:64])
            details = []
            for mode in ("none", "add", "dot"):
                # batch 32 over 64 examples = 2 steps/epoch; 150 epochs = 300 steps
                config = TrainConfig(fusion_mode=mode, epochs=150, batch_size=32, seed=0)
                _, history = train(config, subset, subset)
                final = history.epochs[-1]
                assert final.train_acc == 100.0, f"{mode}: {final.train_acc}"
                assert final.train_loss < 0.01, f"{mode}: {final.train_loss}"
                reached = next(e.epoch * 2 for e in history.epochs if e.train_acc == 100.0)
                details.append(f"{mode}: 100% by step {reached}, loss {final.train_loss:.4f}")
            out["detail"] = "; ".join(details)


@pytest.fixture(scope="session")
def desk_scale_run(trec6_train_path, trec6_test_path):
    train_set = lm.load_dataset(trec6_train_path)
    test_set = lm.load_dataset(trec6_test_path, split="test")
    config = TrainConfig(fusion_mode="dot", dim=64, batch_size=32, epochs=10, seed=0)
    started = time.monotonic()
    model, history = train(config, train_set, test_set)
    return model, history, time.monotonic() - started


class TestCriterion4AccuracyFloor:
    def test_against_independent_oracles(self, desk_scale_run, trec6_train_path,
                                         trec6_test_path):
        with criterion("4 desk-scale accuracy floor") as out:
            model, history, elapsed = desk_scale_run
            model_acc = history.epochs[-1].test_acc

            train_rows = read_tsv(trec6_train_path)
            test_rows = read_tsv(trec6_test_path)
            _, oracle_acc = bow_logistic_regression(train_rows, test_rows)
            majority = majority_class_accuracy(test_rows)

            out["detail"] = (f"model {model_acc:.1f} vs logreg {oracle_acc:.1f} "
                             f"(floor {oracle_acc - 10:.1f}) and majority {majority:.1f} "
                             f"(floor {majority + 30:.1f}); train {elapsed / 60:.1f} min")
            print(f"desk-scale run: {out['detail']}")
            assert model_acc >= oracle_acc - 10.0
            assert model_acc >= majority + 30.0
            assert elapsed < 15 * 60  # stated runtime envelope for this config


class TestCriterion5AblationShape:
    def test_three_row_report_and_ordering(self, trec6_train_path, trec6_test_path,
                                           tmp_path, capsys):
        with criterion("5 ablation shape") as out:
            report = tmp_path / "ablation"
            code = main(["ablation", "--train", str(trec6_train_path),
                         "--test", str(trec6_test_path), "--seeds", "0", "1", "2", "3", "4",
                         "--jobs", "4", "--out", str(report)])
            capsys.readouterr()
            assert code == 0
            table = (tmp_path / "ablation.txt").read_text()
            assert re.search(r"No\s+No\s+\d", table)
            assert re.search(r"Yes\s+Add\s+\d", table)
            assert re.search(r"Yes\s+Dot Product\s+\d", table)

            means = {}
            for line in (tmp_path / "ablation.csv").read_text().splitlines()[1:]:
                emb, fusion, _, seed, acc = line.split(",")
                if seed == "mean":
                    means[fusion] = float(acc)
            assert set(means) == {"No", "Add", "Dot Product"}
            out["detail"] = (f"means: none {means['No']:.1f}, add {means['Add']:.1f}, "
                             f"dot {means['Dot Product']:.1f}")
            print(f"ablation {out['detail']}")
            assert means["Dot Product"] >= means["No"] - 0.5


class TestCriterion6DeterminismPersistence:
    def test_bitwise_repeatability_and_roundtrip(self, trec6_train_path,
                                                 trec6_test_path, tmp_path):
        with criterion("6 determinism and persistence") as out:
            full = lm.load_dataset(trec6_train_path)
            train_set = make_dataset(full.examples[:1000])
            test_set = lm.load_dataset(trec6_test_path, split="test")
            config = TrainConfig(fusion_mode="dot", dim=32, batch_size=32, epochs=2, seed=9)

            m1, h1 = train(config, train_set, test_set)
            m2, h2 = train(config, train_set, test_set)
            for a, b in zip(m1.parameters(), m2.parameters()):
                assert np.array_equal(a.value, b.value), a.name
            assert [(e.train_loss, e.train_acc, e.test_acc) for e in h1.epochs] == \
                [(e.train_loss, e.train_acc, e.test_acc) for e in h2.epochs]

            path = tmp_path / "repeat.ckpt"
            save_checkpoint(m1, path)
            loaded = load_checkpoint(path, m1.vocab, m1.labels.label_names)
            for a, b in zip(m1.parameters(), loaded.parameters()):
                assert np.array_equal(a.value, b.value), a.name
            for ex in test_set.examples[:50]:
                seq = tokenize(ex.text, m1.vocab, config.max_len)
                np.testing.assert_array_equal(m1.predict_logits(seq),
                                              loaded.predict_logits(seq))
            out["detail"] = "two runs bitwise equal; checkpoint roundtrip preserves " \
                            "parameters and predictions"


class TestCriterion7InvariantSuite:
    CASES = 1000

    def test_properties(self, trec6_train_path):
        with criterion("7 invariant property suite") as out:
            rng = np.random.default_rng(123)

            for _ in range(self.CASES):  # softmax is a probability vector
                z = rng.uniform(-30, 30, size=rng.integers(2, 12))
                p = softmax(z)
                assert (p >= 0).all()
                assert abs(float(p.sum()) - 1.0) <= 1e-6

            for _ in range(self.CASES):  # cross-entropy gradient sums to zero
                k = int(rng.integers(2, 12))
                _, grad = cross_entropy(rng.uniform(-10, 10, size=k), int(rng.integers(k)))
                assert abs(float(grad.sum())) <= 1e-6

            for _ in range(self.CASES):  # softmax additive-shift invariance
                z = rng.uniform(-10, 10, size=6)
                c = float(rng.uniform(-20, 20))
                np.testing.assert_allclose(softmax(z + c), softmax(z),
                                           rtol=1e-12, atol=1e-15)
                np.testing.assert_array_equal(softmax(z), softmax(z - z.max()))

            head = FusionHead(mode="dot", log_scale=ParamTensor("s", np.log([10.0])))
            for _ in range(self.CASES):  # dot argmax invariance under positive scaling
                t = rng.normal(size=8)
                labels = rng.normal(size=(5, 8))
                c = float(rng.uniform(0.01, 100.0))
                base = score_dot(t, labels, head)
                assert np.argmax(score_dot(t, c * labels, head)) == np.argmax(base)
                assert np.argmax(score_dot(c * t, labels, head)) == np.argmax(base)

            # padding invariance of encode, bit-exact
            corpus = lm.load_dataset(trec6_train_path)
            model = build_model(TrainConfig(fusion_mode="dot", dim=16, max_len=16, seed=1),
                                make_dataset(corpus.examples[:200]))
            vocab_size = len(model.vocab)
            for _ in range(self.CASES):
                n = int(rng.integers(1, 9))
                ids = rng.integers(2, vocab_size, size=n)
                short = _seq(ids, n, n)
                padded = _seq(ids, n, 16)
                np.testing.assert_array_equal(encode(short, model.enc),
                                              encode(padded, model.enc))
            out["detail"] = f"{self.CASES} cases per property, 5 properties"


def _seq(ids, true_len, max_len):
    padded = np.zeros(max_len, dtype=np.int64)
    padded[: len(ids)] = ids
    return lm.TokenSeq(ids=padded, true_len=true_len)
