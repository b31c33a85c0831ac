import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

import labelmatch.nncore
import labelmatch.trainer
from labelmatch.fusion import head_template
from labelmatch.trainer import CHECKSUM_BYTES

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"

sys.path.insert(0, str(Path(__file__).resolve().parent))

# one PASS/FAIL line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def trec6_train_path() -> Path:
    return DATA / "trec6.train.tsv"


@pytest.fixture(scope="session")
def trec6_test_path() -> Path:
    return DATA / "trec6.test.tsv"


@pytest.fixture(scope="session")
def atis_train_path() -> Path:
    return DATA / "atis.train.tsv"


@pytest.fixture(scope="session")
def atis_test_path() -> Path:
    return DATA / "atis.test.tsv"


@pytest.fixture
def tiny_tsv(tmp_path):
    def write(rows, name="tiny.tsv"):
        path = tmp_path / name
        path.write_text("".join(f"{lab}\t{txt}\n" for lab, txt in rows), encoding="utf-8")
        return path
    return write


def checkpoint_body(path) -> bytearray:
    """A checkpoint's bytes without its sha256 trailer, for editing."""
    return bytearray(Path(path).read_bytes()[:-CHECKSUM_BYTES])


def write_sealed(path, body) -> None:
    """Write `body` and a matching sha256 trailer, so that an edit gets past
    the checksum to the checks behind it."""
    Path(path).write_bytes(bytes(body) + hashlib.sha256(body).digest())


def _stray_row(real, d_out, cache):
    real(d_out, cache)
    grad = cache.emb.grad
    grad[(cache.ids + 1) % len(grad)] += 1e-3


def _read_row_zeroed(real, d_out, cache):
    real(d_out, cache)
    cache.emb.grad[cache.ids[0]] = 0.0


def _scatter_shifted(real, d_out, cache):
    real(d_out, dataclasses.replace(cache, ids=(cache.ids + 1) % len(cache.emb.grad)))


# wrong embedding backwards: a stray 1e-3 also written into row id + 1, a read
# row's gradient zeroed, and the whole scatter shifted to row id + 1
EMBED_BACKWARD_CORRUPTIONS = {"stray_row": _stray_row, "read_row_zeroed": _read_row_zeroed,
                              "scatter_shifted": _scatter_shifted}


def last_row_set_to(value):
    """A corruption that sets the last row of the embedding gradient to
    `value` after the real backward."""
    def corrupted(real, d_out, cache):
        real(d_out, cache)
        cache.emb.grad[-1] = value
    return corrupted


def corrupt_embed_backward(monkeypatch, corrupted) -> None:
    """Make nncore.embed_backward(d_out, cache) call corrupted(the real
    embed_backward, d_out, cache) instead."""
    corrupt_backward(monkeypatch, labelmatch.nncore, "embed_backward", corrupted)


def _w1_scaled(real, d_out, cache):
    d_x = real(d_out, cache)
    cache.w1.grad *= 1.01
    return d_x


def _b2_offset(real, d_out, cache):
    d_x = real(d_out, cache)
    cache.b2.grad += 1e-3
    return d_x


def _first_head_param_scaled(real, d_logits, cache):
    d_inputs = real(d_logits, cache)
    name = head_template(cache.head.mode, 1, 1)[0][0]
    getattr(cache.head, name).grad *= 1.01
    return d_inputs


# wrong backwards of the parameters whose finite differences start at the FFN:
# (module, function, corrupted) with corrupted(the real function, *its arguments)
LATE_BACKWARD_CORRUPTIONS = {
    "w1_scaled": (labelmatch.nncore, "ffn_backward", _w1_scaled),
    "b2_offset": (labelmatch.nncore, "ffn_backward", _b2_offset),
    "first_head_param_scaled": (labelmatch.trainer, "score_backward", _first_head_param_scaled),
}


def corrupt_backward(monkeypatch, module, name, corrupted) -> None:
    """Make module.name(*args) call corrupted(the real module.name, *args) instead."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupted(real, *args))


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_RESULTS[name] = f"{status}  {detail}".rstrip()


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, line in ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"{name}: {line}")
