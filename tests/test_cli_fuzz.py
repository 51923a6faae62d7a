"""Fuzz every CLI command that reads a file.

Whatever the file holds, a command either succeeds (exit 0) or fails with
exit 2 (data or parse error) or 3 (numerical failure) and one
``uqlab:`` line on stderr, never a traceback.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqlab.cli import main
from uqlab.predfile import HEADER, save_predictions
from uqlab.uq import PredictionSet

def _fuzz(examples):
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )

COMMANDS = ["eval", "threshold", "report"]


def _valid_file(directory):
    """Write a small prediction file that every reading command accepts."""
    rng = np.random.default_rng(0)
    sets = []
    for method, components in (("msp", [-1]), ("dropout", [0, 1])):
        for tag in ("id-val", "ood-near"):
            logits = rng.standard_normal((len(components), 6, 2))
            labels = np.array([0, 1, 0, 1, 1, 0])
            sets.append(
                PredictionSet.from_logits(method, 0, tag, labels, logits, components, range(6))
            )
    path = directory / "valid.csv"
    save_predictions(sets, path)
    return path


_examples = itertools.count()


def _work_dir(tmp_path):
    """A fresh directory per example; the fixture's tmp_path spans all of them."""
    work = tmp_path / f"example{next(_examples)}"
    work.mkdir()
    return work


def _check_exit(argv, capsys, path) -> int:
    """Run the command on the input file ``path``; check what it wrote and said."""
    code = main(argv)
    files = [p for p in path.parent.rglob("*") if p.is_file() and p != path]
    assert all(path.parent / "out" in p.parents for p in files), "wrote outside --out"
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != 0:
        assert code in (2, 3)
        (line,) = err.splitlines()
        assert line.startswith("uqlab: ")
    return code


def _command_argv(command, path) -> list[str]:
    argv = [command, str(path)]
    return argv + ["--out", str(path.parent / "out")] if command == "report" else argv


# Field values that sit at the edges of what the reader accepts.
FIELD_VALUES = st.sampled_from(
    ["", "0", "1", "2", "-1", "1.5", "nan", "inf", "-inf", "1e999", "1e308", "-1e308",
     "99999999999999999999999", "id-val", "ood-near", "msp", "dropout", "sngp", '"', "x,y"]
) | st.text(max_size=6)

# Dataset and method names: report file names are built from them.
NAMES = st.sampled_from(
    ["", "id-val", "msp", "dropout", "sngp", '"', "a b", "é", "a/b", "../../x", "a\\b", "a\0b",
     "a\nb", "a\u2028b"]
)


EDITS = ["field", "rename", "drop", "repeat", "append-field", "remove-field"]


@st.composite
def mutated_lines(draw, lines):
    """``lines`` with one to three edits.

    An edit replaces, appends or removes one field of a line, drops or
    repeats a line, or renames a dataset or method on every row that
    carries the name.
    """
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(EDITS))
        fields = lines[i].split(",")
        if edit == "rename" and len(fields) == len(HEADER):
            col, new = draw(st.sampled_from([1, 2])), draw(NAMES)
            rows = [line.split(",") for line in lines]
            for row in rows:
                if row[col : col + 1] == [fields[col]]:
                    row[col] = new
            lines = [",".join(row) for row in rows]
            continue
        if edit == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELD_VALUES)
        elif edit == "append-field":
            fields.append(draw(FIELD_VALUES))
        elif edit == "remove-field":
            del fields[draw(st.integers(0, len(fields) - 1))]
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = ",".join(fields)
        if not lines:
            break
    return lines


def test_valid_file_passes_every_command(tmp_path, capsys):
    path = _valid_file(tmp_path)
    for command in COMMANDS:
        assert _check_exit(_command_argv(command, path), capsys, path) == 0


@pytest.mark.parametrize("command", COMMANDS)
@_fuzz(150)
@given(data=st.data())
def test_mutated_prediction_rows(tmp_path, capsys, command, data):
    work = _work_dir(tmp_path)
    valid = _valid_file(tmp_path).read_text(encoding="utf-8").splitlines()
    lines = data.draw(mutated_lines(valid))
    path = work / "mutated.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _check_exit(_command_argv(command, path), capsys, path)


@pytest.mark.parametrize("command", COMMANDS)
@_fuzz(60)
@given(prefix=st.sampled_from([b"", (",".join(HEADER) + "\n").encode()]), body=st.binary())
def test_arbitrary_prediction_bytes(tmp_path, capsys, command, prefix, body):
    work = _work_dir(tmp_path)
    path = work / "bytes.csv"
    path.write_bytes(prefix + body)
    _check_exit(_command_argv(command, path), capsys, path)


@pytest.mark.parametrize("command", COMMANDS)
@_fuzz(40)
@given(byte=st.integers(0x80, 0xFF), data=st.data())
def test_byte_that_is_not_utf8_names_its_line(tmp_path, capsys, command, byte, data):
    # The file is otherwise valid and ASCII: one byte of 0x80-0xFF among
    # ASCII bytes is never UTF-8.
    work = _work_dir(tmp_path)
    lines = _valid_file(tmp_path).read_bytes().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(lines[i]) - 1))  # up to just before the line's LF
    lines[i] = lines[i][:at] + bytes([byte]) + lines[i][at:]
    path = work / "bytes.csv"
    path.write_bytes(b"".join(lines))
    assert main(_command_argv(command, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"uqlab: error: line {i + 1}: byte 0x{byte:02x} is not UTF-8 (")
    assert err.count("\n") == 1


@_fuzz(60)
@given(prefix=st.sampled_from([b"", b'{"schema_version": 1, ']), body=st.binary())
def test_arbitrary_config_bytes(tmp_path, capsys, prefix, body):
    work = _work_dir(tmp_path)
    path = work / "config.json"
    path.write_bytes(prefix + body)
    _check_exit(["run", "--config", str(path), "--out", str(work / "out")], capsys, path)


# A tiny one-seed run of every method, and every size its config sets.
TINY_CONFIG = {
    "schema_version": 1, "seeds": [0], "model": {"hidden_sizes": [8]}, "train": {"epochs": 1},
    "dropout": {"passes": 2}, "ensemble": {"members": 2, "replicates": 1},
    "sngp": {"rff_dim": 16}, "ladder": {"n_train": 40, "n_val": 20, "n_ood": 20, "n_novel": 8},
}
SIZE_KEYS = [
    ("ladder", "n_train"), ("ladder", "n_val"), ("ladder", "n_ood"), ("ladder", "n_novel"),
    ("model", "hidden_sizes"), ("dropout", "passes"), ("ensemble", "members"),
    ("ensemble", "replicates"), ("sngp", "rff_dim"),
]


@pytest.mark.parametrize("section, key", SIZE_KEYS, ids=[".".join(k) for k in SIZE_KEYS])
@_fuzz(3)
@given(size=st.integers(2**62, 2**64))
def test_size_past_the_largest_array(tmp_path, capsys, section, key, size):
    # From 2**62 up, the bytes that each size fills (or the size itself)
    # pass the largest array: every one is refused before it is allocated.
    _run_sized(tmp_path, capsys, section, key, size)


@pytest.mark.parametrize("key", ["members", "replicates"])
@_fuzz(3)
@given(size=st.integers(2**40, 2**64))
def test_ensemble_count_past_the_address_space(tmp_path, capsys, key, size):
    # From 2**40 up, the tiny ensemble's networks hold more parameters and
    # eval-set logits than a 47-bit address space: refused at load.
    _run_sized(tmp_path, capsys, "ensemble", key, size)


def _run_sized(tmp_path, capsys, section, key, size):
    """``uqlab run`` on TINY_CONFIG with ``section.key`` at ``size``: exit 2 at load."""
    work = _work_dir(tmp_path)
    doc = json.loads(json.dumps(TINY_CONFIG))
    doc[section][key] = [size] if key == "hidden_sizes" else size
    path = work / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert _check_exit(["run", "--config", str(path), "--out", str(work / "out")], capsys, path) == 2
