import csv
import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqlab import _numtext
from uqlab.data import make_two_moons
from uqlab.errors import DataError, ParseError, SchemaVersionError
from uqlab.mlp import TrainConfig, init_mlp, softmax, train
from uqlab.predfile import HEADER, load_predictions, save_predictions
from uqlab.rng import make_rng
from uqlab.uq import PredictionSet, mc_dropout_predict, msp_predict, scores_from_logits


def trained_model(dropout=0.0, seed=0):
    data = make_two_moons(128, 0.1, make_rng(seed))
    model = init_mlp([2, 8, 2], dropout, None, seed=seed + 1)
    return train(model, data, TrainConfig(epochs=5, seed=seed + 2)), data


def assert_sets_equal(a, b):
    assert a.method == b.method
    assert a.seed == b.seed
    assert a.tag == b.tag
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.sample_ids, b.sample_ids)
    np.testing.assert_array_equal(a.component_indices, b.component_indices)
    np.testing.assert_array_equal(a.component_logits, b.component_logits)
    np.testing.assert_array_equal(a.probs, b.probs)
    np.testing.assert_array_equal(a.uncertainty, b.uncertainty)


def test_empty_file_with_header_is_empty(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(",".join(HEADER) + "\n", encoding="utf-8")
    assert load_predictions(path) == []


def test_three_sample_round_trip(tmp_path):
    model, data = trained_model()
    pred = msp_predict(model, make_two_moons(3, 0.1, make_rng(5), tag="tiny"), seed=7)
    path = tmp_path / "p.csv"
    save_predictions(pred, path)
    (back,) = load_predictions(path)
    assert_sets_equal(pred, back)


def test_multi_component_round_trip(tmp_path):
    model, data = trained_model(dropout=0.5)
    pred = mc_dropout_predict(model, data, n_samples=6, seed=9)
    path = tmp_path / "p.csv"
    save_predictions([pred], path)
    (back,) = load_predictions(path)
    assert_sets_equal(pred, back)


def test_mixed_sets_in_one_file(tmp_path):
    model, data = trained_model()
    a = msp_predict(model, data, seed=1)
    b = mc_dropout_predict(trained_model(dropout=0.5, seed=3)[0], data, 4, seed=2)
    path = tmp_path / "p.csv"
    save_predictions([a, b], path)
    back = load_predictions(path)
    assert {(s.method, s.seed) for s in back} == {("msp", 1), ("dropout", 2)}


def test_hand_written_fixture(tmp_path):
    rows = [",".join(HEADER)]
    # Two samples, two components each, plus one single-pass set.
    rows += [
        "0,val,dropout,3,0,1,0.0,2.0",
        "0,val,dropout,3,1,1,2.0,0.0",
        "1,val,dropout,3,0,0,1.0,1.0",
        "1,val,dropout,3,1,0,-1.0,-1.0",
        "2,val,msp,3,-1,1,0.0,0.0",
    ]
    path = tmp_path / "hand.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    sets = {s.method: s for s in load_predictions(path)}
    drop = sets["dropout"]
    e2 = np.exp(2.0)
    p_pass = e2 / (1 + e2)
    np.testing.assert_allclose(drop.probs[0], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(drop.probs[1], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(
        drop.component_logits[:, 0, :], [[0.0, 2.0], [2.0, 0.0]]
    )
    # Per-pass probabilities are retained in provenance.
    np.testing.assert_allclose(softmax(drop.component_logits)[0, 0], [1 - p_pass, p_pass], atol=1e-12)
    np.testing.assert_array_equal(drop.labels, [1, 0])
    msp = sets["msp"]
    np.testing.assert_allclose(msp.probs[0], [0.5, 0.5])
    assert msp.uncertainty[0] == pytest.approx(0.5)


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER) + "\n0,val,msp,1,-1,1,0.0,1.0\n0,val,msp,oops,-1,1,0.0\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        load_predictions(path)
    assert str(err.value) == "line 3: expected 8 fields, got 7"


def test_error_after_a_multi_line_record_names_the_record_first_line(tmp_path):
    # The method name of the record on lines 2-3 holds a newline; the bad label
    # is on line 4.
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER) + '\n0,val,"m\nx",1,-1,1,0.0,1.0\n1,val,msp,1,-1,7,0.0,1.0\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        load_predictions(path)
    assert str(err.value) == "line 4: label must be 0 or 1, got '7'"


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    # The file is many times the text reader's buffer, whose start the
    # decode error's position counts from.
    path = tmp_path / "bad.csv"
    save_predictions(synthetic_set("msp", "val", 1, 5000, 0), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4001] = lines[4001][:5] + b"\xff" + lines[4001][5:]
    path.write_bytes(b"".join(lines))
    assert path.stat().st_size > 10 * 8192
    with pytest.raises(ParseError) as err:
        load_predictions(path)
    assert str(err.value) == "line 4002: byte 0xff is not UTF-8 (invalid start byte)"


def test_unknown_header_is_version_error(tmp_path):
    path = tmp_path / "v2.csv"
    path.write_text("sample_id,dataset,method,seed,extra\n", encoding="utf-8")
    with pytest.raises(SchemaVersionError):
        load_predictions(path)


def test_inconsistent_components_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER)
        + "\n0,val,dropout,1,0,1,0.0,1.0\n0,val,dropout,1,1,1,0.0,1.0\n1,val,dropout,1,0,1,0.0,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == "val/dropout/seed 1: sample 1 has inconsistent components"


def test_conflicting_labels_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER) + "\n0,val,dropout,1,0,1,0.0,1.0\n0,val,dropout,1,1,0,0.0,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == "val/dropout/seed 1: sample 0 has conflicting labels"


@pytest.mark.parametrize(
    "rows, message",
    [
        # A row that both conflicts in its label and repeats its component
        # names the label.
        (["0,val,dropout,1,0,1,0.0,1.0", "0,val,dropout,1,0,0,0.0,1.0"],
         "sample 0 has conflicting labels"),
        (["0,val,dropout,1,0,1,0.0,1.0", "0,val,dropout,1,0,1,2.0,3.0"],
         "sample 0 repeats component 0"),
        # An identical row is a repeat too.
        (["3,val,dropout,1,5,1,0.0,1.0", "3,val,dropout,1,5,1,0.0,1.0"],
         "sample 3 repeats component 5"),
        # Across samples, the first in sorted order that differs from the
        # first sample's components, whatever the row order: sample 2 lacks
        # component 1, sample 3 has an extra one.
        (["3,val,dropout,1,0,0,0.0,1.0", "3,val,dropout,1,1,0,0.0,1.0", "3,val,dropout,1,2,0,0.0,1.0",
          "2,val,dropout,1,0,0,0.0,1.0", "1,val,dropout,1,0,0,0.0,1.0", "1,val,dropout,1,1,0,0.0,1.0"],
         "sample 2 has inconsistent components"),
        (["1,val,dropout,1,0,0,0.0,1.0", "2,val,dropout,1,1,0,0.0,1.0"],
         "sample 2 has inconsistent components"),
        (["2,val,dropout,1,0,0,0.0,1.0", "2,val,dropout,1,1,0,0.0,1.0", "1,val,dropout,1,0,0,0.0,1.0"],
         "sample 2 has inconsistent components"),
    ],
    ids=["label-before-repeat", "repeat", "identical-repeat", "missing-then-extra",
         "other-component", "extra-component"],
)
def test_assembly_errors_name_the_sample(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([",".join(HEADER), *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_predictions(path)
    assert str(err.value) == f"val/dropout/seed 1: {message}"


def test_lf_line_endings_and_full_precision(tmp_path):
    model, data = trained_model()
    pred = msp_predict(model, data, seed=4)
    path = tmp_path / "p.csv"
    save_predictions(pred, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    (back,) = load_predictions(path)
    np.testing.assert_array_equal(back.component_logits, pred.component_logits)


@pytest.mark.parametrize(
    "row, what",
    [
        ("0,val,msp,1,-1,7,0.0,1.0", "label"),
        ("0,val,msp,1,-1,-1,0.0,1.0", "label"),
        ("0,val,msp,1,-1,1,nan,1.0", "finite"),
        ("0,val,msp,1,-1,1,0.0,-inf", "finite"),
    ],
)
def test_bad_label_or_non_finite_logit_names_line(tmp_path, row, what):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER) + "\n1,val,msp,1,-1,0,0.0,1.0\n" + row + "\n", encoding="utf-8"
    )
    with pytest.raises(ParseError, match=what) as err:
        load_predictions(path)
    assert err.value.line == 3


def reference_save(sets, path):
    """Row-by-row csv.writer writer: the byte reference for save_predictions."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        for pred in sets:
            for i in range(len(pred)):
                for c, comp_idx in enumerate(pred.component_indices):
                    z = pred.component_logits[c, i]
                    writer.writerow(
                        [
                            int(pred.sample_ids[i]),
                            pred.tag,
                            pred.method,
                            int(pred.seed),
                            int(comp_idx),
                            int(pred.labels[i]),
                            repr(float(z[0])),
                            repr(float(z[1])),
                        ]
                    )


def synthetic_set(method, tag, k, n, seed, special=()):
    rng = make_rng(seed)
    logits = rng.standard_normal((k, n, 2)) * 10
    flat = logits.reshape(-1)
    flat[: len(special)] = special
    indices = [-1] if k == 1 and method == "msp" else list(range(k))
    probs, unc = scores_from_logits(method, logits)
    return PredictionSet(
        method=method,
        seed=seed,
        tag=tag,
        labels=rng.integers(0, 2, n),
        component_logits=logits,
        component_indices=np.asarray(indices, dtype=np.int64),
        sample_ids=np.arange(n, dtype=np.int64),
        probs=probs,
        uncertainty=unc,
    )


def test_writer_bytes_match_row_by_row_reference(tmp_path):
    specials = (-0.0, 5e-324, 1e-300, 1e300, -1e300, 0.1, -5e-324)
    sets = [
        synthetic_set("msp", 'odd, "quoted" tag', 1, 300, 1, specials),
        synthetic_set("dropout", "id-val", 32, 200, 2, specials),
        synthetic_set("ensemble", "empty", 4, 0, 3),
        synthetic_set('meth,"od"', "ood-far", 3, 5000, 4, specials),
    ]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_predictions(sets, got)
    reference_save(sets, want)
    assert got.read_bytes() == want.read_bytes()
    assert b'"odd, ""quoted"" tag"' in got.read_bytes()

    back = {(s.tag, s.method): s for s in load_predictions(got)}
    assert len(back) == 3  # the empty set writes no rows
    for pred in sets:
        if len(pred):
            assert_sets_equal(pred, back[(pred.tag, pred.method)])
            assert np.signbit(back[(pred.tag, pred.method)].component_logits.reshape(-1)[0])

    # Ints at the int64 limits, negative labels and component indices, and
    # quoted, CR and non-ASCII names. No reader takes a negative label, so
    # these rows are compared as bytes only.
    ids = np.array([-(2**63), 2**63 - 1, -1, 0, 10**18, -(10**18), 9, 10, 99999])
    labels = np.array([-3, 2**40, 0, 1, -1, 7, -(2**63), 2**63 - 1, 10])
    sets = [
        dataclasses.replace(
            synthetic_set("msp", "ünïcode ✓", 1, 9, 5), sample_ids=ids, labels=labels
        ),
        dataclasses.replace(
            synthetic_set("méthode", "a\rb", 3, 9, 6),
            component_indices=np.array([-5, 0, 12345678901]),
            sample_ids=ids[::-1].copy(),
            labels=labels,
        ),
        synthetic_set('"', "\r", 1, 4, 7),
    ]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_predictions(sets, got)
    reference_save(sets, want)
    # csv.writer with an LF terminator leaves a bare CR unquoted; the writer
    # quotes it (test_names_with_a_carriage_return_round_trip).
    expected = want.read_bytes().replace(b",a\rb,", b',"a\rb",').replace(b",\r,", b',"\r",')
    assert got.read_bytes() == expected
    assert "-9223372036854775808,ünïcode ✓,msp,5,-1,-3,".encode() in expected


def test_writer_memory_is_bounded_by_a_block(tmp_path):
    # A 32-component set is written 64 samples (2048 rows) a block. Formatting
    # both logit columns of a block at once peaked at 1.50 MB; one column at
    # a time, with the block's array freed before its pad is dropped, 0.81 MB.
    pred = synthetic_set("dropout", "id-val", 32, 2500, 8)
    path = tmp_path / "p.csv"
    save_predictions(pred, path)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        save_predictions(pred, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.9e6


def float_texts(values) -> list[str]:
    """The text the writer gives each float of ``values``."""
    fields = _numtext._float_chars(np.asarray(values, dtype=np.float64))
    chars = np.concatenate(fields, axis=1)
    return [row.tobytes().replace(_numtext._PAD, b"").decode() for row in chars]


def assert_written_as_repr(values):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    assert float_texts(values) == [repr(v) for v in values.tolist()]


def neighbours(values, ulps):
    """``values`` and the ``ulps`` doubles on each side of each."""
    out, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_floats_are_written_as_repr_writes_them(values):
    assert_written_as_repr(values)


def test_powers_of_two_and_their_neighbours_are_written_as_repr():
    # A power of two has a round-trip interval twice as wide above as below.
    values = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 1)
    assert_written_as_repr(np.concatenate([values, -values]))


def test_powers_of_ten_and_their_neighbours_are_written_as_repr():
    values = neighbours(np.array([float(f"1e{e}") for e in range(-20, 23)]), 5)
    assert_written_as_repr(np.concatenate([values, -values]))


def test_ties_between_two_shortest_candidates_are_written_as_repr():
    # 1 + 2**-17 is 1.00000762939453125 exactly: two 17-digit decimals are
    # equally near. Odd multiples of 2**-p end in 5 at every length.
    ties = [(1 + 2.0**-p) * 2.0**e for p in range(10, 53) for e in range(-14, 50)]
    odd = [i * 2.0**-p for i in range(1, 200, 2) for p in range(1, 60)]
    values = np.array(ties + odd)
    assert_written_as_repr(np.concatenate([values, -values]))


def test_switch_points_subnormals_and_zeros_are_written_as_repr():
    # repr switches to an exponent below 1e-4 and from 1e16; the writer's own
    # digits cover [1e-4, 1e15).
    edges = neighbours(np.array([1e-4, 1e15, 1e16, 2.0**-1022, 5e-324, 2.0**53]), 3)
    odd = np.array([0.0, 1e-310, np.finfo(float).max, np.inf, np.nan, 9999999999999998.0])
    values = np.concatenate([edges, odd])
    assert_written_as_repr(np.concatenate([values, -values]))
    assert float_texts([0.0, -0.0]) == ["0.0", "-0.0"]


def test_powers_of_two_and_exact_ties_are_left_to_repr():
    # A power of two's round-trip interval is asymmetric; 1 + 2**-17 lies
    # exactly between two 17-digit decimals.
    values = np.array([2.0**-13, 0.5, 1.0, 2.0**49, 1 + 2.0**-17, 3 * (1 + 2.0**-17)])
    _, _, decided = _numtext._shortest(values)
    assert not decided.any()
    assert _numtext._shortest(np.array([0.1, 1.5, 123.456]))[2].all()


def test_random_doubles_are_written_as_repr():
    rng = make_rng(11)
    values = np.concatenate(
        [
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
            10.0 ** rng.uniform(-6, 17, 20_000) * rng.choice([-1, 1], 20_000),
            np.round(rng.uniform(-100, 100, 20_000), 3),
            rng.standard_normal(20_000).astype(np.float32),
        ]
    )
    assert_written_as_repr(values)


def test_ints_are_written_as_str_writes_them():
    values = [0, 1, -1, 9, 10, -10, 9999, 10_000, 2**63 - 1, -(2**63), -(10**18), 10**18]
    chars = _numtext._int_chars(np.array(values))
    texts = [row.tobytes().replace(_numtext._PAD, b"").decode() for row in chars]
    assert texts == list(map(str, values))


@pytest.mark.parametrize("name", ["a\rb", "\r", "a\r\nb"], ids=["cr", "cr-only", "crlf"])
def test_names_with_a_carriage_return_round_trip(tmp_path, name):
    sets = [synthetic_set(name, "id-val", 1, 3, 5), synthetic_set("msp", name, 1, 3, 6)]
    path = tmp_path / "p.csv"
    save_predictions(sets, path)
    assert f',"{name}",'.encode() in path.read_bytes()
    back = {(s.tag, s.method): s for s in load_predictions(path)}
    for pred in sets:
        assert_sets_equal(pred, back[(pred.tag, pred.method)])


def test_writer_empty_set_list_writes_header_only(tmp_path):
    path = tmp_path / "p.csv"
    save_predictions([], path)
    assert path.read_bytes() == (",".join(HEADER) + "\n").encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs Linux's /dev/full")
def test_failed_write_names_its_file():
    # Opening /dev/full succeeds; the write fails at the flush, and the
    # error names the file as a failed open does.
    model, data = trained_model()
    with pytest.raises(OSError) as raised:
        save_predictions(msp_predict(model, data, seed=0), "/dev/full")
    assert str(raised.value) == "[Errno 28] No space left on device: '/dev/full'"
