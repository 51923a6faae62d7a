import csv

import numpy as np
import pytest

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
    assert err.value.line == 3


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
    with pytest.raises(DataError):
        load_predictions(path)


def test_conflicting_labels_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(HEADER) + "\n0,val,dropout,1,0,1,0.0,1.0\n0,val,dropout,1,1,0,0.0,1.0\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_predictions(path)


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
