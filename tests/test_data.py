import csv
import math

import numpy as np
import pytest

from uqlab.data import (
    Dataset,
    LadderSpec,
    MOON_NOISE,
    NOVEL_CENTER,
    ShiftConfig,
    apply_shift,
    load_dataset,
    make_ladder,
    make_novel_class,
    make_two_moons,
    save_dataset,
)
from uqlab.errors import ConfigError, DataError, ParseError
from uqlab.rng import make_rng

import oracles


def test_empty_dataset():
    ds = make_two_moons(0, 0.1, make_rng(0))
    assert len(ds) == 0
    assert ds.features.shape == (0, 2)


def test_noiseless_moons_lie_on_parametrization():
    ds = make_two_moons(1000, 0.0, make_rng(0))
    assert int((ds.labels == 0).sum()) == 500
    assert int((ds.labels == 1).sum()) == 500
    upper = ds.features[ds.labels == 0]
    # Upper half circle: unit radius around the origin, y >= 0.
    np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
    assert np.all(upper[:, 1] >= -1e-12)
    lower = ds.features[ds.labels == 1]
    np.testing.assert_allclose(
        np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1), 1.0, atol=1e-12
    )
    assert np.all(lower[:, 1] <= 0.5 + 1e-12)


def test_odd_count_class_balance():
    ds = make_two_moons(11, 0.0, make_rng(0))
    assert int((ds.labels == 0).sum()) == 6
    assert int((ds.labels == 1).sum()) == 5


def test_sample_means_match_analytic_integral():
    n = 10_000
    noise = 0.1
    ds = make_two_moons(n, noise, make_rng(42))
    tol = 3.0 * noise / math.sqrt(n / 2)
    expected = oracles.moon_class_means()
    for cls in (0, 1):
        observed = ds.features[ds.labels == cls].mean(axis=0)
        # Grid bias of the deterministic parametrization is O(1/n^2).
        assert np.all(np.abs(observed - expected[cls]) < tol + 1e-4)


def test_negative_noise_rejected():
    with pytest.raises(ConfigError):
        make_two_moons(10, -0.1, make_rng(0))


def test_same_seed_bit_identical():
    a = make_two_moons(500, 0.2, make_rng(7))
    b = make_two_moons(500, 0.2, make_rng(7))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_identity_shift_is_identity():
    ds = make_two_moons(200, 0.1, make_rng(1))
    out = apply_shift(ds, ShiftConfig(), "shifted", make_rng(2))
    np.testing.assert_array_equal(out.features, ds.features)
    np.testing.assert_array_equal(out.labels, ds.labels)
    assert out.tag == "shifted"


def test_pure_translation_exact():
    ds = make_two_moons(200, 0.1, make_rng(1))
    out = apply_shift(ds, ShiftConfig(translation=(10.0, 0.0)), "t", make_rng(2))
    np.testing.assert_array_equal(out.features, ds.features + np.array([10.0, 0.0]))


def test_rotation_conjugates_covariance():
    ds = make_two_moons(20_000, 0.1, make_rng(3))
    theta = math.pi / 2
    out = apply_shift(ds, ShiftConfig(rotation=theta), "r", make_rng(4))
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    cov_in = np.cov(ds.features.T)
    cov_out = np.cov(out.features.T)
    np.testing.assert_allclose(cov_out, rot @ cov_in @ rot.T, atol=1e-10)


def test_noise_inflation_adds_declared_variance():
    base = Dataset(np.zeros((50_000, 2)), np.zeros(50_000, dtype=np.int64), "z")
    inflation = 1.5
    out = apply_shift(base, ShiftConfig(noise_inflation=inflation), "n", make_rng(5))
    observed = out.features.std(axis=0)
    np.testing.assert_allclose(observed, inflation - 1.0, rtol=0.05)


def test_shift_rejects_empty():
    empty = make_two_moons(0, 0.1, make_rng(0))
    with pytest.raises(DataError):
        apply_shift(empty, ShiftConfig(), "x", make_rng(0))


def test_shift_ladder_monotone_in_translation():
    ds = make_two_moons(1000, 0.1, make_rng(6))
    prev = 0.0
    for k in (1.0, 2.0, 3.0, 4.0):
        shifted = apply_shift(ds, ShiftConfig(translation=(k, 0.0)), "s", make_rng(7))
        # Mean over shifted samples of the distance to the nearest ID point.
        d = np.sqrt(
            ((shifted.features[:, None, :] - ds.features[None, :, :]) ** 2).sum(-1)
        )
        mean_nn = d.min(axis=1).mean()
        assert mean_nn > prev
        prev = mean_nn


def test_novel_class_empty():
    assert len(make_novel_class(0, make_rng(0))) == 0


def test_novel_class_label_ratio_exact():
    ds = make_novel_class(800, make_rng(1))
    assert int((ds.labels == 0).sum()) == 700
    assert int((ds.labels == 1).sum()) == 100
    assert ds.tag == "ood-novel"


def test_novel_class_mean_separation():
    ds = make_novel_class(5000, make_rng(2))
    mean = ds.features.mean(axis=0)
    for moon_mean in oracles.moon_class_means():
        assert np.linalg.norm(mean - moon_mean) >= 5.0 * MOON_NOISE
    np.testing.assert_allclose(mean, NOVEL_CENTER, atol=0.05)


def test_ladder_tags_and_determinism():
    ladder = make_ladder(LadderSpec(n_train=50, n_val=40, n_ood=30, n_novel=16), 9)
    assert sorted(ladder) == ["id-train", "id-val", "ood-far", "ood-near", "ood-novel"]
    again = make_ladder(LadderSpec(n_train=50, n_val=40, n_ood=30, n_novel=16), 9)
    for tag in ladder:
        np.testing.assert_array_equal(ladder[tag].features, again[tag].features)


@pytest.mark.parametrize("name", ["n_train", "n_val", "n_ood", "n_novel"])
def test_ladder_sizes_must_be_positive(name):
    with pytest.raises(ConfigError, match=f"^{name}: must be >= 1, got 0$") as exc:
        LadderSpec(**{name: 0})
    assert exc.value.key == name


@pytest.mark.parametrize("name", ["n_train", "n_val", "n_ood", "n_novel"])
def test_ladder_sizes_must_fit_an_array(name):
    # Bounded by the bytes of the dataset's features: 2 float64 per sample.
    largest = np.iinfo(np.intp).max // 16
    for size in (10**30, largest + 1):
        with pytest.raises(ConfigError, match=f"^{name}: must be <= {largest}, ") as exc:
            LadderSpec(**{name: size})
        assert exc.value.key == name
    assert getattr(LadderSpec(**{name: largest}), name) == largest


@pytest.mark.parametrize("name", ["near", "far"])
@pytest.mark.parametrize("translation", [(0.4, 0.2, 0.0), (1.0,), ()])
def test_ladder_shift_translation_must_have_two_components(name, translation):
    # apply_shift takes any dimension; the ladder's features are 2-D.
    with pytest.raises(ConfigError, match=f"^{name}.translation: ") as exc:
        LadderSpec(**{name: ShiftConfig(translation=translation)})
    assert exc.value.key == f"{name}.translation"


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), "x")
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.array([0, 2]), "x")
    with pytest.raises(DataError):
        Dataset(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), "")
    with pytest.raises(DataError):
        Dataset(np.array([[np.inf, 0.0]]), np.zeros(1, dtype=np.int64), "x")


@pytest.mark.parametrize("labels", [[0.5, 1.9, -0.7], [0.0, 1.0, 1.5], [0, 1, np.nan]])
def test_dataset_rejects_non_binary_labels_before_the_int_cast(labels):
    with pytest.raises(DataError, match="labels must be 0 or 1"):
        Dataset(np.zeros((3, 2)), labels, "t")


def test_dataset_keeps_integral_float_labels_as_int64():
    ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, 1.0], "t")
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]


def test_csv_round_trip(tmp_path):
    ds = make_two_moons(25, 0.3, make_rng(10), tag="round-trip")
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.tag == ds.tag
    text = path.read_bytes()
    assert text.startswith(b"x0,x1,label,tag\n")
    assert b"\r" not in text


@pytest.mark.parametrize(
    "tag", ["a\rb", "a\r", "a\nb", 'a,"b"'], ids=["cr", "cr-last", "lf", "comma-quote"]
)
def test_csv_round_trip_quotes_line_breaks_in_the_tag(tmp_path, tag):
    ds = make_two_moons(4, 0.3, make_rng(11), tag=tag)
    path = tmp_path / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.tag == tag
    np.testing.assert_array_equal(back.features, ds.features)


def reference_save_dataset(data, path):
    """Row-by-row csv.writer writer with ``repr`` floats: the byte reference for save_dataset."""
    d = data.features.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(d)] + ["label", "tag"])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label), data.tag])


@pytest.mark.parametrize(
    "tag", ["id-train", 'odd, "quoted"\r tag', "ünïcode ✓"], ids=["plain", "comma-quote-cr", "utf8"]
)
def test_csv_bytes_match_row_by_row_reference(tmp_path, tag):
    # More rows than one formatting block, three features, and floats that
    # repr writes with an exponent, as -0.0, or with 17 digits.
    rng = make_rng(12)
    features = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-6, 18, (5000, 3))
    features[:7, 0] = [-0.0, 0.0, 5e-324, 1e300, 1e-5, 1e16, 0.1]
    ds = Dataset(features, rng.integers(0, 2, 5000), tag)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    for data in (ds, Dataset(np.zeros((0, 3)), np.zeros(0), tag)):
        save_dataset(data, got)
        reference_save_dataset(data, want)
        assert got.read_bytes() == want.read_bytes()


def test_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label,tag\n1.0,2.0,zero,a\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert str(err.value) == "line 2: invalid literal for int() with base 10: 'zero'"
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_dataset(path)
    path.write_text("x0,x1,label,tag\n1.0,2.0,0,a\n1.0,2.0,0,b\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path)
    long_tag = "b" * 140_000  # over the csv module's 131072-character field limit
    path.write_text(f"x0,x1,label,tag\n1.0,2.0,0,a\n1.0,2.0,0,{long_tag}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_dataset(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "byte, reason",
    [(b"\xff", "invalid start byte"), (b"\xc3", "invalid continuation byte")],
)
def test_csv_byte_that_is_not_utf8_names_its_line(tmp_path, byte, reason):
    # The file is many times the text reader's buffer, whose start the
    # decode error's position counts from; the tag's line breaks make a
    # record span two lines, and a lone CR ends a line as the reader counts.
    path = tmp_path / "bad.csv"
    save_dataset(make_two_moons(3000, 0.3, make_rng(13), tag="a\rb"), path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3999] = lines[3999][:3] + byte + lines[3999][3:]
    path.write_bytes(b"".join(lines))
    assert path.stat().st_size > 10 * 8192
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert str(err.value) == f"line 4000: byte 0x{byte.hex()} is not UTF-8 ({reason})"


def test_an_earlier_fault_is_reported_before_a_later_byte_that_is_not_utf8(tmp_path):
    # The whole file fits in the text reader's first buffer, which decodes
    # line 5 before the csv reader hands over line 3.
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x0,x1,label,tag\n1.0,2.0,0,a\n1.0,0,a\n1.0,2.0,1,a\n1.0,2.0,1,a\xff\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert str(err.value) == "line 3: expected 4 fields, got 3"


def test_csv_error_after_a_multi_line_record_names_the_record_first_line(tmp_path):
    # The tag of the record on lines 2-3 holds a newline; the bad label is on line 4.
    path = tmp_path / "bad.csv"
    path.write_text('x0,x1,label,tag\n1.0,2.0,0,"a\nb"\n1.0,2.0,7,"a\nb"\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert str(err.value) == "line 4: label must be 0 or 1, got '7'"
    long_tag = "b" * 140_000  # a record the csv module cannot read, from line 4
    path.write_text(f'x0,x1,label,tag\n1.0,2.0,0,"a\nb"\n1.0,2.0,0,"\n{long_tag}"\n', encoding="utf-8")
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_dataset(path)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "row, what",
    [
        ("1.0,2.0,2,a", "label must be 0 or 1"),
        ("1.0,2.0,-1,a", "label must be 0 or 1"),
        ("1.0,2.0,99999999999999999999999,a", "label must be 0 or 1"),
        ("nan,2.0,0,a", "features must be finite"),
        ("1.0,1e999,0,a", "features must be finite"),
        ("1.0,-inf,1,a", "features must be finite"),
        ("1.0,2.0,1,", "tag must be non-empty"),
    ],
    ids=[
        "label-2", "label-negative", "label-beyond-int64", "nan", "overflow-to-inf", "minus-inf",
        "empty-tag",
    ],
)
def test_csv_unreadable_value_names_line(tmp_path, row, what):
    path = tmp_path / "bad.csv"
    path.write_text(f"x0,x1,label,tag\n1.0,2.0,0,a\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=what) as err:
        load_dataset(path)
    assert err.value.line == 3
