import gzip
import math
import os
import string
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratgrad import dataio
from stratgrad.dataio import (
    IdxFormatError,
    LabeledDataset,
    read_idx_images,
    read_idx_labels,
    read_mnist_split,
    subsample_rows,
    to_dataset,
    write_csv,
    write_manifest,
    write_svg_lineplot,
)

from idxtools import (CRITERION_RIDGE, CRITERION_ROWS, CRITERION_SEED, HARD_BLEND_NOISE,
                      blended_digit_splits, pack_idx_images, pack_idx_labels, ridge_accuracy,
                      synthetic_digits, write_mnist_style_dir)
from oracles import (read_csv_columns, scaled_features_reference, subsample_reference,
                     write_csv_reference)


@pytest.fixture
def tiny_idx(tmp_path):
    images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28) % 251
    labels = np.array([3, 7], dtype=np.uint8)
    img_path = tmp_path / "imgs"
    lbl_path = tmp_path / "lbls"
    img_path.write_bytes(pack_idx_images(images))
    lbl_path.write_bytes(pack_idx_labels(labels))
    return images, labels, img_path, lbl_path


# ---------------------------------------------------------------- idx parsing

def test_idx_round_trip_exact(tiny_idx):
    images, labels, img_path, lbl_path = tiny_idx
    assert np.array_equal(read_idx_images(img_path), images)
    assert np.array_equal(read_idx_labels(lbl_path), labels)


def test_idx_gzip_transparent(tmp_path, tiny_idx):
    images, labels, img_path, lbl_path = tiny_idx
    gz = tmp_path / "imgs.gz"
    with gzip.open(gz, "wb") as f:
        f.write(img_path.read_bytes())
    assert np.array_equal(read_idx_images(gz), images)


def test_idx_bad_magic_names_observed_value(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxFormatError, match="0xdeadbeef") as exc:
        read_idx_images(path)
    assert exc.value.kind == "magic"
    with pytest.raises(IdxFormatError, match="0x00000803"):
        read_idx_images(path)


def test_idx_truncated_payload(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 100)
    with pytest.raises(IdxFormatError, match="offset 16") as exc:
        read_idx_images(path)
    assert exc.value.kind == "truncated"


@pytest.mark.parametrize("gz", [False, True])
def test_idx_oversized_header_is_truncated(tmp_path, gz):
    # 2**96 - 1 pixels claimed: more than any read can ask for at once
    raw = struct.pack(">IIII", 0x803, *[2 ** 32 - 1] * 3) + b"\x00" * 4
    path = tmp_path / ("huge.gz" if gz else "huge")
    path.write_bytes(gzip.compress(raw) if gz else raw)
    with pytest.raises(IdxFormatError, match="offset 16") as exc:
        read_idx_images(path)
    assert exc.value.kind == "truncated"


def test_idx_trailing_bytes(tmp_path):
    path = tmp_path / "long"
    path.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00" * 3)
    with pytest.raises(IdxFormatError) as exc:
        read_idx_labels(path)
    assert exc.value.kind == "dimensions"


@pytest.mark.parametrize("gz", [False, True])
def test_idx_chosen_rows_equal_a_whole_read_then_indexing(tmp_path, gz):
    images = np.random.default_rng(3).integers(0, 256, (40, 5, 7), dtype=np.uint8)
    path = tmp_path / ("imgs.gz" if gz else "imgs")
    raw = pack_idx_images(images)
    path.write_bytes(gzip.compress(raw) if gz else raw)
    # out of order, repeated, first and last
    for rows in ([39, 0, 17, 17, 3], np.array([], dtype=np.int64), np.arange(40)[::-1]):
        got = read_idx_images(path, rows)
        want = read_idx_images(path)[rows]
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    with pytest.raises(IndexError):
        read_idx_images(path, [40])


def test_idx_chosen_rows_of_a_plain_file_leave_the_rest_unread(tmp_path):
    images = np.random.default_rng(4).integers(0, 256, (5000, 28, 28), dtype=np.uint8)
    path = tmp_path / "imgs"
    path.write_bytes(pack_idx_images(images))
    tracemalloc.start()
    try:
        got = read_idx_images(path, [4999, 7, 2500])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == images[[4999, 7, 2500]].tobytes()
    assert peak < images.nbytes / 20  # a whole read holds all 3.9 MB


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("raw, kind, match", [
    (struct.pack(">IIII", 0xDEADBEEF, 2, 2, 2) + b"\x00" * 8, "magic", "0xdeadbeef"),
    (struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 100, "truncated", "offset 16, got 100"),
    (struct.pack(">IIII", 0x803, 2, 0, 28), "dimensions", "degenerate"),
    (struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 9, "dimensions", "trailing"),
    (struct.pack(">II", 0x803, 2), "truncated", "dimensions"),
])
def test_idx_chosen_rows_read_keeps_every_format_error(tmp_path, raw, kind, match, gz):
    # a whole read and a row pick, of a plain file and of a gzip stream
    path = tmp_path / ("bad.gz" if gz else "bad")
    path.write_bytes(gzip.compress(raw) if gz else raw)
    for rows in (None, [0]):
        with pytest.raises(IdxFormatError, match=match) as exc:
            read_idx_images(path, rows)
        assert exc.value.kind == kind


def test_idx_label_magic_checked(tmp_path):
    path = tmp_path / "wrongkind"
    path.write_bytes(struct.pack(">IIII", 0x803, 1, 1, 1) + b"\x00")
    with pytest.raises(IdxFormatError, match="label magic"):
        read_idx_labels(path)


# ---------------------------------------------------------------- datasets

def test_to_dataset_layout(tiny_idx):
    images, labels, _, _ = tiny_idx
    ds = to_dataset(images, labels)
    assert ds.pixels.shape == (2, 784) and ds.pixels.dtype == np.uint8
    assert np.shares_memory(ds.pixels, images)  # a view, not a copy
    assert ds.features().shape == (2, 784)
    assert ds.n_classes == 8  # labels 3 and 7, classes 0..7
    assert float(ds.features().max()) <= 1.0
    sizes = [idx.size for idx in ds.class_index]
    assert sum(sizes) == 2


def test_to_dataset_zero_image_row():
    ds = to_dataset(np.zeros((1, 4, 4), np.uint8), np.array([0]))
    assert np.array_equal(ds.features(0), np.zeros(16))


def test_to_dataset_scales_every_byte_value_like_a_division():
    # every byte value in every row, at a different position in each
    images = (np.arange(256)[None, :] + np.arange(8)[:, None] * 37) % 256
    images = images.astype(np.uint8).reshape(8, 16, 16)
    ds = to_dataset(images, np.arange(8))
    expected = scaled_features_reference(images)
    assert ds.features().tobytes() == expected.tobytes()
    rows = np.array([5, 0, 7, 5])
    assert ds.features(rows).tobytes() == expected[rows].tobytes()
    assert ds.features(slice(2, 5)).tobytes() == expected[2:5].tobytes()


def test_to_dataset_count_mismatch():
    with pytest.raises(ValueError):
        to_dataset(np.zeros((2, 4, 4), np.uint8), np.array([0]))


def test_class_index_partitions_rows():
    images, labels = synthetic_digits(5, seed=1)
    ds = to_dataset(images, labels)
    covered = np.sort(np.concatenate(ds.class_index))
    assert np.array_equal(covered, np.arange(ds.n_samples))
    for c, idx in enumerate(ds.class_index):
        assert np.all(ds.labels[idx] == c)


def test_dataset_rejects_pixels_that_are_not_uint8():
    for pixels in (np.array([[0.5]]), np.array([[1]], np.int64), np.array([[1]], np.int8),
                   [[1]]):
        with pytest.raises(TypeError, match="uint8"):
            LabeledDataset(pixels, np.array([0]))


def test_dataset_rejects_pixels_that_are_not_2d_or_labels_that_do_not_match():
    for pixels in (np.zeros(3, np.uint8), np.zeros((3, 2, 2), np.uint8),
                   np.zeros((), np.uint8)):
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            LabeledDataset(pixels, np.zeros(3, np.int64))
    for labels in (np.zeros(2, np.int64), np.zeros(4, np.int64), np.zeros((3, 1), np.int64)):
        with pytest.raises(ValueError, match="one label per row"):
            LabeledDataset(np.zeros((3, 2), np.uint8), labels)


def test_dataset_rejects_negative_labels():
    with pytest.raises(ValueError, match="non-negative"):
        LabeledDataset(np.array([[128], [128]], np.uint8), np.array([0, -1]))


def test_subsample_counts_and_determinism():
    images, labels = synthetic_digits(12, seed=2)
    rows_a = subsample_rows(labels, 4, seed=3)
    rows_b = subsample_rows(labels, 4, seed=3)
    sub = to_dataset(images[rows_a], labels[rows_a])
    assert sub.n_samples == 40
    assert all(idx.size == 4 for idx in sub.class_index)
    assert np.array_equal(rows_a, rows_b)
    with pytest.raises(ValueError):
        subsample_rows(labels, 13, seed=0)
    with pytest.raises(ValueError):
        subsample_rows(labels, 0, seed=0)


def test_subsample_full_size_is_identity_up_to_order():
    _, labels = synthetic_digits(6, seed=4)
    rows = subsample_rows(labels, 6, seed=5)
    assert np.array_equal(np.sort(rows), np.arange(labels.size))


@pytest.mark.parametrize("seed", [0, 7, (3, 1), 2 ** 40])
def test_subsample_rows_equal_the_converted_dataset_subsample(seed):
    # ragged classes, one of them exactly per_class rows, labels out of order
    labels = np.random.default_rng(11).permutation(np.repeat(np.arange(5), [9, 3, 17, 4, 30]))
    images = np.random.default_rng(12).integers(0, 256, (labels.size, 2, 3), dtype=np.uint8)
    rows = subsample_rows(labels, 3, seed)
    got = to_dataset(images[rows], labels[rows])
    want = subsample_reference(to_dataset(images, labels), 3, seed)
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()


def test_load_mnist_split_roundtrip(tmp_path):
    root = write_mnist_style_dir(tmp_path / "d", 3, 2, seed=9)
    train = to_dataset(*read_mnist_split(root, "train"))
    test = to_dataset(*read_mnist_split(root, "test"))
    assert train.n_samples == 30
    assert test.n_samples == 20
    assert train.n_classes == test.n_classes == 10
    with pytest.raises(FileNotFoundError):
        read_mnist_split(tmp_path, "train")


def test_harder_digit_set_meets_its_linear_criterion():
    # the criterion that fixed HARD_BLEND_NOISE, on its own draw, so that the
    # set's difficulty cannot drift: 0.7628 when the setting was fixed
    splits = blended_digit_splits(*CRITERION_ROWS, CRITERION_SEED, *HARD_BLEND_NOISE)
    assert 0.65 <= ridge_accuracy(*splits, CRITERION_RIDGE) <= 0.85


def test_write_mnist_style_dir_writes_the_harder_set(tmp_path):
    root = write_mnist_style_dir(tmp_path / "d", 3, 2, seed=9, blend_noise=HARD_BLEND_NOISE)
    for split, (images, labels) in zip(("train", "test"),
                                       blended_digit_splits(3, 2, 9, *HARD_BLEND_NOISE)):
        got_images, got_labels = read_mnist_split(root, split)
        assert got_images.tobytes() == images.tobytes()
        assert got_labels.tobytes() == labels.tobytes()


def test_read_mnist_split_rejects_count_mismatch(tmp_path):
    images, labels = synthetic_digits(2, seed=1)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(pack_idx_images(images))
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(pack_idx_labels(labels[:-1]))
    for per_class in (None, 1):
        with pytest.raises(ValueError, match="images but"):
            read_mnist_split(tmp_path, "train", per_class, seed=0)


@pytest.mark.parametrize("split", ["train", "test"])  # plain files, then gzip files
def test_read_mnist_split_per_class_equals_a_whole_read_then_subsample(tmp_path, split):
    root = write_mnist_style_dir(tmp_path / "d", 6, 5, seed=8)
    images, labels = read_mnist_split(root, split)
    rows = subsample_rows(labels, 4, (3, 1))
    got_images, got_labels = read_mnist_split(root, split, 4, (3, 1))
    assert got_images.tobytes() == images[rows].tobytes()
    assert got_labels.tobytes() == labels[rows].tobytes()


# ---------------------------------------------------------------- csv / svg

def test_csv_basic_shape(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, {"a": list(range(10)), "b": [0.5] * 10})
    lines = path.read_text().split("\n")
    assert lines[0] == "a,b"
    assert len(lines) == 12 and lines[-1] == ""


def test_csv_round_trip_lossless_for_floats(tmp_path):
    rng = np.random.default_rng(6)
    values = np.concatenate([rng.uniform(-1e9, 1e9, 50),
                             rng.uniform(-1e-9, 1e-9, 50),
                             [0.1, 1 / 3, np.pi, 2.0 ** -52]])
    path = tmp_path / "f.csv"
    write_csv(path, {"x": values})
    back = np.array([float(s) for s in read_csv_columns(path)["x"]])
    assert np.array_equal(back, values)


_BLOCK = dataio._CSV_BLOCK_ROWS
_F64_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7e308, -1.7e308, 1.7976931348623157e308]
# value strategy and dtype per column kind; a None dtype makes a Python list
_COLUMN_KINDS = {
    "float64": (st.floats(), np.float64),
    "float32": (st.floats(width=32), np.float32),
    "float16": (st.floats(width=16), np.float16),
    "int64": (st.integers(-2**63, 2**63 - 1), np.int64),
    "uint64": (st.integers(2**63, 2**64 - 1) | st.integers(0, 2**64 - 1), np.uint64),
    "bool": (st.booleans(), np.bool_),
    "str": (st.text(string.ascii_letters, max_size=3), np.str_),
    "float-list": (st.floats(), None),
    "int-list": (st.integers(-2**63, 2**63 - 1), None),
    "bool-list": (st.booleans(), None),
    "str-list": (st.text(string.ascii_letters + string.digits + " .-", max_size=4), None),
}


@st.composite
def csv_tables(draw):
    """Columns of every dtype the writer takes, as arrays and as Python lists of
    one kind, at row counts on both sides of the writer's block boundary."""
    n = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for j, kind in enumerate(kinds):
        values, dtype = _COLUMN_KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=16))
        if kind in ("float64", "float-list"):
            pool += _F64_SPECIALS
        picks = rng.integers(0, len(pool), n)
        columns[f"{kind}{j}"] = ([pool[i] for i in picks] if dtype is None
                                 else np.array(pool, dtype=dtype)[picks])
    return columns


@settings(max_examples=60)
@given(columns=csv_tables())
def test_csv_bytes_equal_per_row_reference(tmp_path_factory, columns):
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "fast.csv", columns)
    write_csv_reference(out / "ref.csv", columns)
    assert (out / "fast.csv").read_bytes() == (out / "ref.csv").read_bytes()


@pytest.mark.parametrize("column", [
    np.array([1 + 2j, 3.0]), np.array([0.1, 2.0], dtype=np.longdouble), ["a", 0.1],
    np.zeros((2, 2)), [None, 1.0], [2**64, 1]],
    ids=["complex", "longdouble", "str-and-float", "2-D", "object", "int-beyond-uint64"])
def test_csv_refuses_a_column_it_cannot_write_exactly(tmp_path, column):
    with pytest.raises(TypeError, match="column 'x'"):
        write_csv(tmp_path / "r.csv", {"ok": [1.0, 2.0], "x": column})
    assert not (tmp_path / "r.csv").exists()


def test_csv_empty_series_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "e.csv", {"x": []})
    assert not (tmp_path / "e.csv").exists()
    with pytest.raises(ValueError):
        write_csv(tmp_path / "e.csv", {})


def test_csv_length_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "m.csv", {"a": [1], "b": [1, 2]})


def test_csv_newline_convention(tmp_path):
    path = tmp_path / "n.csv"
    write_csv(path, {"a": [1, 2]})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_svg_contains_series_and_legend(tmp_path):
    path = tmp_path / "p.svg"
    write_svg_lineplot(path, {"alpha": [1, 2, 3], "beta": [3, 2, 1]}, x=[5, 6, 7],
                       title="demo", x_label="round", y_label="err & spread")
    text = path.read_text()
    assert text.startswith("<?xml")
    assert text.count("<polyline") == 2
    assert "alpha" in text and "beta" in text and "demo" in text
    assert ">round</text>" in text and ">err &amp; spread</text>" in text
    assert ">5</text>" in text and ">7</text>" in text  # the x axis runs over `x`


@pytest.mark.parametrize("text", ["", "plain", "a & b", "<tag>", "x > y < z", "&amp;",
                                  "\"quoted\" & 'single'", "&<>\"'&&<<>>"])
def test_svg_escape_matches_saxutils(text):
    assert dataio._xml_escape(text) == escape(text)


def test_cli_import_leaves_out_urllib_request():
    src = str(Path(dataio.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, stratgrad.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_svg_empty_series_rejected(tmp_path):
    labels = {"title": "t", "x_label": "x", "y_label": "y"}
    with pytest.raises(ValueError):
        write_svg_lineplot(tmp_path / "p.svg", {"a": []}, x=[], **labels)
    with pytest.raises(ValueError):
        write_svg_lineplot(tmp_path / "p.svg", {}, x=[], **labels)
    with pytest.raises(ValueError, match="x must match"):
        write_svg_lineplot(tmp_path / "p.svg", {"a": [1.0, 2.0]}, x=[1], **labels)


def test_svg_flat_series_still_renders(tmp_path):
    path = tmp_path / "flat.svg"
    write_svg_lineplot(path, {"c": [2.0, 2.0, 2.0]}, x=range(1, 4), title="flat",
                       x_label="round", y_label="value")
    assert "<polyline" in path.read_text()


def test_io_error_carries_path(tmp_path):
    missing = tmp_path / "no" / "dir" / "f.csv"
    with pytest.raises(OSError) as exc:
        write_csv(missing, {"a": [1]})
    assert "f.csv" in str(exc.value)


def test_manifest_key_values(tmp_path):
    path = tmp_path / "m.txt"
    write_manifest(path, {"seed": 3, "output": ["a.csv", "b.svg"]})
    lines = path.read_text().strip().split("\n")
    assert "seed=3" in lines
    assert "output=a.csv" in lines and "output=b.svg" in lines
