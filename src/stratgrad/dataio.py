"""Dataset ingestion (IDX files), class partitioning, and report emission.

IDX files may be gzipped; the reader sniffs the gzip magic. A
`LabeledDataset` holds a split as its uint8 pixels, one byte per pixel as
on disk: 47 MB at 60,000 rows and 8 MB at 10,000, not 376 and 63 MB of
float64 features. CSV output uses 17 significant digits, so float64 values
round-trip exactly; SVG output is a minimal standalone line chart.
"""

from __future__ import annotations

import gzip
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .rng import spawn_rngs

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxFormatError(ValueError):
    """Malformed IDX container; `kind` is one of magic/truncated/dimensions."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


def _open_idx(path):
    with open(path, "rb") as f:
        head = f.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


# Bytes per read of a gzip stream, whose length shows only at its end: a
# header may claim more than the file holds. MNIST's 47 MB of training pixels
# still come in one read, so `_read_exact` returns them uncopied.
_GZIP_CHUNK = 1 << 26


def _check_length(n: int, got: int, offset: int, what: str) -> None:
    if got < n:
        raise IdxFormatError(
            f"truncated IDX file: wanted {n} bytes of {what} at offset {offset}, "
            f"got {got}", kind="truncated")


def _read_exact(f, n: int, offset: int, what: str) -> bytes:
    """The n bytes of `what` at `offset`, read at most _GZIP_CHUNK bytes at a time."""
    chunks, got = [], 0
    while got < n and (chunk := f.read(min(_GZIP_CHUNK, n - got))):
        chunks.append(chunk)
        got += len(chunk)
    _check_length(n, got, offset, what)
    return b"".join(chunks)


def _read_idx(path, expected_magic: int, what: str, rows=None,
              n_labels: Optional[int] = None) -> np.ndarray:
    """Parse an IDX file of unsigned bytes; the magic's low byte counts the dimensions.

    Returns every item, or only the items `rows` picks. A plain file has its
    length checked against the header's from the file size before any payload
    is read, then just those rows read; a gzip stream is read whole, probed
    for one trailing byte, and indexed. A header whose item count differs
    from `n_labels` is refused before any payload is read.
    """
    with _open_idx(path) as f:
        magic = int.from_bytes(_read_exact(f, 4, 0, "magic"), "big")
        if magic != expected_magic:
            raise IdxFormatError(
                f"bad {what} magic 0x{magic:08x} at offset 0, expected 0x{expected_magic:08x}",
                kind="magic")
        header = _read_exact(f, 4 * (magic & 0xFF), 4, "dimensions")
        dims = [int.from_bytes(header[i:i + 4], "big") for i in range(0, len(header), 4)]
        shape = "x".join(map(str, dims))
        offset = 4 + len(header)
        size = math.prod(dims)
        if 0 in dims[1:]:  # only the item count may be zero
            raise IdxFormatError(f"degenerate {what} dimensions {shape} in header",
                                 kind="dimensions")
        if n_labels is not None and dims[0] != n_labels:
            raise ValueError(f"{dims[0]} {what}s but {n_labels} labels")
        gz = isinstance(f, gzip.GzipFile)
        if gz:
            payload = _read_exact(f, size, offset, f"{what} data")
            got = size + len(f.read(1))
        else:
            got = os.fstat(f.fileno()).st_size - offset
            _check_length(size, got, offset, f"{what} data")
        if got > size:
            raise IdxFormatError(f"trailing bytes after {shape} {what} data "
                                 f"(offset {offset + size})", kind="dimensions")
        if gz or rows is None:
            items = np.frombuffer(payload if gz else f.read(size), dtype=np.uint8).reshape(dims)
            return items if rows is None else items[rows]
        rows = np.arange(dims[0])[rows]  # numpy's bounds check and negative indices
        item = math.prod(dims[1:])
        picked = np.empty((rows.size, *dims[1:]), dtype=np.uint8)
        for out, r in zip(picked, rows.tolist()):
            f.seek(offset + r * item)
            f.readinto(out)
    return picked


def read_idx_images(path, rows=None, n_labels: Optional[int] = None) -> np.ndarray:
    """Parse an IDX image file into a (n, rows, cols) uint8 array, or the images `rows` picks.

    With `n_labels`, a file that does not hold that many images is refused.
    """
    return _read_idx(path, IDX_IMAGE_MAGIC, "image", rows, n_labels)


def read_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a (n,) uint8 array."""
    return _read_idx(path, IDX_LABEL_MAGIC, "label")


def _class_index(labels: np.ndarray) -> list[np.ndarray]:
    """Rows labelled c, for every c up to the largest label."""
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return [np.flatnonzero(labels == c) for c in range(n_classes)]


def check_class_sizes(class_index, need: int, what: str) -> None:
    """Refuse, naming it, a class with fewer than `need` rows."""
    for c, idx in enumerate(class_index):
        if idx.size < need:
            raise ValueError(f"class {c} has {idx.size} samples, {what} needs {need}")


@dataclass
class LabeledDataset:
    """(n, d) uint8 pixels, non-negative integer labels, and per-class row indices.

    ``features(rows)`` decodes the rows a caller uses to float64 in [0, 1].
    ``class_index[c]`` lists the rows labelled c, for c up to the largest
    label, and is always derived from the labels.
    """

    pixels: np.ndarray
    labels: np.ndarray
    class_index: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not (isinstance(self.pixels, np.ndarray) and self.pixels.dtype == np.uint8):
            raise TypeError(f"pixels must be a uint8 array, got "
                            f"{getattr(self.pixels, 'dtype', type(self.pixels).__name__)}")
        if self.pixels.ndim != 2 or self.labels.shape != self.pixels.shape[:1]:
            raise ValueError(f"pixels must be (n, d) with one label per row, got "
                             f"{self.pixels.shape} pixels and {self.labels.shape} labels")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError(f"labels must be non-negative, got {self.labels.min()}")
        self.class_index = _class_index(self.labels)

    def features(self, rows=slice(None)) -> np.ndarray:
        """The chosen rows' pixels as float64 in [0, 1]: each byte divided by 255."""
        return self.pixels[rows] / 255.0

    @property
    def n_samples(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_index)

    def class_weights(self) -> np.ndarray:
        sizes = np.array([idx.size for idx in self.class_index], dtype=np.float64)
        return sizes / sizes.sum()


def to_dataset(images: np.ndarray, labels: np.ndarray) -> LabeledDataset:
    """Flatten uint8 images to one row each, without copying, and index the classes."""
    images = np.asarray(images)
    return LabeledDataset(images.reshape(images.shape[0], -1), labels)


def subsample_rows(labels: np.ndarray, per_class: int, seed) -> np.ndarray:
    """Rows of a stratified without-replacement subsample, per_class per class.

    Class c's rows come from the stream (seed, c), sorted; the classes
    follow one another in label order. Taking the rows from the labels
    alone lets a caller read only the image rows it keeps.
    """
    if per_class < 1:
        raise ValueError("per_class must be at least 1")
    class_index = _class_index(np.asarray(labels))
    check_class_sizes(class_index, per_class, "the subsample")
    streams = spawn_rngs([(seed, c) for c in range(len(class_index))])
    return np.concatenate([np.sort(rng.choice(idx, size=per_class, replace=False))
                           for idx, rng in zip(class_index, streams)])


def read_mnist_split(data_dir, split: str, per_class: Optional[int] = None,
                     seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Raw uint8 images and labels of one MNIST-style split ('train' or 'test').

    Accepts plain or .gz IDX files under the conventional names. With
    `per_class`, only the rows `subsample_rows(labels, per_class, seed)`
    picks are returned, and from a plain image file only those are read.
    `to_dataset` turns the result into a LabeledDataset.
    """
    img_name, lbl_name = MNIST_FILES[split]
    data_dir = Path(data_dir)
    paths = []
    for name in (img_name, lbl_name):
        for candidate in (data_dir / name, data_dir / (name + ".gz")):
            if candidate.exists():
                paths.append(candidate)
                break
        else:
            raise FileNotFoundError(f"missing {name}[.gz] under {data_dir}")
    labels = read_idx_labels(paths[1])
    if labels.size == 0:  # an IDX header may count zero items; no experiment can use them
        raise ValueError(f"the {split} split under {data_dir} holds no items")
    try:
        rows = None if per_class is None else subsample_rows(labels, per_class, seed)
    except ValueError as exc:
        raise ValueError(f"the {split} split under {data_dir}: {exc}") from None
    images = read_idx_images(paths[0], rows, n_labels=labels.shape[0])
    return images, labels if rows is None else labels[rows]


# Rows per formatted block: large enough to amortise the per-block calls,
# small enough that a block's cells stay a small share of peak memory.
_CSV_BLOCK_ROWS = 512
# The `str.format` field per dtype kind, applied to `tolist()` values: 17
# significant digits round-trip a float64; ints (uint64 above 2**63 too) and
# bools print as integers.
_CSV_FIELDS = {"f": "{:.17g}", "i": "{:d}", "u": "{:d}", "b": "{:d}", "U": "{}"}


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """Write named equal-length columns as CSV with stable formatting.

    A column is a 1-D array or list of floats up to float64, ints, bools or
    strs, read with `np.asarray`, so a list of ints and floats is a float
    column. Any other column (complex, longdouble, object, strs mixed with
    other values, not 1-D) is refused with TypeError before the file is
    opened. The rows go out in blocks of `_CSV_BLOCK_ROWS`, each formatted
    with one `str.format` call.
    """
    if not columns:
        raise ValueError("need at least one column")
    names = list(columns)
    series = [np.asarray(columns[name]) for name in names]
    for name, col in zip(names, series):
        kind, given = col.dtype.kind, columns[name]
        if (col.ndim != 1 or kind not in _CSV_FIELDS or kind == "f" and col.dtype.itemsize > 8
                # np.asarray(["a", 0.1]) is a str array holding "0.1"
                or kind == "U" and not isinstance(given, np.ndarray)
                and not all(isinstance(v, str) for v in given)):
            raise TypeError(f"column {name!r}: cannot write {col.ndim}-D {col.dtype} "
                            f"exactly; need floats up to float64, ints, bools or strs")
    lengths = {name: len(col) for name, col in zip(names, series)}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"column lengths differ: {lengths}")
    n = lengths[names[0]]
    if n == 0:
        raise ValueError(f"refusing to write empty series to {path}")
    row_fmt = ",".join(_CSV_FIELDS[col.dtype.kind] for col in series) + "\n"
    k = len(series)
    with open(path, "w", newline="") as f:
        f.write(",".join(names) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            rows = min(_CSV_BLOCK_ROWS, n - lo)
            cells = [None] * (k * rows)  # row-major: cell (i, j) sits at i * k + j
            for j, col in enumerate(series):
                cells[j::k] = col[lo:lo + rows].tolist()
            f.write((row_fmt * rows).format(*cells))


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _xml_escape(text: str) -> str:
    """Escape &, < and > for XML character data, & first.

    The same replacements as ``xml.sax.saxutils.escape``, whose import
    pulls in urllib, http and email.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg_lineplot(path, series: Mapping[str, Sequence[float]], x: Sequence[float],
                       title: str, x_label: str, y_label: str) -> None:
    """Write a standalone SVG line chart with a title, axis labels and a legend.

    All series share the x axis `x` and must have its non-zero length.
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {name: len(vals) for name, vals in series.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"series lengths differ: {lengths}")
    n = next(iter(lengths.values()))
    if n == 0:
        raise ValueError(f"refusing to plot empty series to {path}")
    xs = np.asarray(x, dtype=np.float64)
    if xs.size != n:
        raise ValueError("x must match the series length")

    width, height = 640, 400
    left, right, top, bottom = 60, 20, 30, 40
    ys_all = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])

    def span(values):
        lo, hi = float(values.min()), float(values.max())
        return (lo - 0.5, hi + 0.5) if lo == hi else (lo, hi)

    (x_min, x_max), (y_min, y_max) = span(xs), span(ys_all)

    def sx(v):
        return left + (v - x_min) / (x_max - x_min) * (width - left - right)

    def sy(v):
        return height - bottom - (v - y_min) / (y_max - y_min) * (height - top - bottom)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{_xml_escape(title)}</text>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle" font-size="12">{_xml_escape(x_label)}</text>',
        f'<text x="14" y="{(top + height - bottom) / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(top + height - bottom) / 2:.1f})">'
        f'{_xml_escape(y_label)}</text>',
    ]
    for val, anchor, pos in ((x_min, "middle", sx(x_min)), (x_max, "middle", sx(x_max))):
        parts.append(f'<text x="{pos:.1f}" y="{height - bottom + 16}" text-anchor="{anchor}" '
                     f'font-size="11">{val:.4g}</text>')
    for val in (y_min, y_max):
        parts.append(f'<text x="{left - 6}" y="{sy(val) + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{val:.4g}</text>')
    for i, (name, vals) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(float(px)):.2f},{sy(float(py)):.2f}"
                       for px, py in zip(xs, np.asarray(vals, dtype=np.float64)))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ly = top + 14 + 16 * i
        parts.append(f'<line x1="{width - 150}" y1="{ly - 4}" x2="{width - 130}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{width - 124}" y="{ly}" font-size="12">{_xml_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="") as f:
        f.write("\n".join(parts) + "\n")


def write_manifest(path, entries: Mapping) -> None:
    """Plain-text key=value run manifest; sequence values repeat the key."""
    with open(path, "w", newline="") as f:
        for key, value in entries.items():
            if isinstance(value, (list, tuple)):
                for item in value:
                    f.write(f"{key}={item}\n")
            else:
                f.write(f"{key}={value}\n")
