"""Test-side IDX writers and a deterministic stand-in digit dataset.

The package only reads IDX files, so the tests build their own: both tiny
hand-rolled fixtures and a full MNIST-shaped synthetic dataset (10 image
classes, 28x28 uint8) for runs where no real data directory is available.
Train and test splits share the per-class templates and differ only in
sample noise, like a real dataset would. The plain set is linearly
separable; a harder one blends each image with another class's template
(`blended_digit_splits`), at a setting fixed by a linear criterion that
names no trainer (`ridge_accuracy`).
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

SIDE = 28

# The harder digit set's (blend, noise), fixed by its linear criterion alone
# before any trainer saw the data: `ridge_accuracy` at CRITERION_RIDGE, on
# CRITERION_ROWS training and test rows per class drawn with the held-out
# seed CRITERION_SEED, read 0.7628 against a target of 0.75 +- 0.1. The
# plain set reads 1.0 there: it is linearly separable.
HARD_BLEND_NOISE = (0.6, 80.0)
CRITERION_RIDGE, CRITERION_ROWS, CRITERION_SEED = 0.1, (200, 500), 4242


def pack_idx_images(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def pack_idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + np.asarray(labels, np.uint8).tobytes()


def _class_templates(rng, n_classes):
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    templates = []
    for _ in range(n_classes):
        t = np.zeros((SIDE, SIDE))
        for _ in range(3):
            cy, cx = rng.uniform(5, SIDE - 5, size=2)
            spread = rng.uniform(2.0, 4.5)
            t += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread * spread))
        templates.append(t * (220.0 / t.max()))
    return templates


def _render(rng, template):
    bright = rng.uniform(0.8, 1.2)
    noise = rng.normal(0.0, 12.0, (SIDE, SIDE))
    return np.clip(template * bright + noise, 0, 255).astype(np.uint8)


def synthetic_digits(n_per_class: int, seed: int, n_classes: int = 10):
    """Class-templated blob images with per-sample brightness and pixel noise."""
    rng = np.random.default_rng(seed)
    templates = _class_templates(rng, n_classes)
    n = n_classes * n_per_class
    labels = np.repeat(np.arange(n_classes), n_per_class).astype(np.uint8)
    images = np.stack([_render(rng, templates[c]) for c in labels])
    order = rng.permutation(n)
    return images[order], labels[order]


def _splits(render, n_train_per_class, n_test_per_class, seed, n_classes):
    """Train/test splits drawn from the same class templates.

    ``render(rng, templates, labels)`` draws a split's images, whose labels
    run class by class; each split is then shuffled.
    """
    rng = np.random.default_rng(seed)
    templates = _class_templates(rng, n_classes)
    splits = []
    for n_per_class in (n_train_per_class, n_test_per_class):
        n = n_classes * n_per_class
        labels = np.repeat(np.arange(n_classes), n_per_class).astype(np.uint8)
        images = render(rng, templates, labels)
        order = rng.permutation(n)
        splits.append((images[order], labels[order]))
    return splits


def synthetic_digit_splits(n_train_per_class: int, n_test_per_class: int, seed: int,
                           n_classes: int = 10):
    """Train/test splits drawn from the same class templates."""
    def render(rng, templates, labels):
        return np.stack([_render(rng, templates[c]) for c in labels])
    return _splits(render, n_train_per_class, n_test_per_class, seed, n_classes)


def blended_digit_splits(n_train_per_class: int, n_test_per_class: int, seed: int,
                         blend: float, noise: float, n_classes: int = 10):
    """Train/test splits of a harder digit set, from the same class templates.

    Each image is its class template blended with another class's, drawn
    uniformly from the other classes, at a weight w ~ U(0, blend):
    (1 - w) T_own + w T_other, plus N(0, noise**2) noise on every pixel,
    clipped to 0..255.
    """
    def render(rng, templates, labels):
        templates = np.stack(templates)
        others = (labels + rng.integers(1, n_classes, labels.size)) % n_classes
        w = rng.uniform(0.0, blend, labels.size)[:, None, None]
        images = (1.0 - w) * templates[labels] + w * templates[others]
        images += rng.normal(0.0, noise, images.shape)
        return np.clip(images, 0, 255).astype(np.uint8)
    return _splits(render, n_train_per_class, n_test_per_class, seed, n_classes)


def ridge_accuracy(train, test, ridge: float) -> float:
    """Test accuracy of a closed-form ridge least-squares linear classifier.

    `train` and `test` are (images, labels) pairs. The features are the
    pixels / 255 plus a constant 1; the weights solve
    (X^T X + ridge I) W = X^T Y for one-hot targets Y, and a test image
    takes the class of its largest score. It names no trainer of the
    package, so it can fix a data set's difficulty before any trainer sees
    it.
    """
    def features(images):
        x = images.reshape(len(images), -1) / 255.0
        return np.hstack([x, np.ones((len(x), 1))])

    x, labels = features(train[0]), train[1].astype(np.int64)
    y = np.eye(labels.max() + 1)[labels]
    w = np.linalg.solve(x.T @ x + ridge * np.eye(x.shape[1]), x.T @ y)
    return float(np.mean(np.argmax(features(test[0]) @ w, axis=1) == test[1]))


def write_mnist_style_dir(path: Path, n_train_per_class: int, n_test_per_class: int,
                          seed: int = 2024,
                          blend_noise: tuple[float, float] | None = None) -> Path:
    """Write both splits as MNIST's four IDX files under `path` and return it.

    The splits are `synthetic_digit_splits`' or, given a (blend, noise)
    pair such as HARD_BLEND_NOISE, `blended_digit_splits`' at that setting.
    """
    path.mkdir(parents=True, exist_ok=True)
    if blend_noise is None:
        splits = synthetic_digit_splits(n_train_per_class, n_test_per_class, seed)
    else:
        splits = blended_digit_splits(n_train_per_class, n_test_per_class, seed, *blend_noise)
    (train_images, train_labels), (test_images, test_labels) = splits
    (path / "train-images-idx3-ubyte").write_bytes(pack_idx_images(train_images))
    (path / "train-labels-idx1-ubyte").write_bytes(pack_idx_labels(train_labels))
    # the test split ships gzipped to exercise the transparent decompression
    with gzip.open(path / "t10k-images-idx3-ubyte.gz", "wb") as f:
        f.write(pack_idx_images(test_images))
    with gzip.open(path / "t10k-labels-idx1-ubyte.gz", "wb") as f:
        f.write(pack_idx_labels(test_labels))
    return path
