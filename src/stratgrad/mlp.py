"""Plain-numpy feedforward classifier with hand-derived gradients.

Sigmoid hidden layers, softmax output, mean cross-entropy loss plus an L2
penalty of (weight_decay / 2) * sum(W**2) on the weight matrices only.
Weights initialize from N(0, 1 / fan_in); biases start at zero. Everything
runs in float64.

Besides the usual batch loss/gradient, the module exposes the forward and
backward pass itself (``forward_backward``): every layer's input
activations and per-sample deltas. A per-sample weight gradient is the
outer product of the two, so callers get sums, class-weighted sums and sums
of squares of per-sample gradients as matrix products without ever forming
an (n, fan_in, fan_out) tensor. A recorder gives the per-sample gradient
history of one chosen weight across a sequence of parameter snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rng import spawn_rng


@dataclass(frozen=True)
class MlpShape:
    """Layer widths, input first, class count last."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]


def _as_shape(shape) -> MlpShape:
    return shape if isinstance(shape, MlpShape) else MlpShape(tuple(shape))


@dataclass
class MlpParams:
    """Per-layer weight matrices (fan_in x fan_out) and bias vectors."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one weight matrix and one bias vector per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or b.size != w.shape[1]:
                raise ValueError(f"layer {l}: weight {w.shape} / bias {b.shape} mismatch")
            if l > 0 and w.shape[0] != self.weights[l - 1].shape[1]:
                raise ValueError(f"layer {l} fan-in does not chain with layer {l - 1}")

    @property
    def shape(self) -> MlpShape:
        sizes = [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]
        return MlpShape(tuple(sizes))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights) and \
            all(np.all(np.isfinite(b)) for b in self.biases)


def init_params(shape, seed) -> MlpParams:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero."""
    shape = _as_shape(shape)
    sizes = shape.layer_sizes
    weights, biases = [], []
    for l, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        rng = spawn_rng(seed, l)
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, branch-free and overflow-free: exp only sees -|z|.

    Bit-identical to the two-branch form, 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) otherwise. -|z| is formed as min(z, -z) because
    numpy's minimum returns a NaN operand unchanged, so a NaN keeps its sign
    bit just as in the two-branch form.
    """
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    return np.where(z >= 0, np.divide(1.0, den), np.divide(e, den, out=e))


def _forward_cached(params: MlpParams, features: np.ndarray):
    """All layer activations for a batch, plus the output-layer logits."""
    acts = [features]
    logits = None
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = acts[-1] @ w + b
        if l == last:
            logits = z
            shifted = z - z.max(axis=1, keepdims=True)
            ez = np.exp(shifted)
            acts.append(ez / ez.sum(axis=1, keepdims=True))
        else:
            acts.append(_sigmoid(z))
    return acts, logits


def _check_features(params: MlpParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    expected = params.weights[0].shape[0]
    if features.ndim != 2 or features.shape[1] != expected:
        raise ValueError(f"features must be (n, {expected}), got {features.shape}")
    return features


def _check_labels(params: MlpParams, labels: np.ndarray, n: int) -> np.ndarray:
    labels = np.asarray(labels)
    n_classes = params.weights[-1].shape[1]
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in 0..{n_classes - 1}")
    return labels.astype(np.int64)


def forward(params: MlpParams, x) -> np.ndarray:
    """Class probabilities for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"forward expects a single vector, got shape {x.shape}")
    acts, _ = _forward_cached(params, _check_features(params, x[None, :]))
    return acts[-1][0]


def forward_batch(params: MlpParams, features) -> np.ndarray:
    """Class probabilities for a feature matrix, one row per sample."""
    acts, _ = _forward_cached(params, _check_features(params, features))
    return acts[-1]


def _objective(params: MlpParams, logits: np.ndarray, labels: np.ndarray,
               weight_decay: float) -> float:
    """Mean cross-entropy of the logits plus the L2 weight penalty."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    data = float(np.mean(log_z - shifted[np.arange(labels.size), labels]))
    reg = 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in params.weights)
    return data + reg


def loss(params: MlpParams, features, labels, weight_decay: float = 0.0) -> float:
    """Mean cross-entropy plus the L2 weight penalty."""
    features = _check_features(params, features)
    labels = _check_labels(params, labels, features.shape[0])
    if features.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    _, logits = _forward_cached(params, features)
    return _objective(params, logits, labels, weight_decay)


def forward_backward(params: MlpParams, features, labels, batch_mean: bool = False):
    """One forward and backward pass that stops short of forming gradients.

    Returns (acts, logits, deltas). acts[l] is the input of layer l
    (acts[0] the features, acts[-1] the class probabilities); deltas[l]
    holds, one row per sample, the loss derivative with respect to layer
    l's pre-activation. Sample i's gradient for layer l is therefore
    outer(acts[l][i], deltas[l][i]) for the weights (plus the decay term
    weight_decay * W) and deltas[l][i] for the bias, so sums and sums of
    squares of per-sample gradients are matrix products, never
    (n, fan_in, fan_out) tensors. With `batch_mean` the output delta is
    divided by the batch size before it is propagated, which makes the
    deltas those of the mean loss.
    """
    features = _check_features(params, features)
    labels = _check_labels(params, labels, features.shape[0])
    n = features.shape[0]
    if n == 0:
        raise ValueError("batch must be non-empty")
    acts, logits = _forward_cached(params, features)
    delta = acts[-1].copy()
    delta[np.arange(n), labels] -= 1.0
    if batch_mean:
        delta /= n
    deltas = [delta]
    for l in range(params.n_layers - 1, 0, -1):
        delta = (delta @ params.weights[l].T) * acts[l] * (1.0 - acts[l])
        deltas.append(delta)
    deltas.reverse()
    return acts, logits, deltas


def loss_and_grad(params: MlpParams, features, labels, weight_decay: float = 0.0):
    """Batch loss and its exact gradient, shaped like the parameters."""
    features = _check_features(params, features)
    labels = _check_labels(params, labels, features.shape[0])
    acts, logits, deltas = forward_backward(params, features, labels, batch_mean=True)
    grad_w = [a.T @ d + weight_decay * w for a, d, w in zip(acts, deltas, params.weights)]
    grad_b = [d.sum(axis=0) for d in deltas]
    return _objective(params, logits, labels, weight_decay), MlpParams(grad_w, grad_b)


def full_gradient_train(params: MlpParams, features, labels, steps: int,
                        step_size: float, weight_decay: float = 0.0,
                        snapshots: Optional[list] = None):
    """Full-batch gradient descent.

    Returns the final parameters and the loss history of length steps + 1
    (loss before any update through loss after the last one). When a list
    is passed as `snapshots`, the parameters in force at each step are
    appended to it, one copy per step.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    params = params.copy()
    losses = []
    for _ in range(steps):
        if snapshots is not None:
            snapshots.append(params.copy())
        value, grad = loss_and_grad(params, features, labels, weight_decay)
        losses.append(value)
        for l in range(params.n_layers):
            params.weights[l] -= step_size * grad.weights[l]
            params.biases[l] -= step_size * grad.biases[l]
    losses.append(loss(params, features, labels, weight_decay))
    return params, losses


def record_weight_gradient(params_sequence: Sequence[MlpParams], features, labels,
                           tracked: tuple[int, int, int],
                           weight_decay: float = 0.0) -> np.ndarray:
    """Per-sample gradient history of one weight across parameter snapshots.

    `tracked` is (layer, out_index, in_index); the result is an
    (n_samples, n_snapshots) matrix whose column t holds every sample's
    loss gradient for that weight under params_sequence[t], weight-decay
    term included. Column means therefore equal the full-batch gradient's
    tracked entry.
    """
    if not params_sequence:
        raise ValueError("need at least one parameter snapshot")
    layer, out_idx, in_idx = (int(v) for v in tracked)
    first = params_sequence[0]
    if layer < 0:
        layer += first.n_layers
    if not 0 <= layer < first.n_layers:
        raise ValueError(f"tracked layer {layer} out of range")
    fan_in, fan_out = first.weights[layer].shape
    if not (0 <= in_idx < fan_in and 0 <= out_idx < fan_out):
        raise ValueError(f"tracked indices ({out_idx}, {in_idx}) outside {fan_in}x{fan_out}")
    features = _check_features(first, features)
    labels = _check_labels(first, labels, features.shape[0])
    n = features.shape[0]
    matrix = np.empty((n, len(params_sequence)))
    for t, prm in enumerate(params_sequence):
        acts, _ = _forward_cached(prm, features)
        delta = acts[-1].copy()
        delta[np.arange(n), labels] -= 1.0
        for l in range(prm.n_layers - 1, layer, -1):
            delta = (delta @ prm.weights[l].T) * acts[l] * (1.0 - acts[l])
        matrix[:, t] = acts[layer][:, in_idx] * delta[:, out_idx] \
            + weight_decay * prm.weights[layer][in_idx, out_idx]
    return matrix
