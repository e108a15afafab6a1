"""Plain-numpy feedforward classifier with hand-derived gradients.

Sigmoid hidden layers, softmax output, mean cross-entropy loss plus an L2
penalty of (weight_decay / 2) * sum(W**2) on the weight matrices only.
Weights initialize from N(0, 1 / fan_in); biases start at zero. Everything
runs in float64, and feature arrays must already be floating point: an
integer array (say undecoded uint8 pixels) is refused rather than read as
values 0..255. The passes work in place where the bits allow it (the bias
added into A W, the sigmoid taken over that same array, D W^T scaled by a
and then by 1 - a where it lies), so a hidden layer holds its output plus
one temporary, with the bits of A W + b, the two-branch sigmoid and
(D W^T) * a * (1 - a).

Row blocking. Passes over a whole batch (``loss``, ``loss_and_grad`` and
every step of ``full_gradient_train``) stream it in fixed blocks of
``BLOCK_ROWS`` rows and reduce each block (into the loss sum, the A^T D
and bias sums, the tracked column) before the next is formed, so peak
memory is the features plus O(BLOCK_ROWS x widths), not O(n x widths). A
batch that fits in one block gets exactly the arithmetic of one unstreamed
pass; a longer one adds its blocks' sums in a fixed order, so its results
repeat at a fixed BLAS thread count. Only passes that go on to a backward
pass keep every layer's activations. A scoring pass (``forward_batch``,
``loss``) lets each layer's input go once the layer's product is formed.
``forward_batch`` is one pass over the rows it is given, and takes them
over, so features that nothing else holds, as in
``forward_batch(params, data.features(rows))``, are freed before layer 1
(on CPython 3.11 and later, where a call keeps no reference to its
arguments). ``trainer.accuracy`` is the scoring loop: it decodes and
scores one block of pixels at a time, which at the 784-500-500-200-10
shape is a 6.4 MB block, let go after its first product, then one layer's
output and the sigmoid's temporary, two 4.1 MB arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import spawn_rngs

# Rows per block of a whole-batch pass. At the 784-500-500-200-10 shape a
# gradient pass holds about 50 KB a row of activations, deltas and
# temporaries, so a block costs about 50 MB. On 10,000 rows at one BLAS
# thread (2-core x86_64), a gradient pass took 1.14 s in 1024-row blocks
# against 1.23 s in one piece; blocks of 256 to 4096 rows were within noise
# of each other.
BLOCK_ROWS = 1024


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
    def n_layers(self) -> int:
        return len(self.weights)


def init_params(shape, seed) -> MlpParams:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero.

    `shape` lists the layer widths, input first, class count last.
    """
    sizes = tuple(int(s) for s in shape)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    weights, biases = [], []
    streams = spawn_rngs([(seed, l) for l in range(len(sizes) - 1)])
    for rng, fan_in, fan_out in zip(streams, sizes, sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of `z`, written over `z` itself and returned.

    exp(min(z, 0)) / (1 + exp(-|z|)) needs no mask and no branch, and
    neither exp ever sees a positive argument, so nothing overflows. It is
    bit-identical to the two-branch form, 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) otherwise, NaN included: a NaN numerator keeps
    its sign bit through the division by the NaN denominator.
    """
    den = np.abs(z)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    z /= den
    return z


def _forward_cached(params: MlpParams, x: np.ndarray, keep: bool):
    """The forward pass over one block of features `x`: (acts, logits).

    acts lists every layer's input, or without `keep` none, then the class
    probabilities.
    """
    acts = [x]
    logits = None
    last = params.n_layers - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w
        if not keep:
            acts.clear()
        x += b
        if l == last:
            logits = x
            shifted = x - x.max(axis=1, keepdims=True)
            ez = np.exp(shifted)
            x = ez / ez.sum(axis=1, keepdims=True)
        else:
            x = _sigmoid(x)
        acts.append(x)
    return acts, logits


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_ROWS rows that cover range(n)."""
    return [slice(lo, min(lo + BLOCK_ROWS, n)) for lo in range(0, n, BLOCK_ROWS)]


def _check_features(params: MlpParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features)
    if features.dtype.kind in "biu":  # undecoded pixels would read as values 0..255
        raise TypeError(f"features must be floating point, got {features.dtype}; "
                        "decode pixels with LabeledDataset.features")
    features = features.astype(np.float64, copy=False)
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


def check_step(step_size: float, weight_decay: float) -> None:
    """Refuse a step size that is not positive and finite, or a decay that is
    negative or not finite, before any descent starts."""
    if not 0.0 < step_size < np.inf:
        raise ValueError(f"step_size must be positive and finite, got {step_size}")
    if not 0.0 <= weight_decay < np.inf:
        raise ValueError(f"weight_decay must be non-negative and finite, got {weight_decay}")


def check_finite(params: MlpParams, algorithm: str, it: int) -> None:
    """Refuse parameters that a diverging descent left non-finite after iteration `it`."""
    if not all(np.isfinite(a).all() for a in (*params.weights, *params.biases)):
        raise RuntimeError(f"{algorithm} produced non-finite parameters at iteration {it}")


def _check_batch(params: MlpParams, features, labels):
    features = _check_features(params, features)
    labels = _check_labels(params, labels, features.shape[0])
    if features.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    return features, labels


def forward_batch(params: MlpParams, features) -> np.ndarray:
    """Class probabilities, one row per sample, in one pass that frees the
    features as the module docstring says."""
    features = [_check_features(params, features)]  # a list, so the pass can let go of them
    return _forward_cached(params, features.pop(), False)[0][-1]


def _data_loss_sum(logits: np.ndarray, labels: np.ndarray) -> float:
    """Summed cross-entropy of a block's logits against its labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.sum(log_z - shifted[np.arange(labels.size), labels]))


def _objective(params: MlpParams, data_sum: float, n: int, weight_decay: float) -> float:
    """Mean cross-entropy from its sum over n samples, plus the L2 weight penalty."""
    reg = 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in params.weights)
    return data_sum / n + reg


def loss(params: MlpParams, features, labels, weight_decay: float = 0.0) -> float:
    """Mean cross-entropy plus the L2 weight penalty."""
    features, labels = _check_batch(params, features, labels)
    data_sum = 0.0
    for rows in _row_blocks(features.shape[0]):
        data_sum += _data_loss_sum(_forward_cached(params, features[rows], False)[1],
                                   labels[rows])
    return _objective(params, data_sum, features.shape[0], weight_decay)


def _backward(params: MlpParams, acts, labels: np.ndarray, mean_over: int):
    """Per-sample deltas, layer by layer, from a forward pass's activations.

    A nonzero `mean_over` divides the output delta by it before it is
    propagated, which makes the deltas those of the mean loss over that
    many samples.
    """
    delta = acts[-1].copy()
    delta[np.arange(labels.size), labels] -= 1.0
    if mean_over:
        delta /= mean_over
    deltas = [delta]
    for l in range(params.n_layers - 1, 0, -1):
        delta = delta @ params.weights[l].T
        delta *= acts[l]
        delta *= np.subtract(1.0, acts[l])
        deltas.append(delta)
    deltas.reverse()
    return deltas


def forward_backward(params: MlpParams, features, labels):
    """One forward and backward pass that stops short of forming gradients.

    Returns (acts, deltas). acts[l] is the input of layer l
    (acts[0] the features, acts[-1] the class probabilities); deltas[l]
    holds, one row per sample, the loss derivative with respect to layer
    l's pre-activation. Sample i's gradient for layer l is therefore
    outer(acts[l][i], deltas[l][i]) for the weights (plus the decay term
    weight_decay * W) and deltas[l][i] for the bias, so sums and sums of
    squares of per-sample gradients are matrix products, never
    (n, fan_in, fan_out) tensors.
    """
    features, labels = _check_batch(params, features, labels)
    acts = _forward_cached(params, features, True)[0]
    return acts, _backward(params, acts, labels, 0)


def _loss_grad_pass(params: MlpParams, features, labels, weight_decay: float,
                    tracked, column):
    """Mean loss and its gradient, block by block; the deltas are the whole batch's mean loss's.

    With `tracked` = (layer, out_index, in_index), `column` (one entry per
    row) receives every sample's gradient for that weight, decay included.
    """
    n = features.shape[0]
    data_sum = 0.0
    grad = None
    for rows in _row_blocks(n):
        acts, logits = _forward_cached(params, features[rows], True)
        deltas = _backward(params, acts, labels[rows], n)
        data_sum += _data_loss_sum(logits, labels[rows])
        if grad is None:
            grad = MlpParams([a.T @ d for a, d in zip(acts, deltas)],
                             [d.sum(axis=0) for d in deltas])
        else:
            for a, d, gw, gb in zip(acts, deltas, grad.weights, grad.biases):
                gw += a.T @ d
                gb += d.sum(axis=0)
        if tracked is not None:
            layer, out_idx, in_idx = tracked
            # the deltas are the mean loss's: n times them are the per-sample ones
            column[rows] = acts[layer][:, in_idx] * (n * deltas[layer][:, out_idx]) \
                + weight_decay * params.weights[layer][in_idx, out_idx]
    for gw, w in zip(grad.weights, params.weights):
        gw += weight_decay * w
    return _objective(params, data_sum, n, weight_decay), grad


def loss_and_grad(params: MlpParams, features, labels, weight_decay: float = 0.0):
    """Batch loss and its exact gradient, shaped like the parameters."""
    features, labels = _check_batch(params, features, labels)
    return _loss_grad_pass(params, features, labels, weight_decay, None, None)


def full_gradient_train(params: MlpParams, features, labels, steps: int,
                        step_size: float, weight_decay: float, tracked: tuple[int, int, int]):
    """Full-batch gradient descent: trains `params` in place and returns it.

    The caller checks `steps` (at least 1), the step size and the decay
    (``check_step``). A step that leaves a parameter non-finite raises
    `check_finite`'s error.

    Returns (params, losses, matrix): the trained parameters, the loss
    history of length steps + 1 (loss before any update through loss after
    the last one), and the per-sample gradient history of the weight
    `tracked` = (layer, out_index, in_index). matrix is an
    (n_samples, steps) array whose column t holds every sample's loss
    gradient for that weight under the parameters in force at step t,
    weight-decay term included, so column means equal the full-batch
    gradient's tracked entry.
    """
    features, labels = _check_batch(params, features, labels)
    layer, out_idx, in_idx = tracked = tuple(int(v) for v in tracked)
    if not 0 <= layer < params.n_layers:
        raise ValueError(f"tracked layer {layer} out of range")
    fan_in, fan_out = params.weights[layer].shape
    if not (0 <= in_idx < fan_in and 0 <= out_idx < fan_out):
        raise ValueError(f"tracked indices ({out_idx}, {in_idx}) outside {fan_in}x{fan_out}")
    matrix = np.empty((features.shape[0], steps))
    losses = []
    for t in range(steps):
        value, grad = _loss_grad_pass(params, features, labels, weight_decay, tracked,
                                      matrix[:, t])
        losses.append(value)
        for l in range(params.n_layers):
            params.weights[l] -= step_size * grad.weights[l]
            params.biases[l] -= step_size * grad.biases[l]
        check_finite(params, "full-gradient descent", t + 1)
    losses.append(loss(params, features, labels, weight_decay))
    return params, losses, matrix
