"""Training loops: the memory-type stratified gradient trainer and baselines.

The memory trainer (``mssg_train``) treats every scalar parameter as its own
estimation problem. Per iteration and per class it draws a pilot batch,
takes per-parameter sample mean/variance of the per-sample gradients, forms
the elementwise mixing pair from the previous iteration's pilot stats
(``optimal_coefficients_elementwise``, which also counts the fallbacks),
and blends the class memory with the zero-mean residual of one fresh
sample, or on the first iteration sets the memory to that residual:

    G_c <- p * G_c + q * (pilot_mean_c - fresh_grad_c)

The parameters then step along the class-weighted sum of
(G_c + pilot_mean_c), scaled by step_size / n_classes (the extra 1 / C
folds into the step size).

The mssg state. One iteration makes one forward/backward pass over all
C * (n + 1) pilot and fresh rows. Pilot means and variances come from the
per-class sums A^T D and (A*A)^T (D*D) of that pass (one-pass variance,
clamped at zero; weight decay shifts the mean only), never from per-sample
gradient tensors. Each layer is streamed in row blocks of W, and one block
for b: one batched product per moment and pilot writes a block's sums for
the previous pilot and this one into one array, with A*A formed for the
block's rows alone, and the block is blended and stepped before the next
is formed. The previous pilot's stats are not stored but formed again,
with the same operations and so the same bits, from its factors A, D and
D*D and a snapshot of the weights they were taken at. A and D are read in
place from the previous iteration's pass, which is kept by reference for
one iteration, and D*D is formed once per pilot. So besides the
parameters, the persistent state at the 784-500-500-200-10 shape is one
(C, ...) memory array per layer (about 60 MB), the previous pass (about
2.2 MiB) with its D*D (about 0.8 MB), and one weight snapshot (about
6 MB); the rest is block-sized temporaries.

Every trainer runs the iterations its ``TrainConfig`` gives, reports
accuracy every ``checkpoint_every`` iterations and at the end, and trains
the parameters it is given in place, with no copy of them; how a run is
labelled and reported is the caller's. A trainer decodes to
float64 only the dataset rows it draws, except the full-batch steps
(``fullgrad``, and ``batch`` at batch_size == n): they read every row
every step, so they decode the whole dataset once (376 MB at 60,000 rows;
a step adds about 72 MB at the 784-500-500-200-10 shape).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import mlp
from .dataio import LabeledDataset, check_class_sizes
from .estimators import optimal_coefficients_elementwise
from .rng import spawn_rng, spawn_rngs


class BaselineKind(enum.Enum):
    SGD = "sgd"
    BATCH = "batch"
    STRATIFIED = "gst"
    FULL = "fullgrad"


@dataclass
class TrainConfig:
    step_size: float
    batch_size: int | None  # read by batch alone; None for the other trainers
    iterations: int
    weight_decay: float
    seed: int | tuple[int, ...]  # the key prefix of the run's streams
    pilot_size: int | None  # read by mssg alone; None for the other trainers
    checkpoint_every: int

    def __post_init__(self):
        mlp.check_step(self.step_size, self.weight_decay)
        for name in ("iterations", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pilot_size is not None and self.pilot_size < 2:
            raise ValueError("pilot_size must be at least 2 (sample variance needs it)")


@dataclass(frozen=True)
class AccuracyReport:
    iterations: int
    train_accuracy: float
    test_accuracy: float

    def __post_init__(self):
        for value in (self.train_accuracy, self.test_accuracy):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy {value} outside [0, 1]")


# Weight entries per class in one block of the mssg kernel. Large enough that
# numpy's per-call cost is small next to a block's work, small enough that the
# block's temporaries (about a dozen float arrays of n_classes * BLOCK_ENTRIES)
# stay a few MB.
# At the 784-500-500-200-10 shape on 2 cores, 1024 ran about 25% slower per
# iteration and 8192 no faster.
BLOCK_ENTRIES = 4096


def accuracy(params: mlp.MlpParams, data: LabeledDataset) -> float:
    """Fraction of samples whose argmax probability hits the label; ties go to the lowest class.

    Decodes and scores one block of ``mlp.BLOCK_ROWS`` rows at a time, at
    the memory cost that ``mlp``'s module docstring gives.
    """
    n = data.n_samples
    if n == 0:
        raise ValueError("cannot score an empty dataset")
    hits = 0
    for lo in range(0, n, mlp.BLOCK_ROWS):
        rows = slice(lo, lo + mlp.BLOCK_ROWS)
        probs = mlp.forward_batch(params, data.features(rows))
        hits += int(np.count_nonzero(np.argmax(probs, axis=1) == data.labels[rows]))
    return hits / n


def _end_iteration(params, it: int, algorithm: str, config, reports, data, test_data) -> None:
    """Refuse non-finite parameters, then score the run if `it` is a checkpoint."""
    mlp.check_finite(params, algorithm, it)
    if it % config.checkpoint_every == 0 or it == config.iterations:
        reports.append(AccuracyReport(it, accuracy(params, data), accuracy(params, test_data)))


def _blend_block(sums, sq_sums, fresh, param, snapshot, memory, class_w, pilot_size,
                 weight_decay, scale) -> int:
    """Advance one parameter block of the mssg update in place.

    `sums` and `sq_sums` are each class's pilot sum and sum of squares of
    the per-sample gradients without the decay term, (pilots, C, rows,
    cols): the previous iteration's pilot and then this one's, or this one
    alone on the first iteration. `fresh` is the fresh sample's gradient,
    also without it, (C, rows, cols). `param` is the (rows, cols) parameter
    block, `snapshot` its value when the previous pilot was drawn (read and
    then overwritten with `param` under weight decay), and memory the
    matching (C, rows, cols) slice of the class memory. Forms every pilot's
    mean and one-pass variance (n - 1 scale) with the same operations, so
    the previous pair has the bits it had when it was current, then the
    mixing pair, the memory blend and the class-weighted direction; steps
    `param` and returns the block's fallback count.

    The blend M <- p M + q r writes into the memory and into the kernel's
    q, and the direction sums the classes of mean + M in the mean's own
    array, so the block's float temporaries are the stacked means and
    variances and the residual plus the kernel's p and q.
    """
    n = pilot_size
    means = sums / n
    variances = means * means
    variances *= n
    np.subtract(sq_sums, variances, out=variances)
    variances /= n - 1
    np.maximum(variances, 0.0, out=variances)  # the one-pass form can round below zero
    mean, var = means[-1], variances[-1]
    resid = mean - fresh  # the decay terms cancel
    if weight_decay:
        # Decay shifts every sample's gradient by the same amount: mean only.
        mean += weight_decay * param
    fallbacks = 0
    if len(means) == 1:
        memory[...] = resid  # no previous stats: the pure fresh residual
    else:
        prev_mean = means[0]
        if weight_decay:
            prev_mean += weight_decay * snapshot
        p, q, fallbacks = optimal_coefficients_elementwise(prev_mean, variances[0], mean, var)
        memory *= p
        q *= resid
        memory += q
    if weight_decay:
        snapshot[...] = param
    mean += memory
    direction = class_w @ mean.reshape(class_w.size, -1)
    param -= (direction * scale).reshape(param.shape)
    return fallbacks


def mssg_train(params: mlp.MlpParams, data: LabeledDataset, config: TrainConfig,
               test_data: LabeledDataset):
    """Memory-type stratified gradient descent over class-partitioned data.

    The update and the state it keeps are described in the module
    docstring; class c draws its rows at iteration it from the stream
    (config.seed, it, c). Returns the trained `params`, the accuracy
    reports and the number of mixing-coefficient fallbacks over the run.
    """
    n_classes = data.n_classes
    if n_classes < 2:
        raise ValueError("need at least two classes")
    check_class_sizes(data.class_index, config.pilot_size, "pilot")
    n, wd = config.pilot_size, config.weight_decay
    n_pilot = n_classes * n
    class_w = data.class_weights()
    layers = list(zip(params.weights, params.biases))
    memory = [(np.zeros((n_classes,) + w.shape), np.zeros((n_classes,) + b.shape))
              for w, b in layers]
    snapshots = [np.zeros_like(w) for w, _ in layers]
    block_rows = [max(1, min(w.shape[0], BLOCK_ENTRIES // w.shape[1])) for w, _ in layers]
    scale = config.step_size / n_classes
    reports: list[AccuracyReport] = []
    fallbacks = 0

    previous = None  # the previous iteration's pilot factors
    pilot = np.empty((n_classes, n), dtype=np.int64)
    fresh = np.empty(n_classes, dtype=np.int64)
    for it in range(1, config.iterations + 1):
        streams = spawn_rngs([(config.seed, it, c) for c in range(n_classes)])
        for c, (idx, rng) in enumerate(zip(data.class_index, streams)):
            pilot[c] = rng.choice(idx, size=n, replace=False)
            fresh[c] = rng.choice(idx)
        rows = np.concatenate([pilot.ravel(), fresh])  # class-major pilots, then fresh
        acts, deltas = mlp.forward_backward(params, data.features(rows), data.labels[rows])
        # Each layer's pilot factors, class-major: A^T and D, views of this
        # pass's arrays, and D * D. Every row block of a layer reads all of D
        # and D * D but only its own rows of A^T, so it squares those itself.
        # The views keep the whole pass until the next iteration is done.
        factors = []
        for l, (w, b) in enumerate(layers):
            fan_in, fan_out = w.shape
            d = deltas[l][:n_pilot].reshape(n_classes, n, fan_out)
            factors.append((acts[l][:n_pilot].reshape(n_classes, n, fan_in).transpose(0, 2, 1),
                            d, d * d))
            pilots = [factors[l]] if previous is None else [previous[l], factors[l]]
            a_fresh, d_fresh = acts[l][n_pilot:], deltas[l][n_pilot:]
            mem_w, mem_b = memory[l]
            for r0 in range(0, fan_in, block_rows[l]):
                blk = slice(r0, r0 + block_rows[l])
                # [sums, sums of squares], each stacked over the pilots
                sums = np.empty((2, len(pilots), n_classes) + w[blk].shape)
                for (a, d, d2), out in zip(pilots, sums.swapaxes(0, 1)):
                    a = a[:, blk]
                    np.matmul(a, d, out=out[0])
                    np.matmul(a * a, d2, out=out[1])
                fallbacks += _blend_block(
                    *sums, a_fresh[:, blk, None] * d_fresh[:, None],
                    w[blk], snapshots[l][blk], mem_w[:, blk], class_w, n, wd, scale)
            fallbacks += _blend_block(
                np.stack([d.sum(axis=1, keepdims=True) for _, d, _ in pilots]),
                np.stack([d2.sum(axis=1, keepdims=True) for _, _, d2 in pilots]),
                d_fresh[:, None], b[None], None, mem_b[:, None], class_w, n, 0.0, scale)
        previous = factors
        del pilots  # views of the pass before this one, which a checkpoint need not keep
        _end_iteration(params, it, "mssg", config, reports, data, test_data)
    return params, reports, fallbacks


def baseline_train(params: mlp.MlpParams, data: LabeledDataset, config: TrainConfig,
                   kind: BaselineKind, test_data: LabeledDataset):
    """Single-sample, pooled-batch, full-batch or memoryless stratified training.

    SGD draws one pooled sample per step. Batch draws ``batch_size`` pooled
    samples without replacement, except that batch_size == n uses the whole
    dataset, as FULL does every step: the trajectory is then full-gradient
    descent bit for bit. The stratified baseline weights one fresh sample
    per class by the class shares. All draws come from the stream of
    `config.seed`. Returns the trained `params` and the accuracy reports.
    """
    n = data.n_samples
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if kind is BaselineKind.BATCH and config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    if kind is BaselineKind.STRATIFIED:
        check_class_sizes(data.class_index, 1, "the stratified draw")
    full = kind is BaselineKind.FULL or (kind is BaselineKind.BATCH and config.batch_size == n)
    class_w = data.class_weights()
    features = data.features() if full else None
    rng = spawn_rng(config.seed)
    reports: list[AccuracyReport] = []
    for it in range(1, config.iterations + 1):
        if kind is BaselineKind.STRATIFIED:
            rows = np.array([int(rng.choice(idx)) for idx in data.class_index])
            acts, deltas = mlp.forward_backward(params, data.features(rows), data.labels[rows])
            grad = mlp.MlpParams(
                [a.T @ (class_w[:, None] * d) + config.weight_decay * w
                 for a, d, w in zip(acts, deltas, params.weights)],
                [class_w @ d for d in deltas],
            )
        elif full:
            grad = mlp.gradient(params, features, data.labels, config.weight_decay)
        else:
            if kind is BaselineKind.SGD:
                rows = [int(rng.integers(n))]
            else:
                rows = rng.choice(n, size=config.batch_size, replace=False)
            grad = mlp.gradient(params, data.features(rows), data.labels[rows],
                                config.weight_decay)
        for l in range(params.n_layers):
            params.weights[l] -= config.step_size * grad.weights[l]
            params.biases[l] -= config.step_size * grad.biases[l]
        _end_iteration(params, it, kind.value, config, reports, data, test_data)
    return params, reports
