"""Training loops: the memory-type stratified gradient trainer and baselines.

The memory trainer (``mssg_train``) treats every scalar parameter as its own
estimation problem. Per iteration and per class it draws a pilot batch,
takes per-parameter sample mean/variance of the per-sample gradients, forms
the elementwise mixing pair from the previous iteration's pilot stats, and
blends the class memory with the zero-mean residual of one fresh sample:

    G_c <- p * G_c + q * (pilot_mean_c - fresh_grad_c)

The parameter update then follows the weighted sum of (G_c + pilot_mean_c)
over classes, scaled by step_size / n_classes (the extra 1 / C factor
folds into the step size).

One iteration makes one forward/backward pass over all C * (n + 1) pilot
and fresh rows. Pilot means and variances come from the per-class sums
A^T D and (A*A)^T (D*D) of that pass (one-pass variance, clamped at zero;
weight decay shifts the mean only), never from per-sample gradient tensors.
Each layer is streamed in row blocks of W: a block's stats, mixing pair,
blend and update are finished before the next block is formed, so besides
the parameters the only persistent state is three stacked (C, ...) arrays
per layer (memory, previous mean, previous variance; about 180 MB at the
784-500-500-200-10 shape) and the rest is block-sized scratch allocated
once per run.

Baselines: single-sample steps (optionally with an iteration multiplier),
pooled mini-batches, full-batch descent, and the memoryless
one-sample-per-class stratified direction.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import mlp
from .dataio import LabeledDataset
from .estimators import CoefficientBuffers, optimal_coefficients_elementwise
from .rng import spawn_rng


class BaselineKind(enum.Enum):
    SGD = "sgd"
    BATCH = "batch"
    STRATIFIED = "gst"
    FULL = "fullgrad"


@dataclass
class TrainConfig:
    step_size: float
    batch_size: int
    iterations: int
    weight_decay: float
    seed: int
    pilot_size: int = 8
    checkpoint_every: int = 1000

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.pilot_size < 2:
            raise ValueError("pilot_size must be at least 2 (sample variance needs it)")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")


@dataclass(frozen=True)
class AccuracyReport:
    iterations: int
    train_accuracy: float
    test_accuracy: float
    algorithm: str
    step_size: float
    weight_decay: float

    def __post_init__(self):
        for value in (self.train_accuracy, self.test_accuracy):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"accuracy {value} outside [0, 1]")


# Weight entries per class in one block of the mssg kernel. Large enough that
# numpy's per-call cost is small next to a block's work, small enough that the
# block's scratch (ten arrays of n_classes * BLOCK_ENTRIES) stays a few MB.
# At the 784-500-500-200-10 shape on 2 cores, 1024 ran about 25% slower per
# iteration and 8192 no faster.
BLOCK_ENTRIES = 4096


@dataclass
class ClassMemory:
    """The mssg class state after a run, plus the coefficient-fallback count.

    ``memory``, ``prev_mean`` and ``prev_var`` hold one entry per class, each
    a list of (w, b) array pairs, one per layer. The arrays are views into
    the trainer's stacked per-layer state: the blended-gradient memory and
    the last iteration's pilot mean and variance.
    """

    memory: list
    prev_mean: Optional[list] = None
    prev_var: Optional[list] = None
    fallbacks: int = 0


def accuracy(params: mlp.MlpParams, data: LabeledDataset) -> float:
    """Fraction of samples whose argmax probability hits the label.

    Ties resolve to the lowest class index.
    """
    if data.n_samples == 0:
        raise ValueError("cannot score an empty dataset")
    probs = mlp.forward_batch(params, data.features)
    predictions = np.argmax(probs, axis=1)
    return float(np.mean(predictions == data.labels))


def _assert_finite(params: mlp.MlpParams, iteration: int, algorithm: str) -> None:
    if not params.all_finite():
        raise RuntimeError(f"{algorithm} produced non-finite parameters at iteration {iteration}")


def _checkpoint(reports, params, data, test_data, iteration, algorithm, config):
    reports.append(AccuracyReport(
        iterations=iteration,
        train_accuracy=accuracy(params, data),
        test_accuracy=accuracy(params, test_data),
        algorithm=algorithm,
        step_size=config.step_size,
        weight_decay=config.weight_decay,
    ))


class _BlockScratch:
    """Block-sized scratch for the mssg kernel, allocated once per run.

    :meth:`views` hands out arrays of a block's (C, rows, cols) shape from
    flat buffers, so every block, ragged or not, gets contiguous scratch.
    """

    def __init__(self, n_classes: int, entries: int):
        self.floats = np.empty((4, n_classes * entries))
        self.coef = CoefficientBuffers.empty(n_classes * entries)
        self.vectors = np.empty((2, entries))

    def views(self, shape):
        """(sums, sq_sums, resid, tmp, coef, direction, decay) for one block."""
        size = math.prod(shape)
        sums, sq_sums, resid, tmp = (f[:size].reshape(shape) for f in self.floats)
        coef = CoefficientBuffers(*(f[:size].reshape(shape) for f in self.coef))
        direction, decay = (v[:size // shape[0]] for v in self.vectors)
        return sums, sq_sums, resid, tmp, coef, direction, decay.reshape(shape[1:])


def _blend_block(scratch, param, memory, prev_mean, prev_var, class_w, pilot_size,
                 weight_decay, scale, first) -> int:
    """Advance one parameter block of the mssg update in place.

    On entry the scratch's sums / sq_sums hold each class's pilot sum and
    sum of squares of the per-sample gradients without the decay term, and
    resid the fresh sample's gradient, also without it. `param` is the
    (rows, cols) parameter block; memory, prev_mean and prev_var are the
    matching (C, rows, cols) slices of the class state. Forms the pilot
    mean and one-pass variance, the mixing pair, the memory blend and the
    class-weighted direction, steps `param`, stores this iteration's stats
    as the previous ones, and returns the block's fallback count.
    """
    mean, var, resid, tmp, coef, direction, decay = scratch
    n = pilot_size
    np.divide(mean, n, out=mean)
    np.subtract(mean, resid, out=resid)  # mean - fresh: the decay terms cancel
    np.multiply(mean, mean, out=tmp)
    tmp *= n
    var -= tmp
    var /= n - 1
    np.maximum(var, 0.0, out=var)  # the one-pass form can round below zero
    if weight_decay:
        # Decay shifts every sample's gradient by the same amount: mean only.
        np.multiply(weight_decay, param, out=decay)
        mean += decay
    fallbacks = 0
    if first:
        memory[...] = resid  # no previous stats: the pure fresh residual
    else:
        p, q, fallbacks = optimal_coefficients_elementwise(prev_mean, prev_var, mean, var,
                                                           out=coef)
        memory *= p
        resid *= q
        memory += resid
    np.add(memory, mean, out=tmp)
    np.matmul(class_w, tmp.reshape(class_w.size, -1), out=direction)
    direction *= scale
    param -= direction.reshape(param.shape)
    prev_mean[...] = mean
    prev_var[...] = var
    return fallbacks


def _class_views(state, n_classes: int) -> list:
    return [[(w[c], b[c]) for w, b in state] for c in range(n_classes)]


def mssg_train(params: mlp.MlpParams, data: LabeledDataset, config: TrainConfig,
               test_data: LabeledDataset,
               memory_out: Optional[ClassMemory] = None):
    """Memory-type stratified gradient descent over class-partitioned data.

    Per iteration: for every class, pilot-batch gradient stats, elementwise
    mixing pair against the previous iteration's stats (the first iteration
    uses the pure fresh residual), memory blend, then one parameter update
    from the weighted (memory + pilot mean) directions. Reports accuracy
    every ``checkpoint_every`` iterations and at the end.

    All classes' pilot and fresh rows go through one forward/backward pass.
    Each layer is then streamed in row blocks of W (and one block for b):
    the block's per-class pilot sums A^T D and sums of squares
    (A*A)^T (D*D) come from batched matrix products, and the block is
    blended and updated before the next one is formed.

    Pass a ClassMemory as `memory_out` to receive the final memory, the
    last pilot stats and the fallback count.
    """
    n_classes = data.n_classes
    if n_classes < 2:
        raise ValueError("need at least two classes")
    for c, idx in enumerate(data.class_index):
        if idx.size == 0:
            raise ValueError(f"class {c} is empty")
        if idx.size < config.pilot_size:
            raise ValueError(f"class {c} has {idx.size} samples, pilot needs "
                             f"{config.pilot_size}")
    params = params.copy()
    n, wd = config.pilot_size, config.weight_decay
    n_pilot = n_classes * n
    class_w = data.class_weights()
    layers = list(zip(params.weights, params.biases))
    memory, prev_mean, prev_var = (
        [(np.zeros((n_classes,) + w.shape), np.zeros((n_classes,) + b.shape))
         for w, b in layers] for _ in range(3))
    mem = memory_out if memory_out is not None else ClassMemory([])
    mem.memory = _class_views(memory, n_classes)
    mem.prev_mean = None
    mem.prev_var = None
    mem.fallbacks = 0
    block_rows = [max(1, min(w.shape[0], BLOCK_ENTRIES // w.shape[1])) for w, _ in layers]
    scratch = _BlockScratch(n_classes,
                            max(r * w.shape[1] for r, (w, _) in zip(block_rows, layers)))
    scale = config.step_size / n_classes
    reports: list[AccuracyReport] = []

    pilot = np.empty((n_classes, n), dtype=np.int64)
    fresh = np.empty(n_classes, dtype=np.int64)
    for it in range(1, config.iterations + 1):
        for c, idx in enumerate(data.class_index):
            rng = spawn_rng(config.seed, it, c)
            pilot[c] = rng.choice(idx, size=n, replace=False)
            fresh[c] = rng.choice(idx)
        rows = np.concatenate([pilot.ravel(), fresh])  # class-major pilots, then fresh
        acts, _, deltas = mlp.forward_backward(params, data.features[rows], data.labels[rows])
        first = it == 1
        for l, (w, b) in enumerate(layers):
            fan_in, fan_out = w.shape
            a_t = np.ascontiguousarray(
                acts[l][:n_pilot].reshape(n_classes, n, fan_in).transpose(0, 2, 1))
            a_t2 = a_t * a_t
            d = deltas[l][:n_pilot].reshape(n_classes, n, fan_out)
            d2 = d * d
            a_fresh, d_fresh = acts[l][n_pilot:], deltas[l][n_pilot:]
            (mem_w, mem_b), (mean_w, mean_b), (var_w, var_b) = \
                memory[l], prev_mean[l], prev_var[l]
            for r0 in range(0, fan_in, block_rows[l]):
                blk = slice(r0, r0 + block_rows[l])
                views = scratch.views((n_classes, min(block_rows[l], fan_in - r0), fan_out))
                np.matmul(a_t[:, blk], d, out=views[0])
                np.matmul(a_t2[:, blk], d2, out=views[1])
                np.multiply(a_fresh[:, blk, None], d_fresh[:, None, :], out=views[2])
                mem.fallbacks += _blend_block(views, w[blk], mem_w[:, blk], mean_w[:, blk],
                                              var_w[:, blk], class_w, n, wd, scale, first)
            views = scratch.views((n_classes, 1, fan_out))
            d.sum(axis=1, keepdims=True, out=views[0])
            d2.sum(axis=1, keepdims=True, out=views[1])
            views[2][:, 0] = d_fresh
            mem.fallbacks += _blend_block(views, b[None], mem_b[:, None], mean_b[:, None],
                                          var_b[:, None], class_w, n, 0.0, scale, first)
        _assert_finite(params, it, "mssg")
        if it % config.checkpoint_every == 0 or it == config.iterations:
            _checkpoint(reports, params, data, test_data, it, "mssg", config)
    mem.prev_mean = _class_views(prev_mean, n_classes)
    mem.prev_var = _class_views(prev_var, n_classes)
    return params, reports


_BASELINE_STREAM = {BaselineKind.SGD: 11, BaselineKind.BATCH: 12, BaselineKind.STRATIFIED: 13,
                    BaselineKind.FULL: 14}


def baseline_train(params: mlp.MlpParams, data: LabeledDataset, config: TrainConfig,
                   kind: BaselineKind, test_data: LabeledDataset,
                   sgd_multiplier: int = 1):
    """Single-sample, pooled-batch, full-batch or memoryless stratified training.

    SGD draws one pooled sample per step and may run ``sgd_multiplier``
    times the configured iterations (checkpoint cadence stretches with it).
    Batch draws ``batch_size`` pooled samples without replacement, except
    that batch_size == n uses the whole dataset, as FULL does every step:
    the trajectory is then full-gradient descent bit for bit. The
    stratified baseline weights one fresh sample per class by the class
    shares.
    """
    if sgd_multiplier < 1:
        raise ValueError("sgd_multiplier must be at least 1")
    if kind is not BaselineKind.SGD:
        sgd_multiplier = 1
    params = params.copy()
    n = data.n_samples
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if kind is BaselineKind.BATCH and config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds dataset size {n}")
    full = kind is BaselineKind.FULL or (kind is BaselineKind.BATCH and config.batch_size == n)
    class_w = data.class_weights()
    rng = spawn_rng(config.seed, _BASELINE_STREAM[kind])
    total = config.iterations * sgd_multiplier
    cadence = config.checkpoint_every * sgd_multiplier
    algorithm = kind.value if sgd_multiplier == 1 else f"{kind.value}(x{sgd_multiplier})"
    reports: list[AccuracyReport] = []
    for it in range(1, total + 1):
        if kind is BaselineKind.STRATIFIED:
            rows = np.array([int(rng.choice(idx)) for idx in data.class_index])
            acts, _, deltas = mlp.forward_backward(params, data.features[rows],
                                                   data.labels[rows])
            grad = mlp.MlpParams(
                [a.T @ (class_w[:, None] * d) + config.weight_decay * w
                 for a, d, w in zip(acts, deltas, params.weights)],
                [class_w @ d for d in deltas],
            )
        else:
            if full:
                rows = slice(None)
            elif kind is BaselineKind.SGD:
                rows = [int(rng.integers(n))]
            else:
                rows = rng.choice(n, size=config.batch_size, replace=False)
            _, grad = mlp.loss_and_grad(params, data.features[rows], data.labels[rows],
                                        config.weight_decay)
        for l in range(params.n_layers):
            params.weights[l] -= config.step_size * grad.weights[l]
            params.biases[l] -= config.step_size * grad.biases[l]
        _assert_finite(params, it, algorithm)
        if it % cadence == 0 or it == total:
            _checkpoint(reports, params, data, test_data, it, algorithm, config)
    return params, reports


@dataclass(frozen=True)
class GridCell:
    step_size: float
    weight_decay: float
    test_accuracy: float


def grid_search(train_fn: Callable[[float, float, int], mlp.MlpParams],
                step_sizes: Sequence[float], weight_decays: Sequence[float],
                budget_iterations: int, eval_data: LabeledDataset):
    """Evaluate every (step_size, weight_decay) cell and pick the best.

    `train_fn(step_size, weight_decay, iterations)` must return trained
    parameters. Ties break toward the smaller step size, then the smaller
    decay. Returns (best_cell, all_cells in grid order).
    """
    step_sizes = list(step_sizes)
    weight_decays = list(weight_decays)
    if not step_sizes or not weight_decays:
        raise ValueError("both grids must be non-empty")
    cells: list[GridCell] = []
    for h, lam in itertools.product(step_sizes, weight_decays):
        trained = train_fn(h, lam, budget_iterations)
        cells.append(GridCell(h, lam, accuracy(trained, eval_data)))
    best = min(cells, key=lambda c: (-c.test_accuracy, c.step_size, c.weight_decay))
    return best, cells
