"""Minimal MLP with explicit forward/backward, SGD + momentum, cosine schedule,
and the two-stage training loop (cross-entropy pre-training on ID data, then
fine-tuning the output layer with the dual-normalized energy objective on
paired ID/outlier batches)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .dne import LossBreakdown, StepBuffers, ce_and_grad, loss_and_grad
from .errors import POSITIVE, DataError, InvalidInputError, NumericError, check_int, check_real

MAX_PARAMS = 2**24  # most parameters Mlp.init allocates: 128 MB a vector, and training holds 3
MAX_ACTIVATIONS = 2**25  # most values one forward allocates, rows x summed widths: 256 MB
MAX_STEPS = 2**22  # most steps of one training stage: its schedule is a 128 MB list of floats


def _layer_dims(layer_dims) -> list[int]:
    """layer_dims as ints; InvalidInputError unless it holds at least input and
    output sizes, all integers >= 1."""
    try:
        dims = list(layer_dims)
    except TypeError as exc:
        raise InvalidInputError(f"layer_dims must be a sequence of integers, "
                                f"got {layer_dims!r}") from exc
    if len(dims) < 2:
        raise InvalidInputError(f"layer_dims needs input and output sizes, got {dims}")
    return [check_int(d, f"layer_dims[{i}]", 1) for i, d in enumerate(dims)]


def _check_finite(x: np.ndarray, name: str) -> None:
    """InvalidInputError naming the first row of x that holds a non-finite value."""
    if not np.isfinite(x).all():
        row = np.flatnonzero(~np.isfinite(x).reshape(len(x), -1).all(axis=1))[0]
        raise InvalidInputError(f"{name} row {row} holds a non-finite value")


@dataclass
class Mlp:
    """Fully connected net, ReLU hidden activations, identity output. Its
    parameters are one float64 vector, params, laid out layer by layer (W
    row-major, then b), so the output layer is its tail; weights and biases are
    views into it, layer i begins at offsets[i], and _backward fills grad, laid
    out the same way. A params whose length does not fit layer_dims raises
    InvalidInputError."""

    layer_dims: list[int]
    params: np.ndarray

    def __post_init__(self):
        dims = self.layer_dims
        self.offsets = list(accumulate((i * o + o for i, o in zip(dims[:-1], dims[1:])),
                                       initial=0))
        self.params = np.array(self.params, dtype=np.float64)
        if self.params.shape != (self.offsets[-1],):
            raise InvalidInputError(f"layer_dims {dims} need {self.offsets[-1]} parameters, "
                                    f"got params of shape {self.params.shape}")
        self.grad = np.zeros_like(self.params)
        self.weights, self.biases = self._layer_views(self.params)
        self._d_weights, self._d_biases = self._layer_views(self.grad)

    def _layer_views(self, flat):
        dims, at = self.layer_dims, self.offsets
        ws = [flat[at[i]:at[i] + i_n * o_n].reshape(i_n, o_n)
              for i, (i_n, o_n) in enumerate(zip(dims[:-1], dims[1:]))]
        return ws, [flat[at[i] + w.size:at[i + 1]] for i, w in enumerate(ws)]

    @classmethod
    def init(cls, layer_dims, seed: int) -> "Mlp":
        dims = _layer_dims(layer_dims)
        layers = list(zip(dims[:-1], dims[1:]))
        n = sum(i * o + o for i, o in layers)
        if n > MAX_PARAMS:  # before any allocation
            raise InvalidInputError(f"{n} parameters in {dims} exceed MAX_PARAMS={MAX_PARAMS}")
        rng = np.random.default_rng(check_int(seed, "seed", 0))
        return cls(dims, np.concatenate([  # each layer's W row-major, then b, in one draw
            rng.uniform(-1.0 / np.sqrt(i), 1.0 / np.sqrt(i), size=i * o + o) for i, o in layers]))

    def copy(self) -> "Mlp":
        return Mlp(list(self.layer_dims), self.params)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Logits of the rows of inputs. Inputs whose activations would exceed
        MAX_ACTIVATIONS values or that hold a non-finite value raise InvalidInputError."""
        try:
            x = np.asarray(inputs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"inputs do not convert to a float matrix: {exc}") from exc
        self._check_rows(x.shape)
        _check_finite(x, "inputs")
        return self._forward(x, [None] * len(self.weights))[0]

    def _check_rows(self, shape):
        """forward's checks of rows of this shape, before any allocation."""
        if len(shape) != 2 or shape[1] != self.layer_dims[0]:
            raise InvalidInputError(f"inputs have shape {shape}, "
                                    f"expected (n, {self.layer_dims[0]})")
        widths = self.layer_dims[1:]
        if shape[0] * sum(widths) > MAX_ACTIVATIONS:
            raise InvalidInputError(f"{shape[0]} rows through layers of widths {widths} make "
                                    f"{shape[0] * sum(widths)} activation values, more than "
                                    f"MAX_ACTIVATIONS={MAX_ACTIVATIONS}")

    def _forward(self, x, outs):
        """Unchecked forward to (logits, activations); layer i goes into outs[i] (new if None)."""
        activations = [x]
        for i, (w, b, out) in enumerate(zip(self.weights, self.biases, outs)):
            z = np.dot(activations[-1], w, out=out)
            z += b
            if i < len(outs) - 1:
                np.maximum(z, 0.0, out=z)
            activations.append(z)
        return activations[-1], activations

    def _backward(self, activations, g, start, hidden_grads):
        """Unchecked parameter gradients for an upstream dL/dlogits g, written into
        grad from its tail down to start, which must be one of offsets: the layers
        below start are not backpropagated into and keep their entries.
        hidden_grads[i - 1] gets the gradient into layer i (a new array if None)."""
        for i in range(len(self.weights) - 1, -1, -1):
            np.dot(activations[i].T, g, out=self._d_weights[i])
            np.add.reduce(g, axis=0, out=self._d_biases[i])
            if self.offsets[i] == start:
                break
            g = np.dot(g, self.weights[i].T, out=hidden_grads[i - 1])
            g *= activations[i] > 0.0


def cosine_schedule(total_steps: int, lr0: float) -> list[float]:
    """Learning rates of steps 0 .. total_steps - 1, annealed from lr0 to 0 at total_steps."""
    if total_steps < 1:
        raise InvalidInputError("total_steps must be >= 1")
    return (lr0 * 0.5 * (1.0 + np.cos(np.pi * np.arange(total_steps) / total_steps))).tolist()


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting; the defaults are those of `adaptod train`.
    epochs_finetune=0 trains with cross-entropy alone."""

    seed: int = 0
    epochs_pretrain: int = 30
    epochs_finetune: int = 10
    lr_pretrain: float = 0.1
    lr_finetune: float = 0.005
    b_in: int = 64
    b_out: int = 128
    momentum: float = 0.9

    def __post_init__(self):
        for name, rule in (("seed", 0), ("epochs_pretrain", 0), ("epochs_finetune", 0),
                           ("lr_pretrain", POSITIVE), ("lr_finetune", POSITIVE), ("b_in", 1),
                           ("b_out", 1), ("momentum", (lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"))):
            check = check_int if isinstance(rule, int) else check_real  # an int rule is lo
            object.__setattr__(self, name, check(getattr(self, name), name, rule))  # ints as int


def _sgd_step(params, velocity, grad, scratch, zeros, lr, momentum, step):
    """One momentum update, in place, of a run of the parameter vector. Its
    dot product with zeros is 0 unless a parameter is not finite (inf * 0 is NaN)."""
    velocity *= momentum
    velocity -= np.multiply(grad, lr, out=scratch)
    params += velocity
    if not math.isfinite(np.dot(params, zeros)):
        raise NumericError(f"non-finite parameters at step {step}")


def _class_labels(id_y, n: int, k: int) -> np.ndarray:
    """id_y as n class indices; InvalidInputError names the first row whose
    label is not an integer in [0, k)."""
    y = np.asarray(id_y)
    if y.shape != (n,):
        raise InvalidInputError(f"id_x and id_y lengths differ: {n} rows, labels {y.shape}")
    bad = np.flatnonzero(~np.isin(y, np.arange(k)))
    if bad.size:
        raise InvalidInputError(f"label {y[bad[0]]} at row {bad[0]} is not an integer in [0, {k})")
    return y.astype(np.intp)


def train(model: Mlp, id_x, id_y, outlier_x, cfg: TrainConfig):
    """Two-stage training. Returns (trained model, per-epoch loss log).

    Stage 1 minimizes cross-entropy on ID batches, training every layer. Stage
    2 minimizes the total objective on paired ID/outlier batches, training
    only the output layer: the tail of params from offsets[-2]. The log holds
    one LossBreakdown per epoch (epoch means); stage-1 entries carry zero
    energy terms. A non-finite input value raises InvalidInputError naming the
    set and the row, before any step. A non-finite loss, logit or parameter
    raises NumericError naming the step, and NumPy warns of none of them.
    """
    id_x = np.asarray(id_x, dtype=np.float64)
    if id_x.ndim < 1:
        raise InvalidInputError(f"id_x has shape {id_x.shape}: training needs rows of samples")
    outlier_x = np.asarray(outlier_x, dtype=np.float64)
    if id_x.shape[0] < 1:
        raise InvalidInputError("id_x holds no rows: training needs at least one ID sample")
    _check_finite(id_x, "id_x")
    k = model.layer_dims[-1]
    id_y = _class_labels(id_y, id_x.shape[0], k)
    n, row_shape = id_x.shape[0], id_x.shape[1:]
    if cfg.epochs_finetune > 0:
        if outlier_x.ndim < 1 or outlier_x.shape[1:] != row_shape or len(outlier_x) < 1:
            raise InvalidInputError(f"fine-tuning needs outlier rows shaped as the ID rows: id_x "
                                    f"has shape {id_x.shape}, outlier_x {outlier_x.shape}")
        _check_finite(outlier_x, "outlier_x")
        if k < 2:
            raise InvalidInputError(f"fine-tuning needs k >= 2 classes, got k={k}")
    b_in = min(cfg.b_in, n)
    b_out = min(cfg.b_out, outlier_x.shape[0]) if cfg.epochs_finetune > 0 else 0
    steps_per_epoch = max(1, n // b_in)
    for name in ("epochs_pretrain", "epochs_finetune"):  # before any allocation
        if getattr(cfg, name) * steps_per_epoch > MAX_STEPS:
            raise InvalidInputError(f"{name}={getattr(cfg, name)} epochs of {steps_per_epoch} "
                                    f"steps exceed MAX_STEPS={MAX_STEPS}")
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    # Reused buffers (epoch rows, labels, stage-2 batch); mode="clip" fills them unbuffered.
    xs = np.empty((steps_per_epoch * b_in, *row_shape))
    ys = np.empty(steps_per_epoch * b_in, np.intp)
    stacked = np.empty((b_in + b_out, *row_shape))

    def ce_batch(x, y, step, outs, bufs):
        logits, acts = model._forward(x, outs)
        ce, d_logits = ce_and_grad(logits, y, bufs)
        return (ce, ce, 0.0, 0.0), acts, d_logits

    def paired_batch(x, y, step, outs, bufs):
        out_idx = rng.choice(outlier_x.shape[0], size=b_out, replace=False)
        stacked[:b_in] = x
        outlier_x.take(out_idx, axis=0, out=stacked[b_in:], mode="clip")
        logits, acts = model._forward(stacked, outs)
        try:
            terms, d_logits = loss_and_grad(logits, y, bufs)
        except InvalidInputError as exc:  # after train's input checks: non-finite logits
            raise NumericError(f"non-finite logits at step {step}") from exc
        return (terms.total, terms.ce, terms.dne_c, terms.dne_s), acts, d_logits

    tail = model.offsets[-2]
    stages = [stage for stage in ((cfg.epochs_pretrain, cfg.lr_pretrain, 0, b_in, ce_batch), (
        cfg.epochs_finetune, cfg.lr_finetune, tail, b_in + b_out, paired_batch)) if stage[0]]
    for *_, rows, _ in stages:  # forward's checks, once per run
        model._check_rows((rows, *row_shape))
    log: list[LossBreakdown] = []
    losses = np.empty((4, steps_per_epoch))  # each step's loss terms, for the epoch means
    with np.errstate(over="ignore", invalid="ignore"):
        for epochs, lr0, start, rows, batch_loss in stages:
            lrs = cosine_schedule(epochs * steps_per_epoch, lr0)
            params, grad = model.params[start:], model.grad[start:]
            (velocity, zeros), scratch = np.zeros((2, len(params))), np.empty_like(params)
            outs = [np.empty((rows, width)) for width in model.layer_dims[1:]]  # step buffers
            hidden_grads = [np.empty_like(out) if at > start else None
                            for out, at in zip(outs, model.offsets[1:-1])]
            bufs = StepBuffers(rows, k, b_in)
            step = 0
            for _ in range(epochs):
                order = rng.permutation(n)[:xs.shape[0]]
                id_x.take(order, axis=0, out=xs, mode="clip")
                id_y.take(order, out=ys, mode="clip")
                for i, s in enumerate(range(0, ys.size, b_in)):
                    loss, acts, d_logits = batch_loss(xs[s:s + b_in], ys[s:s + b_in], step, outs,
                                                      bufs)
                    if not math.isfinite(loss[0]):
                        raise NumericError(f"non-finite loss at step {step}")
                    model._backward(acts, d_logits, start, hidden_grads)
                    _sgd_step(params, velocity, grad, scratch, zeros, lrs[step], cfg.momentum,
                              step)
                    step += 1
                    losses[:, i] = loss
                log.append(LossBreakdown(*losses.mean(axis=1).tolist()))
    return model, log


def save_checkpoint(path, model: Mlp) -> None:
    """Canonical JSON checkpoint of exactly layer_dims and params, as decimal text."""
    with open(path, "w") as fh:
        json.dump({"layer_dims": model.layer_dims, "params": model.params.tolist()}, fh,
                  sort_keys=True)
        fh.write("\n")


def _read_json_object(path) -> dict:
    """The JSON object stored at path (a checkpoint); DataError if it is not one."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
        except MemoryError as exc:
            raise DataError(f"{path}: out of memory while parsing the file") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    return payload


def _json_field(payload: dict, key: str, path, convert):
    """convert(payload[key]); DataError names the path and the key when
    the key is missing or convert raises TypeError, ValueError, OverflowError
    or InvalidInputError."""
    if key not in payload:
        raise DataError(f"{path}: missing key {key!r}")
    try:
        return convert(payload[key])
    except (TypeError, ValueError, OverflowError, InvalidInputError) as exc:
        raise DataError(f"{path}: bad {key!r}: {exc}") from exc


def load_checkpoint(path) -> Mlp:
    """Read a save_checkpoint file. DataError names the path and the key
    that is missing or malformed, or params that are not finite or do not fit layer_dims."""
    payload = _read_json_object(path)
    dims = _json_field(payload, "layer_dims", path, _layer_dims)
    model = _json_field(payload, "params", path, lambda v: Mlp(dims, v))
    if not np.isfinite(model.params).all():  # json reads NaN and Infinity
        raise DataError(f"{path}: bad 'params': a parameter is not finite")
    return model
