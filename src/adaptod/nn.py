"""Minimal MLP with explicit forward/backward, SGD + momentum, cosine schedule,
and the two-stage training loop (cross-entropy pre-training on ID data, then
fine-tuning the output layer with the dual-normalized energy objective on
paired ID/outlier batches)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, zip_longest

import numpy as np

from .data import float_array, json_field, read_json_object
from .dne import LossBreakdown, ce_and_grad, loss_and_grad
from .errors import InvalidInputError, ShapeError, TrainingDivergedError

MAX_PARAMS = 2**24  # most parameters Mlp.init allocates: 128 MB a vector, and training holds 3
MAX_ACTIVATIONS = 2**25  # most values one forward allocates, rows x summed widths: 256 MB
MAX_STEPS = 2**22  # most steps of one training stage: its schedule is a 128 MB list of floats


@dataclass
class Mlp:
    """Fully connected net, ReLU hidden activations, identity output. The arrays
    are packed into one vector, params, layer by layer (W row-major, then b), so
    the output layer is its tail; weights and biases become views into it, layer
    i begins at offsets[i], and backward fills grad, laid out the same way."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        dims = self.layer_dims
        layers = zip_longest(dims[:-1], dims[1:], self.weights, self.biases)
        for layer, (i, o, w, b) in enumerate(layers):  # a missing array has shape ()
            if (np.shape(w), np.shape(b)) != ((i, o), (o,)):
                raise ShapeError(f"layer {layer}: expected W {(i, o)} and b {(o,)}, "
                                 f"got W {np.shape(w)} and b {np.shape(b)}")
        self.offsets = list(accumulate((i * o + o for i, o in zip(dims[:-1], dims[1:])),
                                       initial=0))
        self.params = np.concatenate(
            [np.ravel(a) for w, b in zip(self.weights, self.biases) for a in (w, b)],
            dtype=np.float64)
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
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise InvalidInputError("layer_dims needs at least input and output sizes, all >= 1")
        n = sum(i * o + o for i, o in zip(dims[:-1], dims[1:]))
        if n > MAX_PARAMS:  # before any allocation
            raise InvalidInputError(f"{n} parameters in {dims} exceed MAX_PARAMS={MAX_PARAMS}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(layer_dims=dims, weights=weights, biases=biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Mlp":
        return Mlp(list(self.layer_dims), self.weights, self.biases)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward_cached(inputs)[0]

    def forward_cached(self, inputs: np.ndarray):
        """Logits plus the per-layer activations needed by backward. Inputs whose
        activations would exceed MAX_ACTIVATIONS values raise InvalidInputError."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_dims[0]:
            raise ShapeError(f"inputs have shape {x.shape}, expected (n, {self.layer_dims[0]})")
        widths = self.layer_dims[1:]
        if x.shape[0] * sum(widths) > MAX_ACTIVATIONS:  # before any allocation
            raise InvalidInputError(f"{x.shape[0]} rows through layers of widths {widths} make "
                                    f"{x.shape[0] * sum(widths)} activation values, more than "
                                    f"MAX_ACTIVATIONS={MAX_ACTIVATIONS}")
        activations = [x]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w
            z += b
            if i < last:
                np.maximum(z, 0.0, out=z)
            activations.append(z)
        return activations[-1], activations

    def backward(self, activations, upstream_grad: np.ndarray, start: int = 0):
        """Parameter gradients for an upstream dL/dlogits, written into grad from
        its tail down to start, which must be one of offsets: the layers below
        start are not backpropagated into and keep their entries. Returns the
        per-layer views (dWs, dbs) of grad, which the next call overwrites."""
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != activations[-1].shape:
            raise ShapeError(
                f"upstream gradient shape {g.shape} != logits shape {activations[-1].shape}"
            )
        if start not in self.offsets[:-1]:
            raise InvalidInputError(f"start {start} is not where a layer begins: {self.offsets}")
        for i in range(self.n_layers - 1, -1, -1):
            np.matmul(activations[i].T, g, out=self._d_weights[i])
            np.add.reduce(g, axis=0, out=self._d_biases[i])
            if self.offsets[i] == start:
                break
            g = (g @ self.weights[i].T) * (activations[i] > 0.0)
        return self._d_weights, self._d_biases


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
    finetune_all_layers: bool = False  # default: only the output layer adapts

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInputError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise InvalidInputError("epoch counts must be non-negative, got "
                                    f"{self.epochs_pretrain} and {self.epochs_finetune}")
        for name in ("lr_pretrain", "lr_finetune"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise InvalidInputError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.b_in < 1 or self.b_out < 1:
            raise InvalidInputError(
                f"batch sizes must be >= 1, got b_in={self.b_in}, b_out={self.b_out}")


def _sgd_step(params, velocity, grad, scratch, lr, momentum, step):
    """One momentum update, in place, of a run of the parameter vector."""
    velocity *= momentum
    velocity -= np.multiply(grad, lr, out=scratch)
    params += velocity
    if not np.isfinite(params).all():
        raise TrainingDivergedError(f"non-finite parameters at step {step}", step)


def _class_labels(id_y, n: int, k: int) -> np.ndarray:
    """id_y as n class indices; InvalidInputError names the first row whose
    label is not an integer in [0, k)."""
    y = np.asarray(id_y)
    if y.shape != (n,):
        raise InvalidInputError(f"id_x and id_y lengths differ: {n} rows, labels {y.shape}")
    bad = np.flatnonzero(~np.isin(y, np.arange(k)))
    if bad.size:
        i = bad[0]
        raise InvalidInputError(f"label {y[i]} at row {i} is not an integer in [0, {k})")
    return y.astype(np.intp)


def train(model: Mlp, id_x, id_y, outlier_x, cfg: TrainConfig):
    """Two-stage training. Returns (trained model, per-epoch loss log).

    Stage 1 minimizes cross-entropy on ID batches, training every layer. Stage
    2 minimizes the total objective on paired ID/outlier batches, by default
    training only the output layer: the tail of params from offsets[-2]. The
    log holds one LossBreakdown per epoch (epoch means); stage-1 entries carry
    zero energy terms. A non-finite loss, logit or parameter raises
    TrainingDivergedError naming the step, and NumPy warns of none of them.
    """
    id_x = np.asarray(id_x, dtype=np.float64)
    outlier_x = np.asarray(outlier_x, dtype=np.float64)
    if id_x.shape[0] < 1:
        raise InvalidInputError("id_x holds no rows: training needs at least one ID sample")
    k = model.layer_dims[-1]
    id_y = _class_labels(id_y, id_x.shape[0], k)
    if cfg.epochs_finetune > 0 and outlier_x.shape[0] < 1:
        raise InvalidInputError("fine-tuning requires outlier data")
    if cfg.epochs_finetune > 0 and k < 2:
        raise InvalidInputError(f"fine-tuning needs k >= 2 classes, got k={k}")
    n, row_shape = id_x.shape[0], id_x.shape[1:]  # a wrong row shape fails in forward
    b_in = min(cfg.b_in, n)
    b_out = min(cfg.b_out, outlier_x.shape[0])
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

    def ce_batch(x, y, step):
        logits, acts = model.forward_cached(x)
        ce, d_logits = ce_and_grad(logits, y)
        return (ce, ce, 0.0, 0.0), acts, d_logits

    def paired_batch(x, y, step):
        out_idx = rng.choice(outlier_x.shape[0], size=b_out, replace=False)
        stacked[:b_in] = x
        outlier_x.take(out_idx, axis=0, out=stacked[b_in:], mode="clip")
        logits, acts = model.forward_cached(stacked)
        try:
            terms, d_logits = loss_and_grad(logits, y)
        except InvalidInputError as exc:  # after train's input checks: non-finite logits
            raise TrainingDivergedError(f"non-finite logits at step {step}", step) from exc
        return (terms.total, terms.ce, terms.dne_c, terms.dne_s), acts, d_logits

    log: list[LossBreakdown] = []
    tail = 0 if cfg.finetune_all_layers else model.offsets[-2]
    stages = ((cfg.epochs_pretrain, cfg.lr_pretrain, 0, ce_batch),
              (cfg.epochs_finetune, cfg.lr_finetune, tail, paired_batch))
    with np.errstate(over="ignore", invalid="ignore"):
        for epochs, lr0, start, batch_loss in stages:
            lrs = cosine_schedule(max(1, epochs * steps_per_epoch), lr0)
            params, grad = model.params[start:], model.grad[start:]
            velocity, scratch = np.zeros_like(params), np.empty_like(params)
            step = 0
            for _ in range(epochs):
                order = rng.permutation(n)[:xs.shape[0]]
                id_x.take(order, axis=0, out=xs, mode="clip")
                id_y.take(order, out=ys, mode="clip")
                losses = []
                for s in range(0, ys.size, b_in):
                    loss, acts, d_logits = batch_loss(xs[s:s + b_in], ys[s:s + b_in], step)
                    if not math.isfinite(loss[0]):
                        raise TrainingDivergedError(f"non-finite loss at step {step}", step)
                    model.backward(acts, d_logits, start)
                    _sgd_step(params, velocity, grad, scratch, lrs[step], cfg.momentum, step)
                    step += 1
                    losses.append(loss)
                log.append(LossBreakdown(*(float(np.mean(term)) for term in zip(*losses))))
    return model, log


def save_checkpoint(path, model: Mlp, seed: int, stage: str) -> None:
    """Canonical JSON checkpoint; weights stored row-major as decimal text."""
    payload = {
        "layer_dims": model.layer_dims,
        "weights": [[float(v) for v in w.ravel()] for w in model.weights],
        "biases": [[float(v) for v in b] for b in model.biases],
        "seed": seed,
        "stage": stage,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Mlp, int, str]:
    """Read a save_checkpoint file. LogitFileError names the path and the key
    that is missing, malformed or does not match layer_dims."""
    payload = read_json_object(path)
    dims = json_field(payload, "layer_dims", path, lambda v: [int(d) for d in v])
    shapes = list(zip(dims[:-1], dims[1:]))
    weights = json_field(payload, "weights", path, lambda v: [
        float_array(w, (i * o,)).reshape(i, o) for w, (i, o) in zip(v, shapes, strict=True)])
    biases = json_field(payload, "biases", path, lambda v: [
        float_array(b, (o,)) for b, (_, o) in zip(v, shapes, strict=True)])
    model = Mlp(layer_dims=dims, weights=weights, biases=biases)
    return model, json_field(payload, "seed", path, int), json_field(payload, "stage", path, str)
