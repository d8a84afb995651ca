"""Minimal MLP with explicit forward/backward, SGD + momentum, cosine schedule,
and the two-stage training loop (cross-entropy pre-training on ID data, then
fine-tuning the output layer with the dual-normalized energy objective on
paired ID/outlier batches)."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import float_array, json_field, read_json_object
from .dne import LossBreakdown, ce_and_grad, loss_and_grad
from .errors import InvalidInputError, ShapeError, TrainingDivergedError


@dataclass
class Mlp:
    """Fully connected net, ReLU hidden activations, identity output."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, layer_dims, seed: int) -> "Mlp":
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise InvalidInputError("layer_dims needs at least input and output sizes, all >= 1")
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
        return Mlp(
            layer_dims=list(self.layer_dims),
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward_cached(inputs)[0]

    def forward_cached(self, inputs: np.ndarray):
        """Logits plus the per-layer activations needed by backward."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.layer_dims[0]:
            raise ShapeError(
                f"inputs have shape {x.shape}, expected (n, {self.layer_dims[0]})"
            )
        activations = [x]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            if i < self.n_layers - 1:
                z = np.maximum(z, 0.0)
            activations.append(z)
        return activations[-1], activations

    def backward(self, activations, upstream_grad: np.ndarray, first_layer: int = 0):
        """Parameter gradients for an upstream dL/dlogits. Returns (dWs, dbs);
        layers below first_layer are not backpropagated into and get None."""
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != activations[-1].shape:
            raise ShapeError(
                f"upstream gradient shape {g.shape} != logits shape {activations[-1].shape}"
            )
        d_ws = [None] * self.n_layers
        d_bs = [None] * self.n_layers
        for i in range(self.n_layers - 1, first_layer - 1, -1):
            a_prev = activations[i]
            d_ws[i] = a_prev.T @ g
            d_bs[i] = g.sum(axis=0)
            if i > first_layer:
                g = g @ self.weights[i].T
                g = g * (activations[i] > 0.0)
        return d_ws, d_bs


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine annealing from lr0 (step 0) to zero (step == total_steps)."""
    if total_steps < 1:
        raise InvalidInputError("total_steps must be >= 1")
    if step < 0 or step > total_steps:
        raise InvalidInputError(f"step {step} outside [0, {total_steps}]")
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


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
        if self.b_in < 1 or self.b_out < 1:
            raise InvalidInputError(
                f"batch sizes must be >= 1, got b_in={self.b_in}, b_out={self.b_out}")


@dataclass
class _SgdState:
    velocity_w: list[np.ndarray]
    velocity_b: list[np.ndarray]

    @classmethod
    def zeros_like(cls, model: Mlp):
        return cls(
            velocity_w=[np.zeros_like(w) for w in model.weights],
            velocity_b=[np.zeros_like(b) for b in model.biases],
        )


def _sgd_step(model, state, d_ws, d_bs, lr, momentum, step):
    """Momentum update of every layer that has a gradient."""
    for i in range(model.n_layers):
        if d_ws[i] is None:
            continue
        state.velocity_w[i] = momentum * state.velocity_w[i] - lr * d_ws[i]
        state.velocity_b[i] = momentum * state.velocity_b[i] - lr * d_bs[i]
        model.weights[i] += state.velocity_w[i]
        model.biases[i] += state.velocity_b[i]
        if not (np.isfinite(model.weights[i]).all() and np.isfinite(model.biases[i]).all()):
            raise TrainingDivergedError(f"non-finite parameters at step {step}", step)


def train(model: Mlp, id_x, id_y, outlier_x, cfg: TrainConfig):
    """Two-stage training. Returns (trained model, per-epoch loss log).

    Stage 1 minimizes cross-entropy on ID batches alone. Stage 2 minimizes the
    total objective on paired ID/outlier batches, by default updating only the
    output layer. The log holds one LossBreakdown per epoch (epoch means);
    stage-1 entries carry zero energy terms.
    """
    id_x = np.asarray(id_x, dtype=np.float64)
    id_y = np.asarray(id_y, dtype=np.intp)
    outlier_x = np.asarray(outlier_x, dtype=np.float64)
    if id_x.shape[0] != id_y.shape[0]:
        raise InvalidInputError("id_x and id_y lengths differ")
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    log: list[LossBreakdown] = []
    step = 0

    # Stage 1: cross-entropy on ID only.
    b_in = min(cfg.b_in, id_x.shape[0])
    steps_per_epoch = max(1, id_x.shape[0] // b_in)
    total_steps = max(1, cfg.epochs_pretrain * steps_per_epoch)
    sgd = _SgdState.zeros_like(model)
    for _ in range(cfg.epochs_pretrain):
        order = rng.permutation(id_x.shape[0])
        epoch_ce = []
        for s in range(steps_per_epoch):
            idx = order[s * b_in : (s + 1) * b_in]
            logits, acts = model.forward_cached(id_x[idx])
            ce, grad = ce_and_grad(logits, id_y[idx])
            if not np.isfinite(ce):
                raise TrainingDivergedError(f"non-finite loss at step {step}", step)
            d_ws, d_bs = model.backward(acts, grad)
            _sgd_step(model, sgd, d_ws, d_bs, cosine_lr(step, total_steps, cfg.lr_pretrain),
                      cfg.momentum, step)
            step += 1
            epoch_ce.append(ce)
        mean_ce = float(np.mean(epoch_ce))
        log.append(LossBreakdown(total=mean_ce, ce=mean_ce, dne_c=0.0, dne_s=0.0))

    # Stage 2: total objective on paired batches.
    if cfg.epochs_finetune > 0:
        if outlier_x.shape[0] < 1:
            raise InvalidInputError("fine-tuning requires outlier data")
        b_out = min(cfg.b_out, outlier_x.shape[0])
        total_steps = cfg.epochs_finetune * steps_per_epoch
        sgd = _SgdState.zeros_like(model)
        first_trainable = 0 if cfg.finetune_all_layers else model.n_layers - 1
        step = 0
        for _ in range(cfg.epochs_finetune):
            order = rng.permutation(id_x.shape[0])
            epoch_losses = []
            for s in range(steps_per_epoch):
                idx = order[s * b_in : (s + 1) * b_in]
                out_idx = rng.choice(outlier_x.shape[0], size=b_out, replace=False)
                x = np.vstack([id_x[idx], outlier_x[out_idx]])
                logits, acts = model.forward_cached(x)
                breakdown, grad = loss_and_grad(logits, id_y[idx])
                if not np.isfinite(breakdown.total):
                    raise TrainingDivergedError(f"non-finite loss at step {step}", step)
                d_ws, d_bs = model.backward(acts, grad, first_trainable)
                _sgd_step(model, sgd, d_ws, d_bs,
                          cosine_lr(step, total_steps, cfg.lr_finetune),
                          cfg.momentum, step)
                step += 1
                epoch_losses.append(breakdown)
            log.append(
                LossBreakdown(
                    total=float(np.mean([b.total for b in epoch_losses])),
                    ce=float(np.mean([b.ce for b in epoch_losses])),
                    dne_c=float(np.mean([b.dne_c for b in epoch_losses])),
                    dne_s=float(np.mean([b.dne_s for b in epoch_losses])),
                )
            )
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
