"""Dual-normalized energy training objective and its analytic gradient.

The class-wise term pushes each class's ID mass in the batch-normalized energy
matrix toward 1 and its outlier mass toward 0; the sample-wise term pushes each
ID sample's row mass toward k / b_in and each outlier row toward 0. Margins are
fixed by (k, b_in) alone. The total objective adds softmax cross-entropy on the
ID rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .energy import LogitBatch, batch_energy_normalize
from .errors import InvalidInputError

_UNSET = None


@dataclass(frozen=True)
class DneConfig:
    """Batch geometry plus the four hinge margins (defaults need no tuning)."""

    k: int
    b_in: int
    b_out: int
    m_in_c: float = 1.0
    m_out_c: float = 0.0
    m_in_s: float = field(default=_UNSET)  # defaults to k / b_in
    m_out_s: float = 0.0
    dne_weight: float = 1.0  # ablation knob only; 1.0 is the published objective

    def __post_init__(self):
        if self.k < 2 or self.b_in < 1 or self.b_out < 1:
            raise InvalidInputError("need k >= 2, b_in >= 1, b_out >= 1")
        if self.m_in_s is _UNSET:
            object.__setattr__(self, "m_in_s", self.k / self.b_in)

    def check_batch(self, batch: LogitBatch) -> None:
        if batch.k != self.k or batch.b_in != self.b_in or batch.b_out != self.b_out:
            raise InvalidInputError(
                f"batch geometry ({batch.k}, {batch.b_in}, {batch.b_out}) does not match "
                f"config ({self.k}, {self.b_in}, {self.b_out})"
            )


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    ce: float
    dne_c: float
    dne_s: float


def _hinges(batch: LogitBatch, cfg: DneConfig):
    """Normalized energies, the active hinge values of both loss terms, and the
    unweighted class-wise and sample-wise losses."""
    cfg.check_batch(batch)
    norm = batch_energy_normalize(batch)
    c_in = norm[: batch.b_in].sum(axis=0)  # per-class ID mass
    c_out = norm[batch.b_in :].sum(axis=0)  # per-class outlier mass
    s = norm.sum(axis=1)  # per-row mass
    h_c_in = np.maximum(0.0, cfg.m_in_c - c_in)
    h_c_out = np.maximum(0.0, c_out - cfg.m_out_c)
    h_s_in = np.maximum(0.0, cfg.m_in_s - s[: batch.b_in])
    h_s_out = np.maximum(0.0, s[batch.b_in :] - cfg.m_out_s)
    dne_c = float((h_c_in**2).sum() + (h_c_out**2).sum())
    dne_s = float((h_s_in**2).mean() + (h_s_out**2).mean())
    return norm, (h_c_in, h_c_out, h_s_in, h_s_out), dne_c, dne_s


def dne_c_loss(batch: LogitBatch, cfg: DneConfig) -> float:
    """Class-wise squared-hinge loss summed over classes."""
    return _hinges(batch, cfg)[2]


def dne_s_loss(batch: LogitBatch, cfg: DneConfig) -> float:
    """Sample-wise squared-hinge loss, averaged within the ID and outlier batches."""
    return _hinges(batch, cfg)[3]


def ce_and_grad(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the rows and its gradient w.r.t. the
    logits, (softmax - onehot) / n, from one exponentiation."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] != logits.shape[0]:
        raise InvalidInputError("one label per ID row required")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise InvalidInputError("label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    ce = float((np.log(z[:, 0]) - shifted[rows, labels]).mean())
    p = e / z
    p[rows, labels] -= 1.0
    return ce, p / logits.shape[0]


def loss_and_grad(batch: LogitBatch, id_labels,
                  cfg: DneConfig) -> tuple[LossBreakdown, np.ndarray]:
    """Cross-entropy on ID rows plus the (optionally weighted) dual energy terms,
    and their gradient w.r.t. every logit, shape (b_in + b_out, k).

    One batch normalization and one softmax serve both. Label errors are
    raised before batch-geometry errors. The energy terms backpropagate
    through the per-column normalization, which couples all rows within a
    column: for G = dL/dF, dL/df[i,j] = F[i,j] * (G[i,j] - sum_a G[a,j] * F[a,j]).
    """
    ce, d_ce = ce_and_grad(batch.id_rows, id_labels)
    norm, (h_c_in, h_c_out, h_s_in, h_s_out), dne_c, dne_s = _hinges(batch, cfg)
    b_in, b_out = batch.b_in, batch.b_out

    g_f = np.zeros_like(norm)
    g_f[:b_in] += -2.0 * h_c_in[None, :]
    g_f[b_in:] += 2.0 * h_c_out[None, :]
    g_f[:b_in] += (-2.0 / b_in) * h_s_in[:, None]
    g_f[b_in:] += (2.0 / b_out) * h_s_out[:, None]
    g_f *= cfg.dne_weight

    grad = norm * (g_f - (g_f * norm).sum(axis=0, keepdims=True))
    grad[:b_in] += d_ce
    c, s = cfg.dne_weight * dne_c, cfg.dne_weight * dne_s
    return LossBreakdown(total=ce + c + s, ce=ce, dne_c=c, dne_s=s), grad


def total_loss(batch: LogitBatch, id_labels, cfg: DneConfig) -> LossBreakdown:
    """The loss half of loss_and_grad."""
    return loss_and_grad(batch, id_labels, cfg)[0]


def total_loss_grad(batch: LogitBatch, id_labels, cfg: DneConfig) -> np.ndarray:
    """The gradient half of loss_and_grad; geometry errors come before label errors."""
    cfg.check_batch(batch)
    return loss_and_grad(batch, id_labels, cfg)[1]
