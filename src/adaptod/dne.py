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

from .energy import _as_logits, batch_energy_normalize
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


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    ce: float
    dne_c: float
    dne_s: float


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


def loss_and_grad(logits, id_labels, cfg: DneConfig) -> tuple[LossBreakdown, np.ndarray]:
    """Cross-entropy on the ID rows plus the (optionally weighted) dual energy
    terms, and their gradient w.r.t. every logit.

    logits stacks the cfg.b_in ID rows above the cfg.b_out outlier rows, shape
    (b_in + b_out, k). One batch normalization and one softmax serve the loss
    and the gradient. Label errors are raised before batch-geometry errors.
    The energy terms backpropagate through the per-column normalization, which
    couples all rows within a column: for G = dL/dF,
    dL/df[i,j] = F[i,j] * (G[i,j] - sum_a G[a,j] * F[a,j]).
    """
    logits = _as_logits(logits, 2)
    b_in, b_out = cfg.b_in, cfg.b_out
    ce, d_ce = ce_and_grad(logits[:b_in], id_labels)
    if logits.shape != (b_in + b_out, cfg.k):
        raise InvalidInputError(
            f"batch geometry ({logits.shape[1]}, {b_in}, {logits.shape[0] - b_in}) does not "
            f"match config ({cfg.k}, {b_in}, {b_out})"
        )
    norm = batch_energy_normalize(logits)
    c_in = norm[:b_in].sum(axis=0)  # per-class ID mass
    c_out = norm[b_in:].sum(axis=0)  # per-class outlier mass
    row_mass = norm.sum(axis=1)
    h_c_in = np.maximum(0.0, cfg.m_in_c - c_in)
    h_c_out = np.maximum(0.0, c_out - cfg.m_out_c)
    h_s_in = np.maximum(0.0, cfg.m_in_s - row_mass[:b_in])
    h_s_out = np.maximum(0.0, row_mass[b_in:] - cfg.m_out_s)
    dne_c = float((h_c_in**2).sum() + (h_c_out**2).sum())
    dne_s = float((h_s_in**2).mean() + (h_s_out**2).mean())

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
