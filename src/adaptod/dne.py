"""Dual-normalized energy training objective and its analytic gradient.

The class-wise term pushes each class's ID mass in the batch-normalized energy
matrix toward 1 and its outlier mass toward 0; the sample-wise term pushes each
ID sample's row mass toward k / b_in and each outlier row toward 0. Margins are
fixed by (k, b_in) alone. The total objective adds softmax cross-entropy on the
ID rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import batch_energy_normalize
from .errors import InvalidInputError


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    ce: float
    dne_c: float
    dne_s: float


def ce_and_grad(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over the rows and its gradient w.r.t. the
    logits, (softmax - onehot) / n, from one exponentiation. Each label must be
    a class index in [0, k): nn.train checks its labels once, up front, so no
    step checks them again."""
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.shape
    if labels.shape[0] != n:
        raise InvalidInputError("one label per ID row required")
    p = logits - np.maximum.reduce(logits.T.copy(), axis=0)[:, None]  # exact in any order
    flat = p.reshape(-1)  # a view: p is a fresh C-contiguous array
    at = np.arange(0, n * k, k) + labels  # row * k + label: each row's label entry
    picked = flat[at]
    np.exp(p, out=p)
    z = np.add.reduce(p, axis=1, keepdims=True)  # p.sum(...) without its Python wrappers
    ce = float(np.add.reduce(np.log(z[:, 0]) - picked) / n)
    p /= z
    flat[at] -= 1.0
    p /= n
    return ce, p


def loss_and_grad(logits, id_labels) -> tuple[LossBreakdown, np.ndarray]:
    """Cross-entropy on the ID rows plus the dual energy terms, and their
    gradient w.r.t. every logit.

    logits stacks one ID row per label above the outlier rows, shape
    (b_in + b_out, k). One batch normalization and one softmax serve the loss
    and the gradient. The logits are checked once, by batch_energy_normalize;
    a label count error is raised before batch-geometry errors, and the labels
    are class indices as ce_and_grad requires.
    The energy terms backpropagate through the per-column normalization, which
    couples all rows within a column: for G = dL/dF,
    dL/df[i,j] = F[i,j] * (G[i,j] - sum_a G[a,j] * F[a,j]).
    """
    logits = np.asarray(logits, dtype=np.float64)
    norm = batch_energy_normalize(logits)  # the one check of the logits
    b_in = len(id_labels)
    b_out, k = logits.shape[0] - b_in, logits.shape[1]
    if b_in:  # a label count error comes first; an empty label list has none
        ce, d_ce = ce_and_grad(logits[:b_in], id_labels)
    if k < 2 or b_in < 1 or b_out < 1:
        raise InvalidInputError(
            f"need k >= 2, b_in >= 1, b_out >= 1, got k={k}, b_in={b_in}, b_out={b_out}")
    # Margins: class mass 1 (ID) and 0 (outliers), row mass k / b_in (ID) and
    # 0 (outliers). A mass is never negative, so the outlier hinges are the
    # masses themselves. h_s holds the hinge of every row, ID rows first.
    h_c_in = np.maximum(0.0, 1.0 - np.add.reduce(norm[:b_in], axis=0))
    h_c_out = np.add.reduce(norm[b_in:], axis=0)
    h_s = np.add.reduce(norm, axis=1)
    np.maximum(0.0, np.subtract(k / b_in, h_s[:b_in], out=h_s[:b_in]), out=h_s[:b_in])
    sq_s = h_s**2
    dne_c = float(np.add.reduce(h_c_in**2) + np.add.reduce(h_c_out**2))
    dne_s = float(np.add.reduce(sq_s[:b_in]) / b_in + np.add.reduce(sq_s[b_in:]) / b_out)

    # dL/dF: the class term along each column plus the sample term along each
    # row. Every hinge is >= +0, and 0.0 - x turns an ID entry of -0.0 into
    # +0.0, as the sum from zeros did.
    grad = np.empty_like(norm)
    np.subtract(0.0, 2.0 * h_c_in + (2.0 / b_in) * h_s[:b_in, None], out=grad[:b_in])
    np.add(2.0 * h_c_out, (2.0 / b_out) * h_s[b_in:, None], out=grad[b_in:])
    grad -= np.add.reduce(grad * norm, axis=0, keepdims=True)
    grad *= norm
    grad[:b_in] += d_ce
    return LossBreakdown(total=ce + dne_c + dne_s, ce=ce, dne_c=dne_c, dne_s=dne_s), grad
