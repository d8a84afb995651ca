"""Dual-normalized energy training objective and its analytic gradient.

The class-wise term pushes each class's ID mass in the batch-normalized energy
matrix toward 1 and its outlier mass toward 0; the sample-wise term pushes each
ID sample's row mass toward k / b_in and each outlier row toward 0. Margins are
fixed by (k, b_in) alone. The total objective adds softmax cross-entropy on the
ID rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .energy import batch_energy_normalize, column_sums
from .errors import InvalidInputError


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    ce: float
    dne_c: float
    dne_s: float


class StepBuffers:
    """Arrays that ce_and_grad and loss_and_grad write into, allocated once for
    logits of shape (rows, k), with the views of them that every call uses. If
    b_in of the rows are ID rows, ce holds ce_and_grad's buffers for them and
    parts the views on the ID rows and on the outlier rows. A call returns its
    gradient in grad, which the next call overwrites."""

    def __init__(self, rows: int, k: int, b_in: int | None = None):
        self.shape = (rows, k)
        self.grad, self.norm, self.prod = np.empty((3, rows, k))
        self.flat = self.grad.reshape(-1)  # a view: grad is C-contiguous
        self.cols = np.empty((k, rows))  # the logits transposed, for row maxima
        self.row_a, self.row_b, self.z = np.empty((3, rows))  # per-row scratch
        self.row_max, self.z_col = self.row_a[:, None], self.z[:, None]
        self.at = np.arange(0, rows * k, k)  # row * k: each row's first entry in flat grad
        self.label_at = np.empty(rows, np.intp)
        self.ce = None if b_in in (None, rows) else StepBuffers(b_in, k)
        if self.ce is not None:
            self.h_c = np.empty((2, k))  # the class hinges of the ID and of the outlier rows
            self.parts = [SimpleNamespace(grad=self.grad[at], h_s=self.row_a[at], r=self.row_b[at],
                                          r_col=self.row_b[at, None], h_c=h_c)
                          for at, h_c in zip((slice(b_in), slice(b_in, None)), self.h_c)]


def ce_and_grad(logits: np.ndarray, labels, bufs: StepBuffers | None = None):
    """Mean softmax cross-entropy over the rows and its gradient w.r.t. the
    logits, (softmax - onehot) / n, from one exponentiation, written into bufs
    (fresh buffers if None). Each label must be a class index in [0, k):
    nn.train checks its labels once, up front, so no step checks them again."""
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.shape
    if labels.shape[0] != n:
        raise InvalidInputError("one label per ID row required")
    b = StepBuffers(n, k) if bufs is None else bufs
    if b.shape != logits.shape:
        raise InvalidInputError(f"buffers of shape {b.shape} do not fit logits of shape {(n, k)}")
    b.cols[...] = logits.T  # row maxima from a contiguous copy: a max is exact in any order
    np.maximum.reduce(b.cols, axis=0, out=b.row_a)
    p, flat = np.subtract(logits, b.row_max, out=b.grad), b.flat
    at = np.add(b.at, labels, out=b.label_at)  # row * k + label: each row's label entry
    picked = flat[at]
    np.exp(p, out=p)
    np.add.reduce(p, axis=1, keepdims=True, out=b.z_col)  # p.sum(...) without its wrappers
    ce = float(np.add.reduce(np.log(b.z) - picked) / n)
    p /= b.z_col
    flat[at] -= 1.0
    p /= n
    return ce, p


def loss_and_grad(logits, id_labels, bufs: StepBuffers | None = None):
    """Cross-entropy on the ID rows plus the dual energy terms, as a
    LossBreakdown, and their gradient w.r.t. every logit, written into bufs
    (fresh buffers if None).

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
    # the one check of the logits, and of the buffers' shape
    norm = batch_energy_normalize(logits, None if bufs is None else bufs.norm)
    b_in = len(id_labels)
    b_out, k = logits.shape[0] - b_in, logits.shape[1]
    b = StepBuffers(*logits.shape, b_in) if bufs is None else bufs  # shape checked with norm
    if b_in:  # a label count error comes first; an empty label list has none
        ce, d_ce = ce_and_grad(logits[:b_in], id_labels, b.ce)
    if k < 2 or b_in < 1 or b_out < 1:
        raise InvalidInputError(
            f"need k >= 2, b_in >= 1, b_out >= 1, got k={k}, b_in={b_in}, b_out={b_out}")
    # Margins: class mass 1 (ID) and 0 (outliers), row mass k / b_in (ID) and
    # 0 (outliers). A mass is never negative, so the outlier hinges are the
    # masses themselves. h_s holds the hinge of every row, ID rows first.
    ids, outs = b.parts
    column_sums(norm[:b_in], out=ids.h_c)  # no entry of norm is -0.0
    column_sums(norm[b_in:], out=outs.h_c)
    np.maximum(0.0, np.subtract(1.0, ids.h_c, out=ids.h_c), out=ids.h_c)
    h_s = np.add.reduce(norm, axis=1, out=b.row_a)
    np.maximum(0.0, np.subtract(k / b_in, ids.h_s, out=ids.h_s), out=ids.h_s)
    sq_c = np.add.reduce(np.square(b.h_c), axis=1)
    np.square(h_s, out=b.row_b)
    dne_c = float(sq_c[0] + sq_c[1])
    dne_s = float(np.add.reduce(ids.r) / b_in + np.add.reduce(outs.r) / b_out)

    # dL/dF: the class term along each column plus the sample term r along each
    # row. Every hinge is >= +0, and 0.0 - x turns an ID entry of -0.0 into
    # +0.0, as the sum from zeros did.
    grad = b.grad
    b.h_c *= 2.0
    np.multiply(ids.h_s, 2.0 / b_in, out=ids.r)
    np.multiply(outs.h_s, 2.0 / b_out, out=outs.r)
    np.subtract(0.0, np.add(ids.h_c, ids.r_col, out=ids.grad), out=ids.grad)
    np.add(outs.h_c, outs.r_col, out=outs.grad)
    grad -= column_sums(np.multiply(grad, norm, out=b.prod))  # an outlier entry is >= +0
    grad *= norm
    ids.grad += d_ce
    return LossBreakdown(total=ce + dne_c + dne_s, ce=ce, dne_c=dne_c, dne_s=dne_s), grad
