"""Independent brute-force oracles used to cross-check the library.

Everything here is written as a direct, naive transcription of the defining
formulas (loops, O(n^2) pair counts, exhaustive scans, finite differences) and
deliberately shares no code with the package under test.
"""

import math
import sys

import numpy as np


# --- streaming statistics -------------------------------------------------


def mean_std_threshold(energies, alpha):
    """Single-pass mean, n-1 std, and mu - alpha * sigma."""
    n = len(energies)
    mu = sum(energies) / n
    var = sum((e - mu) ** 2 for e in energies) / (n - 1)
    sigma = math.sqrt(var)
    return mu, sigma, mu - alpha * sigma


def running_mean_closed_form(v0, m0, accepted_exp_rows):
    """Closed form of the momentum recurrence: weighted mean of the
    initialization (weight m0) and every accepted exp(f) row."""
    total = m0 * np.asarray(v0, dtype=float)
    for row in accepted_exp_rows:
        total = total + np.asarray(row, dtype=float)
    return total / (m0 + len(accepted_exp_rows))


def prefix_mean_stream(exp_rows, accepted, p0, m0):
    """Scores and final P of a stream whose accepted samples are given. P_t is
    the weighted mean of P0 (weight m0) and the accepted exp(f) rows up to and
    including sample t, or P0 while that weight is 0; the score of sample t is
    sum_j exp(f_tj) / (1 + P_tj)."""
    p = np.asarray(p0, dtype=float)
    total, count = m0 * p, m0
    scores = []
    for ef, acc in zip(exp_rows, accepted):
        if acc:
            total, count = total + ef, count + 1
            p = total / count
        scores.append(sum(e / (1.0 + pj) for e, pj in zip(ef, p)))
    return np.array(scores), p


# --- per-row energies (bit-exact reference) ---------------------------------
#
# The per-row energy functions and loops that scored streams, fitted the
# energy statistics, initialized the outlier distribution and filled the
# energy histograms before they ran on whole matrices: per row a max shift,
# np.exp and a sum, with the overflow guard and the scale factor through
# math.log and math.exp. Same float ops, so the vectorized forms must match
# them exactly.

LOG_FLOAT_MAX = math.log(sys.float_info.max)


def calibrated_energy(logits, p_out):
    """sum_j exp(f_j) / (1 + p_j) of one logit vector; OverflowError when
    exp(max f) or the value is past float64 range."""
    v = np.asarray(logits, dtype=float)
    m = float(v.max())
    total = float((np.exp(v - m) / (1.0 + np.asarray(p_out, dtype=float))).sum())
    if m >= LOG_FLOAT_MAX or m + math.log(total) >= LOG_FLOAT_MAX:
        raise OverflowError("calibrated energy exceeds float64 range")
    value = math.exp(m) * total
    if not math.isfinite(value):
        raise OverflowError("calibrated energy exceeds float64 range")
    return value


def global_energy(logits):
    """sum_j exp(f_j) of one logit vector: calibrated_energy under p = 0, whose
    terms are divided by exactly 1."""
    return calibrated_energy(logits, np.zeros(np.shape(logits)[-1]))


def rowwise_global_energies(rows):
    """global_energy of each row."""
    return np.array([global_energy(v) for v in np.asarray(rows, dtype=float)])


def rowwise_exp_mean(rows):
    """Per-class mean of exp(f_j) over the rows, stacked one row at a time."""
    return np.vstack([np.exp(v) for v in np.asarray(rows, dtype=float)]).mean(axis=0)


# --- DNE loss, term by term -----------------------------------------------


def naive_normalize(rows):
    rows = np.asarray(rows, dtype=float)
    n, k = rows.shape
    out = np.zeros((n, k))
    for j in range(k):
        denom = sum(math.exp(rows[i, j]) for i in range(n))
        for i in range(n):
            out[i, j] = math.exp(rows[i, j]) / denom
    return out

def naive_dne_c(id_rows, out_rows, m_in_c, m_out_c):
    norm = naive_normalize(np.vstack([id_rows, out_rows]))
    b_in = len(id_rows)
    total = 0.0
    for j in range(norm.shape[1]):
        c_in = sum(norm[i, j] for i in range(b_in))
        c_out = sum(norm[i, j] for i in range(b_in, norm.shape[0]))
        total += max(0.0, m_in_c - c_in) ** 2 + max(0.0, c_out - m_out_c) ** 2
    return total


def naive_dne_s(id_rows, out_rows, m_in_s, m_out_s):
    norm = naive_normalize(np.vstack([id_rows, out_rows]))
    b_in, b_out = len(id_rows), len(out_rows)
    id_term = sum(
        max(0.0, m_in_s - sum(norm[i, j] for j in range(norm.shape[1]))) ** 2
        for i in range(b_in)
    ) / b_in
    out_term = sum(
        max(0.0, sum(norm[i, j] for j in range(norm.shape[1])) - m_out_s) ** 2
        for i in range(b_in, b_in + b_out)
    ) / b_out
    return id_term + out_term


def naive_cross_entropy(rows, labels):
    rows = np.asarray(rows, dtype=float)
    total = 0.0
    for row, y in zip(rows, labels):
        z = sum(math.exp(v) for v in row)
        total += math.log(z) - row[y]
    return total / len(labels)


# --- the training step before fusion (bit-exact reference) -------------------
#
# The three-pass DNE step and the stage-1 cross-entropy step as they ran before
# loss and gradient shared one normalization and one softmax. Same float ops in
# the same order, so the fused step must match them exactly. `margins` is
# (m_in_c, m_out_c, m_in_s, m_out_s); the loss fixes them at
# default_margins(k, b_in).


def default_margins(k, b_in):
    """Class mass 1 (ID) and 0 (outliers), row mass k / b_in (ID) and 0
    (outliers): fixed by the batch geometry alone."""
    return 1.0, 0.0, k / b_in, 0.0


def prefusion_hinges(id_rows, out_rows, margins):
    m_in_c, m_out_c, m_in_s, m_out_s = margins
    rows = np.vstack([id_rows, out_rows])
    shifted = rows - rows.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    norm = e / e.sum(axis=0, keepdims=True)
    b_in = len(id_rows)
    c_in = norm[:b_in].sum(axis=0)
    c_out = norm[b_in:].sum(axis=0)
    s = norm.sum(axis=1)
    h_c_in = np.maximum(0.0, m_in_c - c_in)
    h_c_out = np.maximum(0.0, c_out - m_out_c)
    h_s_in = np.maximum(0.0, m_in_s - s[:b_in])
    h_s_out = np.maximum(0.0, s[b_in:] - m_out_s)
    return norm, h_c_in, h_c_out, h_s_in, h_s_out


def prefusion_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def prefusion_cross_entropy(id_logits, labels):
    shifted = id_logits - id_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(id_logits.shape[0])
    return float((log_z - shifted[rows, labels]).mean())


def prefusion_total_loss(id_rows, out_rows, labels, margins):
    """(total, ce, dne_c, dne_s), one normalization per energy term."""
    ce = prefusion_cross_entropy(id_rows, labels)
    _, h_c_in, h_c_out, _, _ = prefusion_hinges(id_rows, out_rows, margins)
    c = float((h_c_in**2).sum() + (h_c_out**2).sum())
    _, _, _, h_s_in, h_s_out = prefusion_hinges(id_rows, out_rows, margins)
    s = float((h_s_in**2).mean() + (h_s_out**2).mean())
    return ce + c + s, ce, c, s


def prefusion_total_loss_grad(id_rows, out_rows, labels, margins):
    norm, h_c_in, h_c_out, h_s_in, h_s_out = prefusion_hinges(id_rows, out_rows, margins)
    b_in, b_out = len(id_rows), len(out_rows)
    g_f = np.zeros_like(norm)
    g_f[:b_in] += -2.0 * h_c_in[None, :]
    g_f[b_in:] += 2.0 * h_c_out[None, :]
    g_f[:b_in] += (-2.0 / b_in) * h_s_in[:, None]
    g_f[b_in:] += (2.0 / b_out) * h_s_out[:, None]
    grad = norm * (g_f - (g_f * norm).sum(axis=0, keepdims=True))
    p = prefusion_softmax(id_rows)
    p[np.arange(b_in), labels] -= 1.0
    grad[:b_in] += p / b_in
    return grad


def prefusion_ce_step(logits, labels):
    """Stage-1 loss and upstream gradient: cross_entropy, then a second softmax."""
    ce = prefusion_cross_entropy(logits, labels)
    p = prefusion_softmax(logits)
    p[np.arange(len(labels)), labels] -= 1.0
    return ce, p / len(labels)


# --- the per-layer training loop (bit-exact reference) ----------------------
#
# The two-stage loop as it ran on per-layer weight and bias arrays: a velocity
# array per layer, each layer updated and checked for finiteness in turn, and
# the pre-fusion loss above. The flat-vector loop runs the same float ops on
# every entry, so its parameters and loss log must match these bit for bit.


class Diverged(Exception):
    """The loop stopped at step on a non-finite loss, logit or parameter."""

    def __init__(self, step):
        super().__init__(f"diverged at step {step}")
        self.step = step


def _layer_forward(weights, biases, x):
    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        if i < len(weights) - 1:
            z = np.maximum(z, 0.0)
        acts.append(z)
    return acts


def _layer_backward(weights, acts, g, first_layer):
    d_ws, d_bs = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, first_layer - 1, -1):
        d_ws[i] = acts[i].T @ g
        d_bs[i] = g.sum(axis=0)
        if i > first_layer:
            g = g @ weights[i].T
            g = g * (acts[i] > 0.0)
    return d_ws, d_bs


def per_layer_train(weights, biases, id_x, id_y, outlier_x, cfg):
    """(weights, biases, [(total, ce, dne_c, dne_s) per epoch]) of the
    two-stage loop under a TrainConfig; raises Diverged."""
    weights = [np.array(w, dtype=float) for w in weights]
    biases = [np.array(b, dtype=float) for b in biases]
    id_x, id_y = np.asarray(id_x, dtype=float), np.asarray(id_y, dtype=np.intp)
    outlier_x = np.asarray(outlier_x, dtype=float)
    n_layers, n = len(weights), id_x.shape[0]
    rng = np.random.default_rng(cfg.seed)
    log = []
    b_in = min(cfg.b_in, n)
    steps_per_epoch = max(1, n // b_in)

    def lr_at(step, total_steps, lr0):
        return lr0 * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))

    def sgd(d_ws, d_bs, vel_w, vel_b, lr, step):
        for i in range(n_layers):  # layer by layer: W, b, then the check
            if d_ws[i] is None:
                continue
            vel_w[i] = cfg.momentum * vel_w[i] - lr * d_ws[i]
            vel_b[i] = cfg.momentum * vel_b[i] - lr * d_bs[i]
            weights[i] += vel_w[i]
            biases[i] += vel_b[i]
            if not (np.isfinite(weights[i]).all() and np.isfinite(biases[i]).all()):
                raise Diverged(step)

    total_steps = max(1, cfg.epochs_pretrain * steps_per_epoch)
    vel_w, vel_b = [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
    step = 0
    for _ in range(cfg.epochs_pretrain):
        order = rng.permutation(n)
        epoch_ce = []
        for s in range(steps_per_epoch):
            idx = order[s * b_in:(s + 1) * b_in]
            acts = _layer_forward(weights, biases, id_x[idx])
            ce, grad = prefusion_ce_step(acts[-1], id_y[idx])
            if not np.isfinite(ce):
                raise Diverged(step)
            sgd(*_layer_backward(weights, acts, grad, 0), vel_w, vel_b,
                lr_at(step, total_steps, cfg.lr_pretrain), step)
            step += 1
            epoch_ce.append(ce)
        mean_ce = float(np.mean(epoch_ce))
        log.append((mean_ce, mean_ce, 0.0, 0.0))

    if cfg.epochs_finetune > 0:
        b_out = min(cfg.b_out, outlier_x.shape[0])
        total_steps = cfg.epochs_finetune * steps_per_epoch
        vel_w, vel_b = [np.zeros_like(w) for w in weights], [np.zeros_like(b) for b in biases]
        first = 0 if cfg.finetune_all_layers else n_layers - 1
        step = 0
        for _ in range(cfg.epochs_finetune):
            order = rng.permutation(n)
            terms = []
            for s in range(steps_per_epoch):
                idx = order[s * b_in:(s + 1) * b_in]
                out_idx = rng.choice(outlier_x.shape[0], size=b_out, replace=False)
                acts = _layer_forward(weights, biases,
                                      np.vstack([id_x[idx], outlier_x[out_idx]]))
                if not np.isfinite(acts[-1]).all():
                    raise Diverged(step)
                id_rows, out_rows = acts[-1][:len(idx)], acts[-1][len(idx):]
                margins = default_margins(acts[-1].shape[1], len(idx))
                loss = prefusion_total_loss(id_rows, out_rows, id_y[idx], margins)
                if not np.isfinite(loss[0]):
                    raise Diverged(step)
                grad = prefusion_total_loss_grad(id_rows, out_rows, id_y[idx], margins)
                sgd(*_layer_backward(weights, acts, grad, first), vel_w, vel_b,
                    lr_at(step, total_steps, cfg.lr_finetune), step)
                step += 1
                terms.append(loss)
            log.append(tuple(float(np.mean([t[j] for t in terms])) for j in range(4)))
    return weights, biases, log


# --- sample-set files ------------------------------------------------------


def per_record_write(path, features, labels):
    """The `k=<int>` header and `id,label,v1,...,vk` rows, written one record
    at a time with one repr per value."""
    features = np.asarray(features, dtype=np.float64)
    records = [(i, int(lbl), row) for i, (row, lbl) in enumerate(zip(features, labels))]
    with open(path, "w") as fh:
        fh.write(f"k={features.shape[1]}\n")
        for sample_id, label, row in records:
            vals = ",".join(repr(float(x)) for x in row)
            fh.write(f"{sample_id},{label},{vals}\n")


def line_by_line_read(path, id_set=False):
    """(features, labels) of a sample-set file, read one line at a time the
    way the reader did before it parsed the body in one call. A malformed file
    raises ValueError whose message names the path and the line as that
    reader's LogitFileError did. Labels keep Python's unbounded ints."""
    def line_error(lineno, message):
        return ValueError(f"{path}: line {lineno}: {message}")

    labels, rows = [], []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("k=") or not header[2:].strip().isdigit():
            raise line_error(1, "missing or malformed `k=<int>` header")
        k = int(header[2:].strip())
        if k < 1:
            raise line_error(1, f"header k={k}: a sample needs at least one value")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 2 + k:
                raise line_error(lineno,
                                 f"expected {2 + k} comma-separated fields, got {len(parts)}")
            try:
                int(parts[0])
                label = int(parts[1])
                values = [float(p) for p in parts[2:]]
            except ValueError as exc:
                raise line_error(lineno, str(exc)) from exc
            if not all(map(math.isfinite, values)):
                raise line_error(lineno, "non-finite value")
            if label < 0 and id_set:
                raise line_error(lineno, f"label {label} in an ID set")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: sample-set file holds no rows")
    return np.array(rows, dtype=np.float64), np.array(labels)


# --- finite differences ----------------------------------------------------


def central_difference(f, x, rel_step=1e-5):
    """Entry-wise central difference with step h = rel_step * (1 + |x|)."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        h = rel_step * (1.0 + abs(x[idx]))
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, floor=1e-6):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


# --- naive MLP forward ------------------------------------------------------


def naive_forward(weights, biases, inputs):
    """Per-neuron loop re-implementation of the ReLU MLP forward pass."""
    rows = []
    for x in np.asarray(inputs, dtype=float):
        act = list(x)
        for layer, (w, b) in enumerate(zip(weights, biases)):
            nxt = []
            for j in range(w.shape[1]):
                z = b[j]
                for i in range(w.shape[0]):
                    z += act[i] * w[i, j]
                if layer < len(weights) - 1:
                    z = max(z, 0.0)
                nxt.append(z)
            act = nxt
        rows.append(act)
    return np.asarray(rows)


# --- metric oracles ----------------------------------------------------------


def pair_count_auroc(id_scores, ood_scores):
    numer = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                numer += 1.0
            elif a == b:
                numer += 0.5
    return numer / (len(id_scores) * len(ood_scores))


def rank_walk_ap(scores, is_positive):
    """Step AP: walk ranks in descending score order (ties by input order)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    terms = []
    for rank, idx in enumerate(order, start=1):
        if is_positive[idx]:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / sum(1 for p in is_positive if p)


def threshold_scan_fpr(id_scores, ood_scores, tpr_target):
    """Largest threshold (over all distinct scores) keeping ID TPR >= target."""
    best_t = None
    for t in sorted(set(list(id_scores) + list(ood_scores))):
        tpr = sum(1 for s in id_scores if s >= t) / len(id_scores)
        if tpr >= tpr_target:
            best_t = t
    fpr = sum(1 for s in ood_scores if s >= best_t) / len(ood_scores)
    return fpr


# --- long-tail counts --------------------------------------------------------


def exact_counts(n_max, rho, k):
    """Arbitrary-precision recomputation of the decay formula with half-up rounding."""
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    counts = []
    ln_rho = Decimal(rho).ln()
    for j in range(k):
        exact = Decimal(n_max) * (-ln_rho * Decimal(j) / Decimal(k - 1)).exp()
        counts.append(int((exact + Decimal("0.5")).to_integral_value(rounding="ROUND_FLOOR")))
    return counts
