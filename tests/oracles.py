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
# The per-row loops that fitted the energy statistics, initialized the outlier
# distribution and filled the energy histograms before they ran on whole
# matrices: per row a max shift, np.exp and a sum, with the overflow guard and
# the scale factor through math.log and math.exp. Same float ops, so the
# vectorized forms must match them exactly.

LOG_FLOAT_MAX = math.log(sys.float_info.max)


def rowwise_global_energies(rows):
    """Sum of exp(f_j) per row; OverflowError past float64 range."""
    out = []
    for v in np.asarray(rows, dtype=float):
        m = float(v.max())
        total = float(np.exp(v - m).sum())
        if m + math.log(total) >= LOG_FLOAT_MAX:
            raise OverflowError("global energy exceeds float64 range")
        value = math.exp(m) * total
        if not math.isfinite(value):
            raise OverflowError("global energy exceeds float64 range")
        out.append(value)
    return np.array(out)


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
# the same order, so the fused step must match them exactly. `cfg` is read only
# for its geometry, margins and dne_weight.


def prefusion_hinges(id_rows, out_rows, cfg):
    rows = np.vstack([id_rows, out_rows])
    shifted = rows - rows.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    norm = e / e.sum(axis=0, keepdims=True)
    b_in = len(id_rows)
    c_in = norm[:b_in].sum(axis=0)
    c_out = norm[b_in:].sum(axis=0)
    s = norm.sum(axis=1)
    h_c_in = np.maximum(0.0, cfg.m_in_c - c_in)
    h_c_out = np.maximum(0.0, c_out - cfg.m_out_c)
    h_s_in = np.maximum(0.0, cfg.m_in_s - s[:b_in])
    h_s_out = np.maximum(0.0, s[b_in:] - cfg.m_out_s)
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


def prefusion_total_loss(id_rows, out_rows, labels, cfg):
    """(total, ce, dne_c, dne_s), one normalization per energy term."""
    ce = prefusion_cross_entropy(id_rows, labels)
    _, h_c_in, h_c_out, _, _ = prefusion_hinges(id_rows, out_rows, cfg)
    c = cfg.dne_weight * float((h_c_in**2).sum() + (h_c_out**2).sum())
    _, _, _, h_s_in, h_s_out = prefusion_hinges(id_rows, out_rows, cfg)
    s = cfg.dne_weight * float((h_s_in**2).mean() + (h_s_out**2).mean())
    return ce + c + s, ce, c, s


def prefusion_total_loss_grad(id_rows, out_rows, labels, cfg):
    norm, h_c_in, h_c_out, h_s_in, h_s_out = prefusion_hinges(id_rows, out_rows, cfg)
    b_in, b_out = len(id_rows), len(out_rows)
    g_f = np.zeros_like(norm)
    g_f[:b_in] += -2.0 * h_c_in[None, :]
    g_f[b_in:] += 2.0 * h_c_out[None, :]
    g_f[:b_in] += (-2.0 / b_in) * h_s_in[:, None]
    g_f[b_in:] += (2.0 / b_out) * h_s_out[:, None]
    g_f *= cfg.dne_weight
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


def per_record_read(path):
    """(features, labels) of a well-formed sample-set file, one record at a time."""
    records = []
    with open(path) as fh:
        k = int(fh.readline()[2:].strip())
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            assert len(parts) == 2 + k
            values = np.asarray([float(p) for p in parts[2:]], dtype=np.float64)
            records.append((int(parts[0]), int(parts[1]), values))
    return np.vstack([r[2] for r in records]), np.asarray([r[1] for r in records])


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
