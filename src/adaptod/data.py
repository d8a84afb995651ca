"""Synthetic long-tailed benchmark generation and the line-oriented sample-set
file format.

ID classes are isotropic Gaussian blobs with exponentially decaying train
counts. Auxiliary outliers sit on a shell outside the class means, optionally
leaving a cone of directions uncovered. True OOD samples come from a different
family: a Gaussian whose center keeps a guaranteed margin from every class
mean and moves further from the ID region as `shift` grows, by default in a
random direction, or along a caller-chosen one (see novel_direction) so the
cloud can occupy exactly the region the outliers never visited.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, LogitFileError

# provenance tags
ID_TRAIN = "id-train"
ID_TEST = "id-test"
OUTLIER = "outlier"
TRUE_OOD = "true-ood"


@dataclass(frozen=True)
class LongTailSpec:
    k: int
    n_max: int
    rho: float
    d: int
    seed: int
    class_scale: float = 1.0
    class_means: np.ndarray | None = None

    def __post_init__(self):
        if self.k < 2 or self.n_max < 1 or self.d < 1:
            raise InvalidInputError("need k >= 2, n_max >= 1, d >= 1")
        if not (math.isfinite(self.rho) and self.rho >= 1.0):
            raise InvalidInputError(f"imbalance ratio rho must be finite and >= 1, got {self.rho}")
        if not (math.isfinite(self.class_scale) and self.class_scale > 0):
            raise InvalidInputError(
                f"class_scale must be finite and positive, got {self.class_scale}")
        means = self.class_means
        if means is None:
            # Deterministic means from the spec seed, spread a few scales apart.
            rng = np.random.default_rng(self.seed)
            means = rng.normal(0.0, 3.0 * self.class_scale, size=(self.k, self.d))
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (self.k, self.d):
            raise InvalidInputError(f"class_means must have shape ({self.k}, {self.d})")
        means.setflags(write=False)
        object.__setattr__(self, "class_means", means)


@dataclass(frozen=True)
class SampleSet:
    features: np.ndarray
    labels: np.ndarray  # -1 for outlier / true-OOD samples
    provenance: str

    @property
    def n(self) -> int:
        return self.features.shape[0]


def class_counts(spec: LongTailSpec) -> list[int]:
    """Exponential-decay counts n_j = round(n_max * rho^{-(j-1)/(k-1)}), half up."""
    counts = []
    for j in range(spec.k):
        exact = spec.n_max * spec.rho ** (-j / (spec.k - 1))
        n_j = int(math.floor(exact + 0.5))
        if n_j < 1:
            raise InvalidInputError(
                f"class {j} would receive {n_j} samples; increase n_max or lower rho"
            )
        counts.append(n_j)
    return counts


def generate_long_tailed(spec: LongTailSpec, n_test_per_class: int = 50):
    """(id_train, id_test) Gaussian-blob sample sets; train counts follow the
    decay formula, test counts are balanced."""
    if n_test_per_class < 1:
        raise InvalidInputError(f"n_test_per_class must be >= 1, got {n_test_per_class}")
    counts = class_counts(spec)
    rng = np.random.default_rng(spec.seed + 1)
    feats, labels = [], []
    for j, n_j in enumerate(counts):
        feats.append(spec.class_means[j] + spec.class_scale * rng.standard_normal((n_j, spec.d)))
        labels.append(np.full(n_j, j))
    train = SampleSet(np.vstack(feats), np.concatenate(labels), ID_TRAIN)
    feats, labels = [], []
    for j in range(spec.k):
        feats.append(
            spec.class_means[j]
            + spec.class_scale * rng.standard_normal((n_test_per_class, spec.d))
        )
        labels.append(np.full(n_test_per_class, j))
    test = SampleSet(np.vstack(feats), np.concatenate(labels), ID_TEST)
    return train, test


def _mean_radius_bound(spec: LongTailSpec) -> float:
    return float(np.linalg.norm(spec.class_means, axis=1).max())


def axis_aligned_means(k: int, d: int, radius: float) -> np.ndarray:
    """Class means on the coordinate axes: class j sits at radius * e_{j mod d},
    flipping sign once the positive axes run out. Gives a fixed, well-separated
    layout whose geometry does not depend on the seed."""
    if k > 2 * d:
        raise InvalidInputError(f"axis-aligned layout supports at most 2*d={2 * d} classes")
    if radius <= 0:
        raise InvalidInputError("radius must be positive")
    means = np.zeros((k, d))
    for j in range(k):
        means[j, j % d] = radius if j < d else -radius
    return means


def novel_direction(d: int, head_tilt: float = 0.5) -> np.ndarray:
    """Unit direction for the unseen OOD population: a blend of the diagonal
    (equally far from every coordinate axis) and the first class axis.

    head_tilt=0 points straight down the diagonal; head_tilt=1 points at the
    first (most frequent) class. Intermediate values make the OOD cloud lean
    toward the head class, which is the regime where score calibration has
    work to do."""
    if not 0.0 <= head_tilt <= 1.0:
        raise InvalidInputError(f"head_tilt must lie in [0, 1], got {head_tilt}")
    u = (1.0 - head_tilt) * np.ones(d) / math.sqrt(d)
    u[0] += head_tilt
    return u / np.linalg.norm(u)


def generate_outliers(spec: LongTailSpec, n_out: int, *, avoid_direction=None,
                      max_cosine: float = 0.6, shell_gap: float | None = None,
                      shell_width: float | None = None) -> SampleSet:
    """Auxiliary outliers on a shell outside every class blob.

    The shell starts shell_gap beyond the farthest class mean and is
    shell_width thick (defaults: 6 and 2 class scales). When avoid_direction
    is given, directions within max_cosine of it are rejected, leaving a cone
    of the shell uncovered so that a later OOD population can live there."""
    if n_out < 1:
        raise InvalidInputError(f"n_out must be >= 1, got {n_out}")
    if shell_gap is None:
        shell_gap = 6.0 * spec.class_scale
    if shell_width is None:
        shell_width = 2.0 * spec.class_scale
    rng = np.random.default_rng(spec.seed + 2)
    r0 = _mean_radius_bound(spec) + shell_gap
    if avoid_direction is None:
        dirs = rng.standard_normal((n_out, spec.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    else:
        u = np.asarray(avoid_direction, dtype=np.float64)
        u = u / np.linalg.norm(u)
        kept: list[np.ndarray] = []
        n_kept = 0
        while n_kept < n_out:
            cand = rng.standard_normal((1024, spec.d))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand = cand[cand @ u < max_cosine]
            kept.append(cand)
            n_kept += cand.shape[0]
        dirs = np.vstack(kept)[:n_out]
    radius = r0 + rng.uniform(0.0, shell_width, size=n_out)
    return SampleSet(dirs * radius[:, None], np.full(n_out, -1), OUTLIER)


def true_ood_center(spec: LongTailSpec, shift: float, direction=None) -> np.ndarray:
    """Center of the true-OOD cloud: at least 2.5 class scales past the
    farthest class mean, growing with shift. The direction is seeded at random
    unless one is supplied."""
    if not (math.isfinite(shift) and shift > 0):
        raise InvalidInputError(f"shift must be finite and positive, got {shift}; "
                                "use generate_outliers for zero shift")
    if direction is None:
        rng = np.random.default_rng(spec.seed + 3)
        direction = rng.standard_normal(spec.d)
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    radius = _mean_radius_bound(spec) + (2.5 + shift) * spec.class_scale
    return direction * radius


def generate_true_ood(spec: LongTailSpec, n_ood: int, shift: float = 2.0, *,
                      direction=None) -> SampleSet:
    """True OOD: a Gaussian displaced from the ID region by `shift` class
    scales; differs from the outlier shell in both family and location.

    With the default random direction the cloud is anisotropic. With an
    explicit direction (see novel_direction) it is isotropic at one class
    scale, matching the ID blobs in spread but not in location."""
    if n_ood < 1:
        raise InvalidInputError(f"n_ood must be >= 1, got {n_ood}")
    center = true_ood_center(spec, shift, direction)
    rng = np.random.default_rng(spec.seed + 4)
    if direction is None:
        axis_scales = spec.class_scale * np.linspace(0.6, 1.8, spec.d)
    else:
        axis_scales = spec.class_scale * np.ones(spec.d)
    feats = center + rng.standard_normal((n_ood, spec.d)) * axis_scales
    return SampleSet(feats, np.full(n_ood, -1), TRUE_OOD)


# ---------------------------------------------------------------------------
# Sample-set files: header `k=<int>`, then one row `id,label,v1,...,vk` per
# sample. Values are written with repr, so float64 text round-trips exactly.
# ---------------------------------------------------------------------------


def write_sample_set(path, samples: SampleSet) -> None:
    features = np.asarray(samples.features, dtype=np.float64)
    labels = np.asarray(samples.labels, dtype=np.int64).tolist()
    with open(path, "w") as fh:
        fh.write(f"k={features.shape[1]}\n")
        fh.writelines(f"{i},{label},{','.join(map(repr, row))}\n"
                      for i, (label, row) in enumerate(zip(labels, features.tolist())))


def _line_error(path, lineno: int, message: str) -> LogitFileError:
    return LogitFileError(f"{path}: line {lineno}: {message}")


def read_sample_set(path, provenance: str) -> SampleSet:
    """Read a write_sample_set file. LogitFileError names the path and the line
    of a bad header, field count, int, float or non-finite value, and of a
    negative label in an ID set."""
    id_set = provenance in (ID_TRAIN, ID_TEST)
    labels, rows = [], []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("k=") or not header[2:].strip().isdigit():
            raise _line_error(path, 1, "missing or malformed `k=<int>` header")
        k = int(header[2:].strip())
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 2 + k:
                raise _line_error(path, lineno,
                                  f"expected {2 + k} comma-separated fields, got {len(parts)}")
            try:
                int(parts[0])
                label = int(parts[1])
                values = [float(p) for p in parts[2:]]
            except ValueError as exc:
                raise _line_error(path, lineno, str(exc)) from exc
            if not all(map(math.isfinite, values)):
                raise _line_error(path, lineno, "non-finite value")
            if label < 0 and id_set:
                raise _line_error(path, lineno, f"label {label} in an ID set")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise LogitFileError(f"{path}: sample-set file holds no rows")
    return SampleSet(np.array(rows, dtype=np.float64), np.array(labels), provenance)


def read_json_object(path) -> dict:
    """The JSON object stored at path (a checkpoint); LogitFileError if it is not one."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise LogitFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise LogitFileError(f"{path}: expected a JSON object")
    return payload


def json_field(payload: dict, key: str, path, convert):
    """convert(payload[key]); LogitFileError names the path and the key when
    the key is missing or convert raises TypeError or ValueError."""
    if key not in payload:
        raise LogitFileError(f"{path}: missing key {key!r}")
    try:
        return convert(payload[key])
    except (TypeError, ValueError) as exc:
        raise LogitFileError(f"{path}: bad {key!r}: {exc}") from exc


def float_array(value, shape) -> np.ndarray:
    """value as a finite float64 array of the given shape, else ValueError."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape or not np.isfinite(arr).all():
        raise ValueError(f"expected finite values of shape {shape}, got shape {arr.shape}")
    return arr
