"""The synthetic long-tailed benchmark and the line-oriented sample-set file
format.

ID classes are isotropic Gaussian blobs on the coordinate axes with
exponentially decaying train counts. Auxiliary outliers sit on a shell outside
the class means, leaving a cone of directions around the novel direction
uncovered. True OOD samples come from a different place: a Gaussian inside
that cone, leaning toward the head class, whose center keeps a guaranteed
margin from every class mean and moves further from the ID region as `shift`
grows. The outliers are thus distribution-shifted from the true OOD.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import POSITIVE, UNIT, DataError, InvalidInputError, check_int, check_real

# provenance tags
ID_TRAIN = "id-train"
ID_TEST = "id-test"
OUTLIER = "outlier"
TRUE_OOD = "true-ood"

CLASS_RADIUS = 4.0  # distance of every class mean from the origin
SHELL_GAP = 2.0  # the outlier shell starts this far beyond the class means
SHELL_WIDTH = 3.0  # and is this thick
MAX_COSINE = 0.6  # outlier directions keep a cosine below this to the novel direction
MAX_SET_VALUES = 2**25  # most values (rows x d) of a generated sample set: 256 MB of float64
AT_LEAST_ONE = (lambda v: 1.0 <= v < math.inf, "be finite and >= 1")  # the imbalance ratio rho


@dataclass(frozen=True)
class BenchmarkSpec:
    """Every setting of the synthetic benchmark; the defaults are those of
    `adaptod generate`. Every value is checked on construction."""

    k: int = 10
    n_max: int = 300
    rho: float = 100.0
    d: int = 8
    seed: int = 0
    class_scale: float = 0.6
    n_test_per_class: int = 40
    n_out: int = 600
    n_ood: int = 600
    shift: float = 2.5
    head_tilt: float = 0.7

    def __post_init__(self):
        for name, rule in (("k", 2), ("n_max", 1), ("rho", AT_LEAST_ONE), ("d", 1), ("seed", 0),
                           ("class_scale", POSITIVE), ("n_test_per_class", 1), ("n_out", 1),
                           ("n_ood", 1), ("shift", POSITIVE), ("head_tilt", UNIT)):
            check = check_int if isinstance(rule, int) else check_real  # an int rule is lo
            object.__setattr__(self, name, check(getattr(self, name), name, rule))  # ints as int
        if self.k > 2 * self.d:
            raise InvalidInputError(f"the axis-aligned layout holds at most 2*d={2 * self.d} "
                                    f"classes, got k={self.k}")
        for name, rows in (("n_max", self.k * self.n_max), ("n_out", self.n_out),
                           ("n_test_per_class", self.k * self.n_test_per_class),
                           ("n_ood", self.n_ood)):  # n_max bounds every class count
            if rows * self.d > MAX_SET_VALUES:
                raise InvalidInputError(
                    f"{name}={getattr(self, name)} makes a set of up to {rows} rows of "
                    f"d={self.d} values, more than MAX_SET_VALUES={MAX_SET_VALUES}")
        for j, n_j in enumerate(self.class_counts()):
            if n_j < 1:
                raise InvalidInputError(
                    f"class {j} would receive {n_j} samples at n_max={self.n_max}, "
                    f"rho={self.rho}; increase n_max or lower rho")

    def class_counts(self) -> list[int]:
        """Exponential-decay counts n_j = round(n_max * rho^{-(j-1)/(k-1)}), half up."""
        return [int(math.floor(self.n_max * self.rho ** (-j / (self.k - 1)) + 0.5))
                for j in range(self.k)]

    @property
    def class_means(self) -> np.ndarray:
        """Class j sits at CLASS_RADIUS * e_{j mod d}, flipping sign once the
        positive axes run out: a well-separated layout that does not depend on
        the seed."""
        means = np.zeros((self.k, self.d))
        for j in range(self.k):
            means[j, j % self.d] = CLASS_RADIUS if j < self.d else -CLASS_RADIUS
        return means

    @property
    def novel_direction(self) -> np.ndarray:
        """Unit direction of the unseen OOD population: a blend of the diagonal
        (equally far from every coordinate axis) and the first class axis.

        head_tilt=0 points straight down the diagonal; head_tilt=1 points at the
        first (most frequent) class. Intermediate values make the OOD cloud lean
        toward the head class, which is the regime where score calibration has
        work to do."""
        u = (1.0 - self.head_tilt) * np.ones(self.d) / math.sqrt(self.d)
        u[0] += self.head_tilt
        u /= np.linalg.norm(u)
        # Normalized a second time, which moves last bits for some d and
        # head_tilt, so that generated files stay bit-identical to earlier ones.
        return u / np.linalg.norm(u)


@dataclass(frozen=True)
class SampleSet:
    features: np.ndarray
    labels: np.ndarray  # -1 for outlier / true-OOD samples

    @property
    def n(self) -> int:
        return self.features.shape[0]


def generate_long_tailed(spec: BenchmarkSpec):
    """(id_train, id_test) Gaussian-blob sample sets; train counts follow the
    decay formula, test counts are balanced."""
    means = spec.class_means
    rng = np.random.default_rng(spec.seed + 1)
    sets = []
    for counts in (spec.class_counts(), [spec.n_test_per_class] * spec.k):
        feats = [means[j] + spec.class_scale * rng.standard_normal((n_j, spec.d))
                 for j, n_j in enumerate(counts)]
        labels = [np.full(n_j, j) for j, n_j in enumerate(counts)]
        sets.append(SampleSet(np.vstack(feats), np.concatenate(labels)))
    return tuple(sets)


def generate_outliers(spec: BenchmarkSpec) -> SampleSet:
    """Auxiliary outliers on a shell outside every class blob.

    The shell starts SHELL_GAP beyond the class means and is SHELL_WIDTH
    thick. Directions within MAX_COSINE of the novel direction are rejected,
    leaving a cone of the shell uncovered for the true OOD."""
    rng = np.random.default_rng(spec.seed + 2)
    u = spec.novel_direction
    kept: list[np.ndarray] = []
    n_kept = 0
    while n_kept < spec.n_out:
        cand = rng.standard_normal((1024, spec.d))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand = cand[cand @ u < MAX_COSINE]
        kept.append(cand)
        n_kept += cand.shape[0]
    dirs = np.vstack(kept)[:spec.n_out]
    radius = CLASS_RADIUS + SHELL_GAP + rng.uniform(0.0, SHELL_WIDTH, size=spec.n_out)
    return SampleSet(dirs * radius[:, None], np.full(spec.n_out, -1))


def true_ood_center(spec: BenchmarkSpec) -> np.ndarray:
    """Center of the true-OOD cloud, on the novel direction: at least 2.5
    class scales past the class means, growing with shift."""
    return spec.novel_direction * (CLASS_RADIUS + (2.5 + spec.shift) * spec.class_scale)


def generate_true_ood(spec: BenchmarkSpec) -> SampleSet:
    """True OOD: an isotropic Gaussian at one class scale around
    true_ood_center, matching the ID blobs in spread but not in location."""
    feats = np.random.default_rng(spec.seed + 4).standard_normal((spec.n_ood, spec.d))
    feats *= spec.class_scale  # in place: one array of n_ood rows at a time
    feats += true_ood_center(spec)
    return SampleSet(feats, np.full(spec.n_ood, -1))


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


def _line_error(path, lineno: int, message: str) -> DataError:
    return DataError(f"{path}: line {lineno}: {message}")


def read_sample_set(path, provenance: str) -> SampleSet:
    """Read a write_sample_set file in one np.loadtxt parse; where it or an array check
    fails, _read_lines names the line. An ID set's provenance tag refuses negative
    labels. A non-UTF-8 byte reads as a non-number. A MemoryError of either parse
    is a DataError that names the file."""
    id_set = provenance in (ID_TRAIN, ID_TEST)
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            header = fh.readline()
            if not header.startswith("k=") or not header[2:].strip().isdecimal():
                raise _line_error(path, 1, "missing or malformed `k=<int>` header")
            k = int(header[2:].strip())
            if k < 1:
                raise _line_error(path, 1, f"header k={k}: a sample needs at least one value")
            try:  # a row holds over 2k characters, and loadtxt allocates by k alone
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # input contained no data
                    rows = None if os.fstat(fh.fileno()).st_size <= 2 * k else np.loadtxt(
                        fh, delimiter=",", comments=None, ndmin=1, dtype=[
                            ("id", np.int64), ("label", np.int64), ("values", np.float64, (k,))])
            except (ValueError, OverflowError):
                rows = None
        if (rows is not None and rows.size and np.isfinite(rows["values"]).all()
                and not (id_set and (rows["label"] < 0).any())):
            return SampleSet(rows["values"].copy(), rows["label"].copy())
        return _read_lines(path, k, id_set)
    except MemoryError as exc:
        raise DataError(f"{path}: out of memory while parsing the file") from exc


def _read_lines(path, k: int, id_set: bool) -> SampleSet:
    """Name the line of a bad field count, int, float, non-finite value, label beyond
    int64 or negative ID-set label; or read whitespace-only lines loadtxt rejects."""
    labels, rows = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        fh.readline()  # the header, checked by read_sample_set
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 2 + k:
                raise _line_error(path, lineno,
                                  f"expected {2 + k} comma-separated fields, got {len(parts)}")
            try:
                int(parts[0])
                label = np.int64(int(parts[1]))
                values = [float(p) for p in parts[2:]]
            except (ValueError, OverflowError) as exc:  # OverflowError: a label beyond int64
                raise _line_error(path, lineno, str(exc)) from exc
            if not all(map(math.isfinite, values)):
                raise _line_error(path, lineno, "non-finite value")
            if label < 0 and id_set:
                raise _line_error(path, lineno, f"label {label} in an ID set")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: sample-set file holds no rows")
    return SampleSet(np.array(rows, dtype=np.float64), np.array(labels))
