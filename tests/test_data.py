import hashlib

import numpy as np
import pytest

from adaptod.data import (
    ID_TEST,
    ID_TRAIN,
    OUTLIER,
    TRUE_OOD,
    LongTailSpec,
    SampleSet,
    axis_aligned_means,
    class_counts,
    generate_long_tailed,
    generate_outliers,
    generate_true_ood,
    novel_direction,
    read_sample_set,
    true_ood_center,
    write_sample_set,
)
from adaptod.errors import InvalidInputError, LogitFileError

from oracles import exact_counts, per_record_read, per_record_write


def default_spec(seed=0, **overrides):
    params = dict(k=10, n_max=1000, rho=100.0, d=8, seed=seed)
    params.update(overrides)
    return LongTailSpec(**params)


class TestClassCounts:
    def test_formula_endpoints(self):
        counts = class_counts(default_spec())
        assert counts[0] == 1000
        assert counts[-1] == 10

    def test_no_decay_when_balanced(self):
        counts = class_counts(default_spec(rho=1.0))
        assert counts == [1000] * 10

    def test_matches_arbitrary_precision_recompute(self):
        counts = class_counts(default_spec())
        assert counts == exact_counts(1000, 100, 10)

    def test_invalid_rho(self):
        with pytest.raises(InvalidInputError):
            default_spec(rho=0.5)

    def test_class_starved_out(self):
        with pytest.raises(InvalidInputError):
            class_counts(default_spec(n_max=2, rho=100.0))


class TestGenerators:
    def test_train_counts_follow_formula(self):
        spec = default_spec(n_max=200)
        train, test = generate_long_tailed(spec, n_test_per_class=10)
        counts = class_counts(spec)
        for j in range(spec.k):
            assert (train.labels == j).sum() == counts[j]
        assert train.provenance == ID_TRAIN

    def test_test_set_is_balanced(self):
        _, test = generate_long_tailed(default_spec(n_max=100), n_test_per_class=7)
        for j in range(10):
            assert (test.labels == j).sum() == 7
        assert test.provenance == ID_TEST

    def test_determinism(self):
        spec = default_spec(n_max=50)
        a, _ = generate_long_tailed(spec)
        b, _ = generate_long_tailed(spec)
        assert np.array_equal(a.features, b.features)
        out_a = generate_outliers(spec, 40)
        out_b = generate_outliers(spec, 40)
        assert np.array_equal(out_a.features, out_b.features)

    def test_outlier_labels_and_counts(self):
        out = generate_outliers(default_spec(n_max=50), 33)
        assert out.n == 33
        assert (out.labels == -1).all()
        assert out.provenance == OUTLIER

    def test_n_out_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            generate_outliers(default_spec(n_max=50), 0)

    def test_zero_shift_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_true_ood(default_spec(n_max=50), 10, shift=0.0)

    def test_true_ood_center_keeps_margin_from_class_means(self):
        for seed in range(5):
            spec = default_spec(seed=seed, n_max=50)
            center = true_ood_center(spec, shift=2.0)
            dists = np.linalg.norm(spec.class_means - center, axis=1)
            assert dists.min() > 2.0 * spec.class_scale

    def test_outlier_to_true_ood_distance_grows_with_shift(self):
        spec = default_spec(n_max=50)
        out = generate_outliers(spec, 300)
        mean_dists = []
        for shift in (1.0, 2.0, 4.0):
            ood = generate_true_ood(spec, 300, shift=shift)
            d = np.linalg.norm(
                out.features[:, None, :] - ood.features[None, :, :], axis=2
            ).mean()
            mean_dists.append(d)
        assert mean_dists[0] < mean_dists[1] < mean_dists[2]

    def test_true_ood_provenance(self):
        ood = generate_true_ood(default_spec(n_max=50), 5, shift=1.0)
        assert ood.provenance == TRUE_OOD
        assert (ood.labels == -1).all()


class TestFixedGeometry:
    def test_axis_means_norms_and_orthogonality(self):
        means = axis_aligned_means(10, 8, 4.0)
        assert means.shape == (10, 8)
        assert np.allclose(np.linalg.norm(means, axis=1), 4.0)
        # classes 8 and 9 reuse the first two axes with the opposite sign
        assert np.allclose(means[8], -means[0])
        assert np.allclose(means[9], -means[1])

    def test_axis_means_reject_too_many_classes(self):
        with pytest.raises(InvalidInputError):
            axis_aligned_means(17, 8, 4.0)
        with pytest.raises(InvalidInputError):
            axis_aligned_means(4, 8, 0.0)

    def test_novel_direction_endpoints(self):
        d = 8
        diag = novel_direction(d, 0.0)
        assert np.allclose(diag, np.ones(d) / np.sqrt(d))
        head = novel_direction(d, 1.0)
        assert np.allclose(head, np.eye(d)[0])

    def test_novel_direction_tilt_moves_toward_head_axis(self):
        cosines = [novel_direction(8, t)[0] for t in (0.0, 0.3, 0.6, 0.9)]
        assert all(a < b for a, b in zip(cosines, cosines[1:]))
        for t in (0.0, 0.3, 0.6, 0.9):
            assert np.isclose(np.linalg.norm(novel_direction(8, t)), 1.0)

    def test_novel_direction_range_check(self):
        with pytest.raises(InvalidInputError):
            novel_direction(8, 1.5)

    def test_outlier_cone_is_empty(self):
        spec = default_spec(n_max=50)
        u = novel_direction(spec.d, 0.7)
        out = generate_outliers(spec, 200, avoid_direction=u, max_cosine=0.6)
        dirs = out.features / np.linalg.norm(out.features, axis=1, keepdims=True)
        assert (dirs @ u < 0.6).all()
        assert out.n == 200

    def test_outlier_shell_bounds_respected(self):
        spec = default_spec(n_max=50)
        rmax = np.linalg.norm(spec.class_means, axis=1).max()
        out = generate_outliers(spec, 300, shell_gap=2.0, shell_width=3.0)
        radii = np.linalg.norm(out.features, axis=1)
        assert (radii >= rmax + 2.0 - 1e-9).all()
        assert (radii <= rmax + 5.0 + 1e-9).all()

    def test_directional_ood_center_on_requested_ray(self):
        spec = default_spec(n_max=50)
        u = novel_direction(spec.d, 0.7)
        center = true_ood_center(spec, 2.5, direction=u)
        assert np.allclose(center / np.linalg.norm(center), u)

    def test_directional_ood_is_deterministic(self):
        spec = default_spec(n_max=50)
        u = novel_direction(spec.d, 0.7)
        a = generate_true_ood(spec, 50, 2.5, direction=u)
        b = generate_true_ood(spec, 50, 2.5, direction=u)
        assert np.array_equal(a.features, b.features)


def sample_set(features, labels, provenance=OUTLIER):
    return SampleSet(np.asarray(features, dtype=np.float64), np.asarray(labels), provenance)


def edge_case_set(rng, n, k):
    """Random rows with -0.0, subnormals and +-1e300 mixed in, labels from -1."""
    feats = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-5, 5, (n, 1))
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1.7976931348623157e308])
    mask = rng.random((n, k)) < 0.2
    feats[mask] = rng.choice(specials, mask.sum())
    return sample_set(feats, rng.integers(-1, 5, n))


class TestLogitFiles:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        written = sample_set(rng.standard_normal((1000, 4)) * 100, rng.integers(-1, 5, 1000))
        path = tmp_path / "logits.csv"
        write_sample_set(path, written)
        loaded = read_sample_set(path, OUTLIER)
        assert loaded.n == 1000
        assert np.array_equal(loaded.labels, written.labels)
        assert np.array_equal(loaded.features, written.features)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_per_record_format_byte_for_byte(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        written = edge_case_set(rng, int(rng.integers(1, 300)), int(rng.integers(1, 12)))
        path, want = tmp_path / "arrays.csv", tmp_path / "records.csv"
        write_sample_set(path, written)
        per_record_write(want, written.features, written.labels)
        assert hashlib.sha256(path.read_bytes()).digest() == \
            hashlib.sha256(want.read_bytes()).digest()
        want_features, want_labels = per_record_read(want)
        loaded = read_sample_set(path, OUTLIER)
        assert np.array_equal(loaded.features, want_features)
        assert np.array_equal(loaded.labels, want_labels)
        assert np.array_equal(np.signbit(loaded.features), np.signbit(written.features))
        assert loaded.features.dtype == want_features.dtype
        assert loaded.labels.dtype == want_labels.dtype

    def test_empty_body_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k=3\n\n")
        with pytest.raises(LogitFileError, match=f"{path}: sample-set file holds no rows"):
            read_sample_set(path, OUTLIER)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("k=2\n\n0,1,0.5,2.0\n  \n1,-1,3.0,4.0\n")
        loaded = read_sample_set(path, OUTLIER)
        assert np.array_equal(loaded.features, [[0.5, 2.0], [3.0, 4.0]])
        assert np.array_equal(loaded.labels, [1, -1])

    def test_row_width_mismatch_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k=3\n0,1,0.5,0.5,0.5\n1,0,0.1,0.2,0.3,0.4\n")
        with pytest.raises(LogitFileError, match="line 3"):
            read_sample_set(path, OUTLIER)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("0,1,0.5\n")
        with pytest.raises(LogitFileError, match="line 1"):
            read_sample_set(path, OUTLIER)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("k=2\n0,1,0.5,oops\n")
        with pytest.raises(LogitFileError, match="line 2"):
            read_sample_set(path, OUTLIER)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        path = tmp_path / "inf.csv"
        path.write_text(f"k=2\n0,1,0.5,1.0\n1,1,{value},1.0\n")
        with pytest.raises(LogitFileError, match="line 3: non-finite value"):
            read_sample_set(path, OUTLIER)

    @pytest.mark.parametrize("text, line, message", [
        pytest.param("k=x\n0,1,0.5\n", 1, "malformed `k=<int>` header", id="header"),
        pytest.param("k=1\n0,1,0.5\n1,1\n", 3, "expected 3 comma-separated fields, got 2",
                     id="field-count"),
        pytest.param("k=1\n0.5,1,0.5\n", 2, "invalid literal for int", id="bad-id"),
        pytest.param("k=1\n0,x,0.5\n", 2, "invalid literal for int", id="bad-label"),
        pytest.param("k=1\n0,1,x\n", 2, "could not convert string to float", id="bad-float"),
        pytest.param("k=1\n0,1,nan\n", 2, "non-finite value", id="non-finite"),
    ])
    def test_every_error_names_the_path_and_the_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(LogitFileError) as info:
            read_sample_set(path, OUTLIER)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("provenance", [ID_TRAIN, ID_TEST])
    def test_negative_label_in_an_id_set(self, tmp_path, provenance):
        path = tmp_path / "id.csv"
        path.write_text("k=1\n0,0,0.5\n1,2,0.5\n2,-3,0.5\n")
        with pytest.raises(LogitFileError, match=f"{path}: line 4: label -3 in an ID set"):
            read_sample_set(path, provenance)

    def test_sample_set_round_trip(self, tmp_path):
        spec = default_spec(n_max=30, rho=10.0)
        train, _ = generate_long_tailed(spec, n_test_per_class=5)
        path = tmp_path / "train.csv"
        write_sample_set(path, train)
        loaded = read_sample_set(path, ID_TRAIN)
        assert np.array_equal(loaded.features, train.features)
        assert np.array_equal(loaded.labels, train.labels)
