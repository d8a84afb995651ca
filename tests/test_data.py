import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptod.data import (
    CLASS_RADIUS,
    ID_TEST,
    ID_TRAIN,
    OUTLIER,
    SHELL_GAP,
    SHELL_WIDTH,
    TRUE_OOD,
    BenchmarkSpec,
    SampleSet,
    generate_long_tailed,
    generate_outliers,
    generate_true_ood,
    read_sample_set,
    true_ood_center,
    write_sample_set,
)
from adaptod.errors import InvalidInputError, LogitFileError

from oracles import exact_counts, line_by_line_read, per_record_write


def default_spec(seed=0, **overrides):
    params = dict(k=10, n_max=1000, rho=100.0, d=8, seed=seed)
    params.update(overrides)
    return BenchmarkSpec(**params)


class TestClassCounts:
    def test_formula_endpoints(self):
        counts = default_spec().class_counts()
        assert counts[0] == 1000
        assert counts[-1] == 10

    def test_no_decay_when_balanced(self):
        counts = default_spec(rho=1.0).class_counts()
        assert counts == [1000] * 10

    def test_matches_arbitrary_precision_recompute(self):
        counts = default_spec().class_counts()
        assert counts == exact_counts(1000, 100, 10)

    def test_invalid_rho(self):
        with pytest.raises(InvalidInputError):
            default_spec(rho=0.5)

    def test_class_starved_out(self):
        with pytest.raises(InvalidInputError, match="class 3 would receive 0 samples at n_max=2"):
            default_spec(n_max=2, rho=100.0)


class TestSpecChecks:
    @pytest.mark.parametrize("name, value, message", [
        ("k", 1, "k must be >= 2, got 1"),
        ("n_max", 0, "n_max must be >= 1, got 0"),
        ("d", 0, "d must be >= 1, got 0"),
        ("n_test_per_class", 0, "n_test_per_class must be >= 1, got 0"),
        ("n_ood", 0, "n_ood must be >= 1, got 0"),
        ("k", 17, "at most 2*d=16 classes, got k=17"),
        ("class_scale", 0.0, "class_scale must be finite and positive, got 0.0"),
        ("head_tilt", 1.5, "head_tilt must lie in [0, 1], got 1.5"),
    ])
    def test_bad_setting_is_rejected_and_named(self, name, value, message):
        with pytest.raises(InvalidInputError) as info:
            default_spec(**{"n_max": 50, name: value})
        assert message in str(info.value)


class TestGenerators:
    def test_train_counts_follow_formula(self):
        spec = default_spec(n_max=200, n_test_per_class=10)
        train, test = generate_long_tailed(spec)
        counts = spec.class_counts()
        for j in range(spec.k):
            assert (train.labels == j).sum() == counts[j]
        assert train.provenance == ID_TRAIN

    def test_test_set_is_balanced(self):
        _, test = generate_long_tailed(default_spec(n_max=100, n_test_per_class=7))
        for j in range(10):
            assert (test.labels == j).sum() == 7
        assert test.provenance == ID_TEST

    def test_determinism(self):
        spec = default_spec(n_max=50, n_out=40)
        a, _ = generate_long_tailed(spec)
        b, _ = generate_long_tailed(spec)
        assert np.array_equal(a.features, b.features)
        out_a = generate_outliers(spec)
        out_b = generate_outliers(spec)
        assert np.array_equal(out_a.features, out_b.features)

    def test_outlier_labels_and_counts(self):
        out = generate_outliers(default_spec(n_max=50, n_out=33))
        assert out.n == 33
        assert (out.labels == -1).all()
        assert out.provenance == OUTLIER

    def test_n_out_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="n_out must be >= 1, got 0"):
            default_spec(n_max=50, n_out=0)

    def test_zero_shift_rejected(self):
        with pytest.raises(InvalidInputError, match="shift must be finite and positive, got 0.0"):
            default_spec(n_max=50, shift=0.0)

    def test_true_ood_center_keeps_margin_from_class_means(self):
        for seed in range(5):
            spec = default_spec(seed=seed, n_max=50, shift=2.0)
            center = true_ood_center(spec)
            dists = np.linalg.norm(spec.class_means - center, axis=1)
            assert dists.min() > 2.0 * spec.class_scale

    def test_outlier_to_true_ood_distance_grows_with_shift(self):
        spec = default_spec(n_max=50, n_out=300)
        out = generate_outliers(spec)
        mean_dists = []
        for shift in (1.0, 2.0, 4.0):
            ood = generate_true_ood(default_spec(n_max=50, n_ood=300, shift=shift))
            d = np.linalg.norm(
                out.features[:, None, :] - ood.features[None, :, :], axis=2
            ).mean()
            mean_dists.append(d)
        assert mean_dists[0] < mean_dists[1] < mean_dists[2]

    def test_true_ood_provenance(self):
        ood = generate_true_ood(default_spec(n_max=50, n_ood=5, shift=1.0))
        assert ood.provenance == TRUE_OOD
        assert (ood.labels == -1).all()


class TestFixedGeometry:
    def test_axis_means_norms_and_orthogonality(self):
        means = default_spec(k=10, d=8).class_means
        assert means.shape == (10, 8)
        assert np.allclose(np.linalg.norm(means, axis=1), CLASS_RADIUS)
        # classes 8 and 9 reuse the first two axes with the opposite sign
        assert np.allclose(means[8], -means[0])
        assert np.allclose(means[9], -means[1])

    def test_axis_means_reject_too_many_classes(self):
        with pytest.raises(InvalidInputError):
            default_spec(k=17, d=8)

    def test_novel_direction_endpoints(self):
        d = 8
        diag = default_spec(d=d, head_tilt=0.0).novel_direction
        assert np.allclose(diag, np.ones(d) / np.sqrt(d))
        head = default_spec(d=d, head_tilt=1.0).novel_direction
        assert np.allclose(head, np.eye(d)[0])

    def test_novel_direction_tilt_moves_toward_head_axis(self):
        directions = [default_spec(head_tilt=t).novel_direction for t in (0.0, 0.3, 0.6, 0.9)]
        cosines = [u[0] for u in directions]
        assert all(a < b for a, b in zip(cosines, cosines[1:]))
        for u in directions:
            assert np.isclose(np.linalg.norm(u), 1.0)

    def test_novel_direction_range_check(self):
        with pytest.raises(InvalidInputError):
            default_spec(head_tilt=1.5)

    def test_outlier_cone_is_empty(self):
        spec = default_spec(n_max=50, n_out=200, head_tilt=0.7)
        u = spec.novel_direction
        out = generate_outliers(spec)
        dirs = out.features / np.linalg.norm(out.features, axis=1, keepdims=True)
        assert (dirs @ u < 0.6).all()
        assert out.n == 200

    def test_outlier_shell_bounds_respected(self):
        spec = default_spec(n_max=50, n_out=300)
        rmax = np.linalg.norm(spec.class_means, axis=1).max()
        out = generate_outliers(spec)
        radii = np.linalg.norm(out.features, axis=1)
        assert (SHELL_GAP, SHELL_WIDTH) == (2.0, 3.0)
        assert (radii >= rmax + 2.0 - 1e-9).all()
        assert (radii <= rmax + 5.0 + 1e-9).all()

    def test_directional_ood_center_on_requested_ray(self):
        spec = default_spec(n_max=50, shift=2.5, head_tilt=0.7)
        center = true_ood_center(spec)
        assert np.allclose(center / np.linalg.norm(center), spec.novel_direction)

    def test_directional_ood_is_deterministic(self):
        spec = default_spec(n_max=50, n_ood=50, shift=2.5, head_tilt=0.7)
        a = generate_true_ood(spec)
        b = generate_true_ood(spec)
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
        want_features, want_labels = line_by_line_read(want)
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
        pytest.param("k=0\n0,1\n", 1, "header k=0: a sample needs at least one value",
                     id="zero-width"),
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
        spec = default_spec(n_max=30, rho=10.0, n_test_per_class=5)
        train, _ = generate_long_tailed(spec)
        path = tmp_path / "train.csv"
        write_sample_set(path, train)
        loaded = read_sample_set(path, ID_TRAIN)
        assert np.array_equal(loaded.features, train.features)
        assert np.array_equal(loaded.labels, train.labels)


def read_both(path, provenance=OUTLIER):
    """(reader outcome, oracle outcome): the arrays read, or the error message."""
    outcomes = []
    for read in (lambda: read_sample_set(path, provenance),
                 lambda: line_by_line_read(path, provenance in (ID_TRAIN, ID_TEST))):
        try:
            got = read()
        except (LogitFileError, ValueError) as exc:
            outcomes.append(str(exc))
        else:
            features, labels = (got.features, got.labels) if isinstance(got, SampleSet) else got
            outcomes.append((features.tobytes(), features.shape, labels.tobytes(), labels.dtype))
    return outcomes


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]))


@st.composite
def sample_sets(draw):
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    features = draw(st.lists(st.lists(FINITE, min_size=k, max_size=k), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(-1, 2 ** 62), min_size=n, max_size=n))
    return SampleSet(np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64),
                     OUTLIER)


class TestOneParseReader:
    """read_sample_set parses a file in one call, and reads what the per-line
    oracle reads or names the line the oracle names."""

    @settings(max_examples=150, deadline=None)
    @given(written=sample_sets())
    def test_round_trip_is_bit_exact_and_equals_the_oracle(self, tmp_path_factory, written):
        path = tmp_path_factory.mktemp("rt") / "set.csv"
        write_sample_set(path, written)
        loaded = read_sample_set(path, OUTLIER)
        assert loaded.features.tobytes() == written.features.tobytes()
        assert loaded.labels.tobytes() == written.labels.tobytes()
        assert (loaded.features.dtype, loaded.labels.dtype) == (np.float64, np.int64)
        assert loaded.features.flags.c_contiguous and loaded.features.flags.owndata
        assert loaded.labels.flags.c_contiguous and loaded.labels.flags.owndata
        reader, oracle = read_both(path)
        assert reader == oracle

    @settings(max_examples=200, deadline=None)
    @given(written=sample_sets(), data=st.data())
    def test_a_mangled_file_reads_or_fails_as_the_oracle_does(self, tmp_path_factory,
                                                              written, data):
        lines = ["k=%d" % written.features.shape[1]] + [
            f"{i},{label},{','.join(map(repr, row))}"
            for i, (label, row) in enumerate(zip(written.labels.tolist(),
                                                 written.features.tolist()))]
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(1, len(lines)))
            edit = data.draw(st.sampled_from(["blank", "space", "crlf", "field", "comma",
                                              "drop", "hash"]))
            if edit in ("blank", "space"):
                lines.insert(at, "" if edit == "blank" else data.draw(
                    st.sampled_from([" ", "\t", "  \t "])))
            elif at < len(lines) and lines[at].strip():
                parts = lines[at].split(",")
                if edit == "crlf":
                    lines[at] += "\r"
                elif edit == "field":
                    where = data.draw(st.integers(0, len(parts) - 1))
                    junk = ["", " 1 ", "+1", "-0", "1.0", "1e3", "1_0", "0x1", "nan", "inf",
                            "-inf", "1e309", "#1", "x", "1 2", "\u0661"]
                    if where == 0:
                        junk.append("9" * 25)  # an id beyond int64 still reads
                    parts[where] = data.draw(st.sampled_from(junk))
                    lines[at] = ",".join(parts)
                elif edit == "comma":
                    lines[at] += ","
                elif edit == "drop":
                    lines[at] = ",".join(parts[:-1])
                else:
                    lines[at] = "#" + lines[at]
        path = tmp_path_factory.mktemp("mangled") / "set.csv"
        path.write_text("\n".join(lines) + "\n", newline="")
        provenance = data.draw(st.sampled_from([OUTLIER, ID_TEST]))
        reader, oracle = read_both(path, provenance)
        assert reader == oracle

    @pytest.mark.parametrize("prefix", [
        pytest.param("\n\n", id="blank-lines"),
        pytest.param(" \n\t\n", id="whitespace-lines"),
        pytest.param("\n \r\n", id="crlf-blank-and-whitespace"),
    ])
    @pytest.mark.parametrize("bad, message", [
        pytest.param("2,1,0.5", "expected 4 comma-separated fields, got 3", id="fields"),
        pytest.param("2,1,0.5,0.5,", "expected 4 comma-separated fields, got 5",
                     id="trailing-comma"),
        pytest.param("#2,1,0.5,0.5", "invalid literal for int", id="hash"),
        pytest.param("2,x,0.5,0.5", "invalid literal for int", id="label"),
        pytest.param("2,1,0.5,x", "could not convert string to float", id="float"),
        pytest.param("2,1,0.5,1e309", "non-finite value", id="non-finite"),
        pytest.param("2,-1,0.5,0.5", "label -1 in an ID set", id="negative-label"),
        pytest.param("2,99999999999999999999999,0.5,0.5", "too large", id="label-overflow"),
    ])
    def test_an_error_names_its_line_past_skipped_lines(self, tmp_path, prefix, bad, message):
        newline = "\r\n" if "\r" in prefix else "\n"
        text = newline.join(["k=2", "0,0,0.5,0.5", "1,3,0.25,2.0"]) + newline
        path = tmp_path / "bad.csv"
        path.write_text(text + prefix + bad + newline + "3,1,0.5,0.5" + newline, newline="")
        line = 4 + prefix.count("\n")
        with pytest.raises(LogitFileError) as info:
            read_sample_set(path, ID_TEST)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert message in str(info.value)

    def test_crlf_endings_and_skipped_lines_read_as_the_oracle_reads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"k=2\r\n\r\n0,1,0.5,2.0\r\n \t\r\n1,-1,-0.0,5e-324\r\n\r\n")
        loaded = read_sample_set(path, OUTLIER)
        assert np.array_equal(loaded.labels, [1, -1])
        assert loaded.features.tobytes() == np.array([[0.5, 2.0], [-0.0, 5e-324]]).tobytes()
        reader, oracle = read_both(path)
        assert reader == oracle

    @pytest.mark.parametrize("text", ["k=1\n", "k=1", "k=1\n\n\n", "k=1\r\n\r\n\r\n",
                                      "k=1\n \n\t\n"])
    def test_a_body_without_rows_is_an_error_and_warns_nothing(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LogitFileError, match="sample-set file holds no rows"):
                read_sample_set(path, OUTLIER)

    @pytest.mark.parametrize("raw, line", [
        pytest.param(b"k=8\n\xff\xfe0,1,2\n", 2, id="body"),
        pytest.param(b"k=1\n0,1,0.5\n \n1,1,0.\xe9\n", 4, id="after-whitespace-line"),
        pytest.param(b"k=\xff1\n0,1,0.5\n", 1, id="header"),
    ])
    def test_a_non_utf8_byte_names_its_line(self, tmp_path, raw, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(LogitFileError) as info:
            read_sample_set(path, ID_TEST)
        assert str(info.value).startswith(f"{path}: line {line}: ")

    def test_a_label_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("k=1\n0,0,0.5\n1,9223372036854775808,0.5\n")
        with pytest.raises(LogitFileError, match=f"{path}: line 3: .*too large"):
            read_sample_set(path, OUTLIER)
        path.write_text("k=1\n0,0,0.5\n1,9223372036854775807,0.5\n")
        assert read_sample_set(path, OUTLIER).labels.tolist() == [0, 2 ** 63 - 1]

    def test_a_header_wider_than_the_file_skips_the_one_call_parse(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt would size its buffers from k alone")

        monkeypatch.setattr(np, "loadtxt", refuse)
        path = tmp_path / "wide.csv"
        path.write_text("k=100000000\n0,1,0.5\n")
        with pytest.raises(LogitFileError, match="line 2: expected 100000002 comma-separated"):
            read_sample_set(path, OUTLIER)

    def test_a_digit_header_that_int_rejects_is_malformed(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("k=\u00b2\n0,1,0.5,0.5\n")
        with pytest.raises(LogitFileError, match="line 1: missing or malformed"):
            read_sample_set(path, OUTLIER)
