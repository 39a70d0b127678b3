import numpy as np
import pytest

from fpx.data import (
    DataError,
    generate_synthetic_corpus,
    load_image_dir,
    load_sparse_dataset,
    read_pgm,
    write_pgm,
)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((12, 7))
        path = tmp_path / "a.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (12, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12

    def test_comment_lines_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(6))
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[1, 2] == 5 / 255.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DataError, match="magic"):
            read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(DataError, match="truncated pixel data"):
            read_pgm(path)

    def test_corpus_generation_is_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_synthetic_corpus(a_dir, 3, 16, seed=7)
        generate_synthetic_corpus(b_dir, 3, 16, seed=7)
        for name in ("img_0000.pgm", "img_0002.pgm"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_load_image_dir_crops_center(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "imgs", 4, 20, seed=1)
        images = load_image_dir(tmp_path / "imgs", count=4, crop=16)
        assert len(images) == 4
        assert all(img.shape == (16, 16) for img in images)

    def test_load_image_dir_insufficient(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "imgs", 2, 16, seed=1)
        with pytest.raises(DataError, match="need 5"):
            load_image_dir(tmp_path / "imgs", count=5, crop=8)


class TestSparse:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3,7 12:1 90:1\n")
        ds = load_sparse_dataset(path, n_features=100, n_labels=10)
        assert ds.n_samples == 1 and not ds.one_based
        assert ds.labels.data[0, 3] == 1.0 and ds.labels.data[0, 7] == 1.0
        assert ds.labels.data.sum() == 2.0
        assert ds.features.data[0, 12] == 1.0 and ds.features.data[0, 90] == 1.0
        assert ds.features.data.sum() == 2.0

    def test_one_based_detection(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 5:1\n2 5:1\n")
        ds = load_sparse_dataset(path, n_features=5, n_labels=2)
        assert ds.one_based
        assert ds.features.data[0, 4] == 1.0
        assert ds.labels.data[1, 1] == 1.0

    def test_empty_feature_list_warns(self, tmp_path, caplog):
        path = tmp_path / "d.txt"
        path.write_text("2\n1 3:1\n")
        with caplog.at_level("WARNING"):
            ds = load_sparse_dataset(path, n_features=4, n_labels=3)
        assert "no features" in caplog.text
        assert ds.features.data[0].sum() == 0.0

    def test_unlabeled_sample(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("2:1 3:1\n")
        ds = load_sparse_dataset(path, n_features=4, n_labels=3)
        assert ds.labels.data.sum() == 0.0
        assert ds.features.data.sum() == 2.0

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2:1\n1 oops\n")
        with pytest.raises(DataError, match=":2:"):
            load_sparse_dataset(path, n_features=4, n_labels=3)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 200:1\n")
        with pytest.raises(DataError, match="exceeds"):
            load_sparse_dataset(path, n_features=100, n_labels=5)

    def test_duplicate_indices_coalesce(self, tmp_path, caplog):
        path = tmp_path / "d.txt"
        path.write_text("1 3:1 3:1\n")
        with caplog.at_level("WARNING"):
            ds = load_sparse_dataset(path, n_features=5, n_labels=2)
        assert "coalesced" in caplog.text
        assert ds.features.data[0, 3] == 1.0 and ds.features.data.sum() == 1.0

    def test_expected_count_mismatch_aborts(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2:1\n0 3:1\n")
        with pytest.raises(DataError, match="nonstandard split"):
            load_sparse_dataset(path, n_features=4, n_labels=2, expected_samples=5)

    def test_zero_valued_features_dropped(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2:0 3:1\n")
        ds = load_sparse_dataset(path, n_features=4, n_labels=2)
        assert ds.features.data[0, 2] == 0.0 and ds.features.data[0, 3] == 1.0
