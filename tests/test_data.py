"""IDX parsing, binarisation and dataset handling."""

import gzip
import hashlib
import os
import struct

import numpy as np
import pytest

from hypothesis import example, given
from hypothesis import strategies as st

import qthermal.data as data
from qthermal.cli import main
from qthermal.data import (
    _GLYPHS,
    _FLIP_ROWS,
    DATASET_DIR_ENV,
    BinaryImageDataset,
    binarize,
    load_idx,
    load_idx_split,
    load_splits,
    parse_idx,
    synthetic_digits,
    trial_stream,
)
from qthermal.errors import (
    BadMagicError,
    DimensionOverflowError,
    IdxFormatError,
    TruncatedPayloadError,
)


def reference_digits(n, seed, split, height, width):
    """``synthetic_digits`` spelled out: each glyph placed by its own loop
    step at its clipped offset, then every speckle uniform from one
    (n, height, width) draw of the same stream.  Also returns whether any
    offset clipped."""
    rng = trial_stream(seed, int.from_bytes(hashlib.sha256(split.encode()).digest()[:4], "big"))
    scale = max(1, min((height - 2) // 7, (width - 2) // 5))
    shifts = rng.integers(-2, 3, size=(n, 2))
    images = np.zeros((n, height, width), np.uint8)
    clipped = False
    ones = np.ones((scale, scale), np.uint8)
    for i, (dr, dc) in enumerate(shifts):
        glyph = np.kron(np.array([list(row) for row in _GLYPHS[i % 10]], np.uint8), ones)
        gh, gw = glyph.shape
        r = min(max((height - gh) // 2 + dr, 0), height - gh)
        c = min(max((width - gw) // 2 + dc, 0), width - gw)
        clipped |= (r, c) != ((height - gh) // 2 + dr, (width - gw) // 2 + dc)
        images[i, r : r + gh, c : c + gw] = glyph
    images ^= (rng.random((n, height, width)) < 0.01).view(np.uint8)
    return images.reshape(n, -1), np.arange(n) % 10, clipped


def idx_images(payload: bytes, dims: tuple[int, int, int]) -> bytes:
    return struct.pack(">IIII", 0x00000803, *dims) + payload


def idx_labels(payload: bytes) -> bytes:
    return struct.pack(">II", 0x00000801, len(payload)) + payload


class TestParseIdx:
    def test_hand_built_image(self):
        arr = parse_idx(idx_images(bytes([0, 255, 128, 7]), (1, 2, 2)))
        assert arr.shape == (1, 2, 2)
        assert arr.tolist() == [[[0, 255], [128, 7]]]

    def test_hand_built_labels(self):
        arr = parse_idx(idx_labels(bytes([0, 9, 4])))
        assert arr.shape == (3,)
        assert arr.tolist() == [0, 9, 4]

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            parse_idx(struct.pack(">I", 0x00000802) + b"\x00" * 16)

    def test_truncated_payload(self):
        data = idx_images(bytes([1, 2, 3]), (1, 2, 2))
        with pytest.raises(TruncatedPayloadError):
            parse_idx(data)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayloadError):
            parse_idx(struct.pack(">I", 0x00000803) + b"\x00\x00")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(IdxFormatError):
            parse_idx(idx_labels(bytes([1])) + b"\x00")

    def test_dimension_overflow(self):
        data = struct.pack(">IIII", 0x00000803, 2**20, 2**20, 2**20)
        with pytest.raises(DimensionOverflowError):
            parse_idx(data)

    def test_real_training_file(self):
        directory = os.environ.get(DATASET_DIR_ENV)
        if not directory:
            pytest.skip(f"{DATASET_DIR_ENV} not set")
        path = os.path.join(directory, "train-images-idx3-ubyte")
        if not os.path.exists(path) and os.path.exists(path + ".gz"):
            path += ".gz"
        if not os.path.exists(path):
            pytest.skip("training images not present")
        arr, digest = load_idx(path)
        assert arr.shape == (60000, 28, 28)
        assert len(digest) == 64


class TestBinarize:
    def test_all_background(self):
        assert binarize(np.zeros((2, 2), np.uint8), 128).sum() == 0

    def test_all_target(self):
        assert binarize(np.full((2, 2), 255, np.uint8), 128).sum() == 4

    def test_threshold_is_inclusive(self):
        img = np.array([0, 255, 128, 7], np.uint8)
        assert binarize(img, 128).tolist() == [0, 1, 1, 0]

    def test_threshold_domain(self):
        with pytest.raises(ValueError):
            binarize(np.zeros(4, np.uint8), 0)


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinaryImageDataset(
                images=np.zeros((2, 5), np.uint8),
                labels=np.zeros(2, np.int64),
                height=2,
                width=2,
            )
        with pytest.raises(ValueError):
            BinaryImageDataset(
                images=np.full((2, 4), 3, np.uint8),
                labels=np.zeros(2, np.int64),
                height=2,
                width=2,
            )

    def test_load_split_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            idx_images(imgs.tobytes(), imgs.shape)
        )
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(idx_labels(labels.tobytes()))
        ds = load_idx_split(str(tmp_path), "training", threshold=100)
        assert len(ds) == 7 and ds.pixels == 20
        assert np.array_equal(ds.images, (imgs >= 100).reshape(7, 20))
        assert np.array_equal(ds.labels, labels)
        assert ds.provenance["threshold"] == 100
        assert len(ds.provenance["source"]) == 2

    @pytest.mark.parametrize("count,limit", [(0, None), (3, 0)])
    def test_empty_split_rejected(self, tmp_path, count, limit):
        imgs = np.zeros((count, 2, 2), np.uint8)
        (tmp_path / "t10k-images-idx3-ubyte").write_bytes(
            idx_images(imgs.tobytes(), imgs.shape)
        )
        (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(idx_labels(bytes(count)))
        with pytest.raises(IdxFormatError, match="no images"):
            load_idx_split(str(tmp_path), "evaluation", limit=limit)

    @pytest.mark.parametrize("limit", [-1, -3])
    def test_negative_limit_rejected(self, tmp_path, limit):
        # images[:limit] would silently drop the last |limit| images
        imgs = np.zeros((5, 2, 2), np.uint8)
        (tmp_path / "train-images-idx3-ubyte").write_bytes(idx_images(imgs.tobytes(), imgs.shape))
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(idx_labels(bytes(5)))
        with pytest.raises(ValueError, match=f"limit must be >= 0, got {limit}") as caught:
            load_idx_split(str(tmp_path), "training", limit=limit)
        assert not isinstance(caught.value, IdxFormatError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_idx_split(str(tmp_path), "evaluation")


class TestGzipIdx:
    """Both splits written as plain IDX files in one directory and as
    ``.gz`` files in another."""

    @pytest.fixture
    def dirs(self, tmp_path):
        rng = np.random.default_rng(6)
        plain, packed = tmp_path / "plain", tmp_path / "gz"
        plain.mkdir()
        packed.mkdir()
        for split, n in (("train", 40), ("t10k", 12)):
            imgs = rng.integers(0, 256, size=(n, 6, 5), dtype=np.uint8)
            labels = rng.integers(0, 10, size=n, dtype=np.uint8)
            for name, raw in ((f"{split}-images-idx3-ubyte", idx_images(imgs.tobytes(), imgs.shape)),
                              (f"{split}-labels-idx1-ubyte", idx_labels(labels.tobytes()))):
                (plain / name).write_bytes(raw)
                (packed / f"{name}.gz").write_bytes(gzip.compress(raw, mtime=0))
        return plain, packed

    @staticmethod
    def gz_digests(directory, split):
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(directory.glob(f"{split}-*.gz"))}

    @pytest.mark.parametrize("split, prefix", [("training", "train"), ("evaluation", "t10k")])
    def test_gz_split_matches_plain_and_digests_gz_bytes(self, dirs, split, prefix):
        plain, packed = dirs
        ds = load_idx_split(str(packed), split)
        ref = load_idx_split(str(plain), split)
        assert np.array_equal(ds.images, ref.images)
        assert np.array_equal(ds.labels, ref.labels)
        assert ds.provenance["source"] == self.gz_digests(packed, prefix)
        assert len(ds.provenance["source"]) == 2

    def test_simulate_reads_gz_files(self, dirs, tmp_path, capsys):
        _, packed = dirs
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--M", "10",
                     "--T", "40", "--eval-size", "12", "--trials", "1", "--data-dir", str(packed),
                     "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        manifest = (tmp_path / "sim.csv.manifest").read_text().splitlines()
        digests = {**self.gz_digests(packed, "train"), **self.gz_digests(packed, "t10k")}
        assert f"input_digests: {digests}" in manifest

    def test_load_splits_reads_the_environment_directory(self, dirs, monkeypatch):
        _, packed = dirs
        monkeypatch.setenv(DATASET_DIR_ENV, str(packed))
        training, evaluation = load_splits(30, 5, seed=0)
        assert (len(training), len(evaluation)) == (30, 5)
        for ds, split, prefix in ((training, "training", "train"), (evaluation, "evaluation", "t10k")):
            ref = load_idx_split(str(packed), split, limit=len(ds))
            assert np.array_equal(ds.images, ref.images)
            assert np.array_equal(ds.labels, ref.labels)
            assert ds.provenance["source"] == self.gz_digests(packed, prefix)

    def test_load_splits_directory_wins_over_the_environment(self, dirs, monkeypatch, tmp_path):
        # the variable names a directory that does not exist
        _, packed = dirs
        monkeypatch.setenv(DATASET_DIR_ENV, str(tmp_path / "missing"))
        training, evaluation = load_splits(40, 12, seed=0, directory=str(packed))
        assert training.provenance["source"] == self.gz_digests(packed, "train")
        assert evaluation.provenance["source"] == self.gz_digests(packed, "t10k")


class TestLoadSplits:
    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 2**32 - 1))
    @example(0, 0, 0)
    def test_synthetic_sets_are_digits_of_seeds_s_and_s_plus_one(self, T, n_eval, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(DATASET_DIR_ENV, raising=False)
            training, evaluation = load_splits(T, n_eval, seed)
        expected = (
            synthetic_digits(T, seed, "training"),
            synthetic_digits(n_eval, seed + 1, "evaluation"),
        )
        for ds, ref in zip((training, evaluation), expected):
            assert ds.images.tobytes() == ref.images.tobytes()
            assert ds.labels.tobytes() == ref.labels.tobytes()
            assert (ds.height, ds.width, ds.provenance) == (ref.height, ref.width, ref.provenance)

    @pytest.mark.parametrize("idx", [False, True], ids=["synthetic", "idx"])
    def test_threshold_is_checked_before_any_loader(self, monkeypatch, tmp_path, idx):
        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the threshold was checked")

        monkeypatch.delenv(DATASET_DIR_ENV, raising=False)
        monkeypatch.setattr(data, "load_idx_split", no_load)
        monkeypatch.setattr(data, "synthetic_digits", no_load)
        with pytest.raises(ValueError, match=r"threshold must lie in \[1, 255\], got 0"):
            load_splits(5, 5, seed=0, directory=str(tmp_path) if idx else None, threshold=0)


@pytest.mark.parametrize(
    "load",
    [lambda directory: load_idx_split(directory, "train"), lambda _: synthetic_digits(3, 0, split="train")],
    ids=["load_idx_split", "synthetic_digits"],
)
def test_unknown_split_rejected(tmp_path, load):
    # an unknown name must not draw a synthetic data set of its own
    with pytest.raises(ValueError, match=r"split must be one of \['evaluation', 'training'\], got 'train'"):
        load(str(tmp_path))


class TestSyntheticDigits:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 0, got -3"):
            synthetic_digits(-3, seed=0)

    def test_deterministic(self):
        a = synthetic_digits(50, seed=3)
        b = synthetic_digits(50, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_output_pinned(self):
        # digests of the generator's output before glyph placement was
        # vectorised; any change to the streams or the placement shows here
        ds = synthetic_digits(300, seed=11, split="evaluation")
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
            "1d31dfa7b538ddf9c96594da3f212944e561a6d6a06a9ab2961db85ecb72f399"
        )
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
            "9480ba47a7076d94b5c81ad6f7726cbb47e760de59a85670b36e95a079213fb2"
        )

    def test_output_pinned_across_speckle_blocks(self):
        # digests from before the speckle uniforms were drawn in row blocks;
        # n = 2500 spans 79 blocks, so a block boundary that skipped or
        # repeated part of the stream shows here
        ds = synthetic_digits(2500, seed=11, split="evaluation")
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == (
            "24900c72d1a0c915e40e7f11990f775b9d95d8891c2beeb494042fe6e0dfe266"
        )
        assert hashlib.sha256(ds.labels.tobytes()).hexdigest() == (
            "0b04921139958a92387e0b904a75d068333817d816adb53f799b7b203749f80c"
        )

    @pytest.mark.parametrize("height, width", [(23, 17), (24, 18)])
    def test_matches_reference_where_offsets_clip(self, height, width):
        # n spans four blocks of uniforms, the last one partial
        n = 2 * _FLIP_ROWS + 37
        ds = synthetic_digits(n, seed=4, split="evaluation", height=height, width=width)
        images, labels, clipped = reference_digits(n, 4, "evaluation", height, width)
        assert clipped
        assert np.array_equal(ds.images, images)
        assert np.array_equal(ds.labels, labels)

    def test_balanced_classes(self):
        ds = synthetic_digits(100, seed=1)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(counts == 10)

    def test_classes_distinct_under_nn(self):
        from qthermal.classify import nn_predictor

        train = synthetic_digits(1000, seed=5)
        probe = synthetic_digits(40, seed=6, split="evaluation")
        correct = np.count_nonzero(nn_predictor(train)(probe.images) == probe.labels)
        assert correct >= 38  # near-perfect on clean images
