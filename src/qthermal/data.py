"""Binary image datasets (IDX ingestion, binarisation, synthetic digits),
``load_splits``, the one rule that picks a run's training and evaluation
sets, and ``trial_stream``, the one constructor of the package's random
generators.

The IDX container is the big-endian binary layout used by the classic
handwritten-digit files: a 4-byte magic (0x00000803 for uint8 images with 3
dimensions, 0x00000801 for uint8 labels with 1 dimension), one big-endian
uint32 per dimension, then the raw payload.  Files are referenced by SHA-256
digest in dataset provenance.

``hashlib`` (which loads OpenSSL), for the IDX digests, and ``gzip`` are
imported on first use, by ``load_idx``, so that importing the package, as
every command does, loads neither.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagicError,
    DimensionOverflowError,
    IdxFormatError,
    TruncatedPayloadError,
)

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
DATASET_DIR_ENV = "QTHERMAL_DATASET_DIR"

_MAX_ELEMENTS = 2**31
DEFAULT_THRESHOLD = 128  # ``binarize``: pixels at or above it are target (1)

# ``synthetic_digits``: largest glyph offset in pixels along each axis and
# the probability of a speckle flip per pixel
_MAX_SHIFT = 2
_SPECKLE = 0.01

# ``flip_rows``: images per block of uniforms, drawn into one reused float64
# buffer (0.2 MB at 28x28); 32 rows peaked lower than 128 on simulate-nn
_FLIP_ROWS = 32

# per split: IDX image and label file names, synthetic stream tag (SHA-256 prefix of the name)
_SPLITS = {
    "training": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 0xC2FB788C),
    "evaluation": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 0xEFE77B20),
}


def _split(split: str) -> tuple[str, str, int]:
    if split not in _SPLITS:
        raise ValueError(f"split must be one of {sorted(_SPLITS)}, got {split!r}")
    return _SPLITS[split]


def trial_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for one (seed, trial, ...) coordinate; every
    random draw of the package, synthetic images included, comes from one."""
    entropy = (int(master_seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def flip_rows(rows: np.ndarray, p: float, rng: np.random.Generator) -> None:
    """Flip the pixels of the (n, pixels) uint8 array ``rows`` in place
    wherever U < p, U uniform on [0, 1).

    The uniforms are drawn row-major, ``_FLIP_ROWS`` rows at a time, into one
    reused float64 buffer; the stream, and so the result, is that of one
    ``rng.random(rows.shape)`` draw.
    """
    uniforms = np.empty((min(len(rows), _FLIP_ROWS), rows.shape[1]))
    for start in range(0, len(rows), _FLIP_ROWS):
        block = rows[start : start + _FLIP_ROWS]
        u = rng.random(out=uniforms[: len(block)])
        block ^= (u < p).view(np.uint8)


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte string into a uint8 array.

    Returns a (count, rows, cols) array for the image magic and a (count,)
    array for the label magic.

    Raises:
        BadMagicError: first four bytes match neither supported magic.
        DimensionOverflowError: header dimensions overflow the element cap.
        TruncatedPayloadError: payload shorter than the header promises.
        IdxFormatError: payload longer than the header promises.
    """
    if len(data) < 4:
        raise TruncatedPayloadError(f"container of {len(data)} bytes has no magic")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == IMAGE_MAGIC:
        ndim = 3
    elif magic == LABEL_MAGIC:
        ndim = 1
    else:
        raise BadMagicError(f"unsupported IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(data) < header:
        raise TruncatedPayloadError("container ends inside the dimension header")
    dims = struct.unpack(f">{ndim}I", data[4:header])
    total = 1
    for d in dims:
        total *= d
    if total > _MAX_ELEMENTS:
        raise DimensionOverflowError(f"dimensions {dims} overflow the element cap")
    if len(data) < header + total:
        raise TruncatedPayloadError(
            f"payload holds {len(data) - header} bytes, header promises {total}"
        )
    if len(data) > header + total:
        raise IdxFormatError(f"{len(data) - header - total} trailing bytes")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(dims)


def load_idx(path: str) -> tuple[np.ndarray, str]:
    """Read an IDX file (gzip transparently) and return (array, sha256 hex)."""
    import gzip
    import hashlib

    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_idx(raw), digest


def _check_threshold(threshold: int) -> None:
    """Raise ``ValueError`` unless ``binarize`` takes ``threshold``."""
    if not 1 <= threshold <= 255:
        raise ValueError(f"threshold must lie in [1, 255], got {threshold}")


def binarize(images: np.ndarray, threshold: int = DEFAULT_THRESHOLD) -> np.ndarray:
    """Threshold uint8 pixels: >= threshold becomes target (1), else
    background (0)."""
    _check_threshold(threshold)
    return (np.asarray(images) >= threshold).astype(np.uint8)


@dataclass
class BinaryImageDataset:
    """Labelled binary pixel images, flattened row-major."""

    images: np.ndarray
    labels: np.ndarray
    height: int
    width: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.uint8)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != self.height * self.width:
            raise ValueError(
                f"images must be (n, {self.height * self.width}), got {self.images.shape}"
            )
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("images and labels disagree in length")
        if self.images.size and self.images.max() > 1:
            raise ValueError("images must be binary")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self) else 0


def load_idx_split(
    directory: str,
    split: str,
    threshold: int = DEFAULT_THRESHOLD,
    limit: int | None = None,
) -> BinaryImageDataset:
    """Load and binarise one IDX split from a directory.

    Looks for the conventional file names (``train-images-idx3-ubyte`` etc.),
    optionally with a ``.gz`` suffix.  A negative ``limit`` or an unknown
    ``split`` raises ``ValueError``; a split left with no images after
    ``limit`` raises ``IdxFormatError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"image limit must be >= 0, got {limit}")
    arrays, digests = [], {}
    for name in _split(split)[:2]:
        path = os.path.join(directory, name)
        if not os.path.exists(path) and os.path.exists(path + ".gz"):
            path += ".gz"
        if not os.path.exists(path):
            raise FileNotFoundError(f"dataset file {name} not found under {directory}")
        arr, digest = load_idx(path)
        arrays.append(arr)
        digests[os.path.basename(path)] = digest
    images, labels = arrays
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError("image and label counts disagree")
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    n, h, w = images.shape
    if n == 0:
        raise IdxFormatError(f"{split} split holds no images")
    return BinaryImageDataset(
        images=binarize(images, threshold).reshape(n, h * w),
        labels=labels.astype(np.int64),
        height=h,
        width=w,
        provenance={"source": digests, "threshold": threshold, "kind": "idx"},
    )


# 5x7 glyph rows for the synthetic ten-class dataset, one string per class
_GLYPHS = [
    ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
]


def synthetic_digits(
    n: int,
    seed: int,
    split: str = "training",
    height: int = 28,
    width: int = 28,
) -> BinaryImageDataset:
    """Procedural ten-class binary digit dataset.

    Each image is one entry of a bank of (class, row shift, column shift)
    templates, the class's scaled glyph centred and shifted by up to
    ``_MAX_SHIFT`` pixels per axis, clipped to the canvas, at a uniformly
    drawn index, plus speckle flips made in place by ``flip_rows``; classes
    cycle so the dataset is balanced.
    Fully determined by (n, seed, split) through counter-based streams.  A
    negative ``n`` or an unknown ``split`` raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"image count must be >= 0, got {n}")
    rng = trial_stream(seed, _split(split)[2])
    scale = max(1, min((height - 2) // 7, (width - 2) // 5))
    glyphs = np.array([[list(row) for row in g] for g in _GLYPHS], np.uint8).repeat(scale, 1).repeat(scale, 2)
    gh, gw = glyphs.shape[1:]
    if gh > height or gw > width:
        raise ValueError(f"canvas {height}x{width} too small for the glyphs")
    shift = np.arange(-_MAX_SHIFT, _MAX_SHIFT + 1)
    rows = np.clip(shift + (height - gh) // 2, 0, height - gh)
    cols = np.clip(shift + (width - gw) // 2, 0, width - gw)
    bank = np.zeros((10, len(rows), len(cols), height, width), dtype=np.uint8)
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            bank[:, i, j, r : r + gh, c : c + gw] = glyphs
    labels = np.arange(n, dtype=np.int64) % 10
    shifts = rng.integers(0, len(shift), (n, 2))
    images = bank[labels, shifts[:, 0], shifts[:, 1]].reshape(n, height * width)
    flip_rows(images, _SPECKLE, rng)
    return BinaryImageDataset(
        images=images,
        labels=labels,
        height=height,
        width=width,
        provenance={"kind": "synthetic", "seed": seed, "speckle": _SPECKLE},
    )


def load_splits(
    T: int,
    n_eval: int,
    seed: int,
    directory: str | None = None,
    threshold: int = DEFAULT_THRESHOLD,
) -> tuple[BinaryImageDataset, BinaryImageDataset]:
    """A run's training and evaluation sets, of at most ``T`` and ``n_eval``
    images: the IDX splits under ``directory``, else under
    ``$QTHERMAL_DATASET_DIR``, else synthetic digits of seeds ``seed`` and
    ``seed + 1``.  ``threshold`` is checked first, on both paths, although
    the synthetic set is never binarised."""
    _check_threshold(threshold)
    directory = directory or os.environ.get(DATASET_DIR_ENV)
    if directory:
        return (
            load_idx_split(directory, "training", threshold, limit=T),
            load_idx_split(directory, "evaluation", threshold, limit=n_eval),
        )
    return (
        synthetic_digits(T, seed, split="training"),
        synthetic_digits(n_eval, seed + 1, split="evaluation"),
    )
