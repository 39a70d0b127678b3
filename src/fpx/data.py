"""Dataset ingestion: binary PGM images, a deterministic synthetic grayscale
corpus, and the sparse multi-label text format."""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

log = logging.getLogger(__name__)


class DataError(ValueError):
    """A dataset file violates its format."""


# ---------------------------------------------------------------------------
# binary PGM (P5), maxval 255


def write_pgm(path, image: np.ndarray):
    """Write a grayscale image with values in [0, 1] as binary PGM."""
    if image.ndim != 2:
        raise DataError(f"PGM image must be 2-d, got shape {image.shape}")
    h, w = image.shape
    quantized = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM into a float array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        fields: list[bytes] = []
        pos = 0
        while len(fields) < 4:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if raw[pos : pos + 1] == b"#":       # comment line
                pos = raw.index(b"\n", pos) + 1
                continue
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
        pos += 1                                  # single whitespace before data
        magic, w, h, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
        if magic != b"P5":
            raise DataError(f"{path}: not a binary PGM (magic {magic!r})")
        if maxval != 255:
            raise DataError(f"{path}: unsupported maxval {maxval}")
        if len(raw) - pos < w * h:
            raise DataError(f"{path}: truncated pixel data")
        data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    except DataError:
        raise
    except Exception as exc:
        raise DataError(f"{path}: corrupt PGM ({exc})") from exc
    return data.reshape(h, w).astype(np.float64) / 255.0


def load_image_dir(path, count: int, crop: int) -> list[np.ndarray]:
    """Load the first ``count`` PGM images under ``path``, center-cropped."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".pgm"))
    if len(names) < count:
        raise DataError(f"{path}: need {count} PGM images, found {len(names)}")
    images = []
    for name in names[:count]:
        img = read_pgm(os.path.join(path, name))
        h, w = img.shape
        if h < crop or w < crop:
            raise DataError(f"{name}: image {h}x{w} smaller than crop {crop}")
        top, left = (h - crop) // 2, (w - crop) // 2
        images.append(img[top : top + crop, left : left + crop].copy())
    return images


def generate_synthetic_corpus(path, count: int, size: int, seed: int):
    """Write deterministic grayscale PGM test images: smooth fields plus shapes.

    Stands in for a natural-image corpus when none is mounted; denoising needs
    images with spatial structure, not white noise.
    """
    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / size
    for idx in range(count):
        img = np.zeros((size, size))
        for _ in range(3):   # low-frequency waves
            fx, fy = rng.uniform(0.5, 3.0, 2)
            phase = rng.uniform(0, 2 * np.pi)
            img += rng.uniform(0.1, 0.4) * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
        for _ in range(rng.integers(2, 5)):   # solid discs and boxes
            cy, cx = rng.uniform(0.1, 0.9, 2)
            r = rng.uniform(0.05, 0.25)
            level = rng.uniform(-0.5, 0.5)
            if rng.random() < 0.5:
                mask = (yy - cy) ** 2 + (xx - cx) ** 2 < r * r
            else:
                mask = (np.abs(yy - cy) < r) & (np.abs(xx - cx) < r)
            img[mask] += level
        lo, hi = img.min(), img.max()
        img = (img - lo) / (hi - lo) if hi > lo else np.full_like(img, 0.5)
        write_pgm(os.path.join(path, f"img_{idx:04d}.pgm"), img)


# ---------------------------------------------------------------------------
# sparse multi-label text format: "label,label,... idx:val idx:val ..."


@dataclass
class SparseDataset:
    features: Tensor          # (N, n_features) binary
    labels: Tensor            # (N, n_labels) binary
    one_based: bool
    n_samples: int


def load_sparse_dataset(path, n_features: int, n_labels: int,
                        expected_samples: int | None = None) -> SparseDataset:
    """Densify a sparse multi-label file; malformed lines report their number.

    0-based vs 1-based indexing is detected from the maximum index seen (an
    index equal to the dimension forces 1-based) and logged.  Duplicate
    indices coalesce with a warning; out-of-range indices are errors.
    """
    rows = []
    max_feature = max_label = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            label_part, feature_parts = parts[0], parts[1:]
            if ":" in label_part:     # no labels present; everything is a feature
                feature_parts = parts
                label_part = ""
            try:
                labels = [int(tok) for tok in label_part.split(",") if tok != ""]
                feats = []
                for tok in feature_parts:
                    idx_s, val_s = tok.split(":")
                    if float(val_s) != 0.0:
                        feats.append(int(idx_s))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed entry ({exc})") from exc
            if feats:
                max_feature = max(max_feature, max(feats))
            if labels:
                max_label = max(max_label, max(labels))
            if not feats:
                log.warning("%s:%d: sample has no features", path, lineno)
            rows.append((lineno, labels, feats))

    if not rows:
        raise DataError(f"{path}: empty dataset")
    if max_feature > n_features or max_label > n_labels:
        raise DataError(f"{path}: index exceeds declared dimensions "
                        f"({max_feature} vs {n_features} features, "
                        f"{max_label} vs {n_labels} labels)")
    one_based = max_feature == n_features or max_label == n_labels
    offset = 1 if one_based else 0
    log.info("%s: %d samples, detected %s-based indexing", path, len(rows),
             "1" if one_based else "0")

    features = np.zeros((len(rows), n_features))
    labels = np.zeros((len(rows), n_labels))
    for row, (lineno, labs, feats) in enumerate(rows):
        if len(set(feats)) != len(feats) or len(set(labs)) != len(labs):
            log.warning("%s:%d: duplicate indices coalesced", path, lineno)
        for idx in feats:
            if not 0 <= idx - offset < n_features:
                raise DataError(f"{path}:{lineno}: feature index {idx} out of range")
            features[row, idx - offset] = 1.0
        for idx in labs:
            if not 0 <= idx - offset < n_labels:
                raise DataError(f"{path}:{lineno}: label index {idx} out of range")
            labels[row, idx - offset] = 1.0

    if expected_samples is not None and len(rows) != expected_samples:
        raise DataError(f"{path}: expected {expected_samples} samples, "
                        f"found {len(rows)}; refusing a nonstandard split")
    return SparseDataset(Tensor(features), Tensor(labels), one_based, len(rows))
