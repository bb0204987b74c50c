"""Dataset plumbing: PPM/PGM raster I/O (PNG reading via Pillow when
present), resizing, mask binarization, directory loading, the synthetic
ellipse dataset used for desk-scale training runs, and the batches a run
holds its data in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Tensor

try:  # optional decoder for real datasets
    from PIL import Image as _PILImage
except ImportError:  # pragma: no cover
    _PILImage = None


class DataError(ValueError):
    pass


@dataclass
class SegmentationSample:
    image: np.ndarray  # 3 x H x W float in [0,1]
    mask: np.ndarray  # 1 x H x W float in {0,1}
    id: str


# ---------------------------------------------------------------------------
# Netpbm readers/writers (P2/P3 ascii, P5/P6 binary, 8-bit)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\S+)")


def _read_pnm(path: Path) -> np.ndarray:
    """Return H x W (gray) or H x W x 3 (color) uint8 array, rescaled from the
    file's maxval to 0..255."""
    blob = path.read_bytes()
    pos = 0

    def token():
        nonlocal pos
        m = _TOKEN.match(blob, pos)
        if m is None:
            raise DataError(f"{path}: truncated header")
        pos = m.end()
        return m.group(1)

    magic = token()
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise DataError(f"{path}: unsupported raster magic {magic!r}")

    def positive(name):
        tok = token()
        if not tok.isdigit() or int(tok) == 0:
            raise DataError(f"{path}: {name} must be a positive integer, got {tok!r}")
        return int(tok)

    width, height, maxval = positive("width"), positive("height"), positive("maxval")
    if maxval > 255:
        raise DataError(f"{path}: only 8-bit rasters supported, maxval={maxval}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    count = width * height * channels
    if magic in (b"P5", b"P6"):
        # exactly one whitespace byte separates the header from the pixels
        if pos >= len(blob) or blob[pos : pos + 1] not in (b" ", b"\t", b"\n", b"\r"):
            raise DataError(f"{path}: malformed header/pixel separator")
        if len(blob) - (pos + 1) < count:
            raise DataError(f"{path}: truncated pixel data")
        data = np.frombuffer(blob, dtype=np.uint8, count=count, offset=pos + 1)
    else:
        values = blob[pos:].split()
        if len(values) < count:
            raise DataError(f"{path}: truncated pixel data")
        values = values[:count]
        bad = next((v for v in values if not v.isdigit()), None)
        if bad is not None:
            raise DataError(f"{path}: pixel value must be a non-negative integer, got {bad!r}")
        data = np.array([int(v) for v in values])
    if data.min() < 0 or data.max() > maxval:
        raise DataError(f"{path}: pixel value outside 0..{maxval}")
    if maxval != 255:  # rescale to 0..255, rounding to nearest
        data = (data.astype(np.int64) * 255 + maxval // 2) // maxval
    data = data.astype(np.uint8, copy=False)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)


def read_raster(path: Path) -> np.ndarray:
    suffix = path.suffix.lower()
    if suffix in (".ppm", ".pgm", ".pnm"):
        return _read_pnm(path)
    if _PILImage is not None:
        try:
            with _PILImage.open(path) as img:
                mode = "RGB" if img.mode not in ("L", "I;16") else "L"
                return np.asarray(img.convert(mode))
        except Exception as exc:
            raise DataError(f"{path}: unreadable image ({exc})") from exc
    raise DataError(f"{path}: no decoder for {suffix!r} (install Pillow or use PPM/PGM)")


def write_gray(path: Path, arr: np.ndarray):
    """8-bit H x W grayscale output as binary PGM (P5), whatever the suffix of ``path``."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 2:
        raise DataError(f"write_gray: expected an H x W array, got shape {arr.shape}")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    path.with_suffix(".pgm").write_bytes(header + arr.tobytes())


# ---------------------------------------------------------------------------
# Resizing
# ---------------------------------------------------------------------------


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of an H x W or H x W x C float array."""
    in_h, in_w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if img.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    f = img.astype(np.float64)
    top = f[y0][:, x0] * (1 - wx) + f[y0][:, x1] * wx
    bot = f[y1][:, x0] * (1 - wx) + f[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def resize_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    in_h, in_w = img.shape[:2]
    ys = np.minimum(((np.arange(out_h) + 0.5) * (in_h / out_h)).astype(int), in_h - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * (in_w / out_w)).astype(int), in_w - 1)
    return img[ys][:, xs]


# ---------------------------------------------------------------------------
# Directory loading
# ---------------------------------------------------------------------------

MASK_THRESHOLD = 128  # 8-bit values >= 128 count as foreground


def load_dataset(root: str | Path, image_size: int) -> list[SegmentationSample]:
    """Load images/ and masks/ pairs matched by filename stem.

    Images are bilinearly resized and scaled to [0,1]; masks are resized
    nearest-neighbor and binarized at 128. Samples come back in
    lexicographic stem order.
    """
    root = Path(root)
    img_dir, mask_dir = root / "images", root / "masks"
    if not img_dir.is_dir():
        raise DataError(f"missing directory {img_dir}")
    if not mask_dir.is_dir():
        raise DataError(f"missing directory {mask_dir}")
    masks_by_stem = _files_by_stem(mask_dir)
    samples = []
    for stem, img_path in sorted(_files_by_stem(img_dir).items()):
        mask_path = masks_by_stem.get(stem)
        if mask_path is None:
            raise DataError(f"no mask found for image {img_path.name!r}")
        img = read_raster(img_path).astype(np.float64)
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        img = resize_bilinear(img / 255.0, image_size, image_size)
        mask8 = read_raster(mask_path)
        if mask8.ndim == 3:
            mask8 = mask8.mean(axis=2)
        mask8 = resize_nearest(mask8, image_size, image_size)
        mask = (mask8 >= MASK_THRESHOLD).astype(np.float64)
        samples.append(
            SegmentationSample(
                image=np.ascontiguousarray(img.transpose(2, 0, 1)),
                mask=mask[None, :, :],
                id=stem,
            )
        )
    return samples


def _files_by_stem(folder: Path) -> dict[str, Path]:
    """The files of ``folder`` by stem; two files with one stem (a.pgm, a.png) are an error."""
    found: dict[str, Path] = {}
    for p in sorted(folder.iterdir()):
        if p.is_file() and found.setdefault(p.stem, p) is not p:
            raise DataError(f"{folder}: {found[p.stem].name!r} and {p.name!r} share the stem {p.stem!r}")
    return found


# ---------------------------------------------------------------------------
# Synthetic ellipse dataset
# ---------------------------------------------------------------------------


def _textured_background(rng: np.random.Generator, size: int) -> np.ndarray:
    base = rng.uniform(0.2, 0.8, size=3)
    coarse = rng.uniform(-1.0, 1.0, size=(3, size // 8 + 1, size // 8 + 1))
    texture = np.stack([resize_bilinear(c, size, size) for c in coarse])
    noise = rng.normal(0.0, 0.02, size=(3, size, size))
    return np.clip(base[:, None, None] + 0.08 * texture + noise, 0.0, 1.0)


SMALL_TARGET_RATE = 0.125


def synth_dataset(n: int, size: int, seed: int) -> list[SegmentationSample]:
    """n images with one filled, rotated ellipse of a distinct mean color.

    Deterministic per (n, size, seed). Most targets are large so that
    boundary quantization from the 4x nearest-neighbor output upsampling
    stays small relative to the region; a fixed fraction are small
    (radius down to 3 px). Mask area stays under half the image.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    samples = []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        img = _textured_background(rng, size)
        if rng.uniform() < SMALL_TARGET_RATE:
            r_a, r_b = rng.uniform(3.0, 6.0, size=2)
        else:
            lo, hi = 0.30 * size, 0.45 * size
            r_a, r_b = rng.uniform(max(3.0, lo), max(3.0, hi), size=2)
            cap = 0.15 * size * size  # keeps pi*r_a*r_b below half the area
            if r_a * r_b > cap:
                shrink = math.sqrt(cap / (r_a * r_b))
                r_a, r_b = r_a * shrink, r_b * shrink
        cy, cx = rng.uniform(0.3 * size, 0.7 * size, size=2)
        theta = rng.uniform(0.0, math.pi)
        yy, xx = np.mgrid[0:size, 0:size]
        dy, dx = yy - cy, xx - cx
        ct, st = math.cos(theta), math.sin(theta)
        u = dx * ct + dy * st
        v = -dx * st + dy * ct
        mask = ((u / r_a) ** 2 + (v / r_b) ** 2 <= 1.0).astype(np.float64)
        # a color well away from the local background mean makes the target learnable
        bg_mean = img.mean(axis=(1, 2))
        color = np.clip(bg_mean + np.where(bg_mean > 0.5, -1.0, 1.0) * rng.uniform(0.3, 0.45, 3), 0.0, 1.0)
        edge_noise = rng.normal(0.0, 0.02, size=(3, size, size))
        img = img * (1 - mask) + (color[:, None, None] + edge_noise) * mask
        samples.append(
            SegmentationSample(
                image=np.clip(img, 0.0, 1.0),
                mask=mask[None, :, :],
                id=f"synth_{i:04d}",
            )
        )
    return samples


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def make_batches(samples, batch_size: int, dtype) -> list[tuple[list[str], Tensor, Tensor]]:
    """The samples in order, ``batch_size`` at a time (the last batch may be short), as
    (sample ids, B x 3 x H x W images, B x 1 x H x W masks) with images and masks stacked
    in ``dtype``. The batches hold copies: once the caller drops ``samples``, a run holds
    its data once, in its own precision."""
    out = []
    for i in range(0, len(samples), batch_size):
        chunk = samples[i : i + batch_size]
        images = np.stack([s.image for s in chunk]).astype(dtype, copy=False)
        masks = np.stack([s.mask for s in chunk]).astype(dtype, copy=False)
        out.append(([s.id for s in chunk], Tensor(images), Tensor(masks)))
    return out
