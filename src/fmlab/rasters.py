"""Binary PGM (P5) / PPM (P6) reading and writing.

Masks are stored as 0/255 PGM and thresholded at 128 on load; images travel
as float rasters in [0,1], quantized to 8 bits on save. Grayscale images use
PGM, 3-channel images PPM. Files are written with maxval 255; a file with a
smaller maxval is rescaled to the 0-255 scale on load, so a mask thresholds
at the midpoint of its maxval. A file is read in one call; after its magic,
width, height and maxval (unsigned decimals) each follow whitespace or '#'
comments to the end of the line, and one whitespace byte ends the header.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "load_pgm",
    "save_pgm",
    "load_ppm",
    "save_ppm",
    "load_mask",
    "save_mask",
    "load_image",
    "save_image",
]


_SEP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"%s(\d+)%s(\d+)%s(\d+)\s" % (_SEP, _SEP, _SEP))


def _load_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """Read a binary P5/P6 raster as (H, W, channels) uint8 on the 0-255
    scale: a pixel v under maxval m reads as round(v * 255 / m). A malformed
    header, missing or trailing pixel bytes raise DomainError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != magic:
        raise DomainError(f"{path} is not a {magic.decode()} file")
    header = _HEADER.match(data, 2)
    if header is None:
        raise DomainError(f"malformed or truncated raster header in {path}")
    width, height, maxval = map(int, header.groups())
    if maxval < 1 or maxval > 255:
        raise DomainError(f"unsupported maxval {maxval} in {path}")
    size = width * height * channels
    if len(data) - header.end() < size:
        raise DomainError(f"truncated pixel data in {path}")
    if len(data) - header.end() > size:
        raise DomainError(f"trailing bytes after pixel data in {path}")
    raster = np.frombuffer(data, np.uint8, size, header.end()).reshape(height, width, channels)
    if maxval == 255:
        return raster.copy()
    if raster.max(initial=0) > maxval:
        raise DomainError(f"pixel value above maxval {maxval} in {path}")
    return np.rint(raster * 255.0 / maxval).astype(np.uint8)


def _save_netpbm(path, magic: bytes, raster: np.ndarray) -> None:
    """Write a uint8 raster as binary P5/P6 with maxval 255, in place: a temp
    file and rename would cost more than the raster itself."""
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, raster.shape[1], raster.shape[0]))
        fh.write(raster.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a P5 grayscale raster as (H, W) uint8."""
    return _load_netpbm(path, b"P5", 1)[:, :, 0]


def save_pgm(path, raster: np.ndarray) -> None:
    raster = np.asarray(raster)
    if raster.ndim != 2 or raster.dtype != np.uint8:
        raise ShapeError(f"PGM raster must be 2D uint8, got {raster.shape} {raster.dtype}")
    _save_netpbm(path, b"P5", raster)


def load_ppm(path) -> np.ndarray:
    """Read a P6 color raster as (H, W, 3) uint8."""
    return _load_netpbm(path, b"P6", 3)


def save_ppm(path, raster: np.ndarray) -> None:
    raster = np.asarray(raster)
    if raster.ndim != 3 or raster.shape[2] != 3 or raster.dtype != np.uint8:
        raise ShapeError(f"PPM raster must be (H,W,3) uint8, got {raster.shape} {raster.dtype}")
    _save_netpbm(path, b"P6", raster)


def load_mask(path) -> np.ndarray:
    """PGM mask file -> {0,1} raster (threshold at 128)."""
    return (load_pgm(path) >= 128).astype(np.uint8)


def save_mask(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)):
        raise DomainError("mask values must be 0 or 1")
    save_pgm(path, (mask * 255).astype(np.uint8))


def load_image(path) -> np.ndarray:
    """Float image in [0,1]; (H,W) from PGM, (H,W,3) from PPM by suffix."""
    raster = load_ppm(path) if str(path).endswith(".ppm") else load_pgm(path)
    return raster.astype(np.float64) / 255.0


def save_image(path, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.float64)
    quantized = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    if image.ndim == 2:
        save_pgm(path, quantized)
    elif image.ndim == 3 and image.shape[2] == 3:
        save_ppm(path, quantized)
    else:
        raise ShapeError(f"image must be (H,W) or (H,W,3), got {image.shape}")
