"""Dataset manifests: TSV records pairing images, masks, and provenance.

Paths are stored relative to the manifest file's directory, which keeps
manifests portable and makes repeated pipeline runs byte-identical
regardless of where they execute. Lines starting with '#' are header
comments (split rules, skipped-pair warnings) and are preserved on read,
without their surrounding whitespace. Manifests are ASCII. A record's path
and provenance fields cannot hold a tab, a line break or non-ASCII text,
nor can an image path start with '#' (ManifestRecord rejects them with
check_cell), and check_comments rejects a comment with a line break or
non-ASCII text; write_manifest calls it, then replaces the file whole.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

from ._files import write_file
from .errors import DomainError

__all__ = [
    "STRATEGIES",
    "SPLITS",
    "ManifestRecord",
    "check_cell",
    "check_comments",
    "write_manifest",
    "read_manifest",
    "validate_manifest",
]

STRATEGIES = ("real", "A_mask_gen", "B_propagated", "C_background_injected")
SPLITS = ("", "train", "val", "test")

_COLUMNS = ("image_path", "mask_path", "coverage_class", "strategy", "split", "seed", "provenance")


@dataclass(frozen=True)
class ManifestRecord:
    image_path: str
    mask_path: str
    coverage_class: int
    strategy: str
    split: str = ""
    seed: int = 0
    provenance: str = ""

    def __post_init__(self):
        for text in (self.image_path, self.mask_path, self.provenance):
            check_cell(text)
        if self.image_path.startswith("#"):
            raise DomainError(f"image path {self.image_path!r} would read as a comment")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}")
        if self.split not in SPLITS:
            raise DomainError(f"unknown split {self.split!r}")

    def with_split(self, split: str) -> "ManifestRecord":
        return replace(self, split=split)


def check_cell(text: str, what: str = "manifest field") -> None:
    """Reject text that one cell of an ASCII TSV row cannot carry."""
    if any(c in text for c in "\t\r\n"):
        raise DomainError(f"{what} {text!r} holds a tab or line break")
    if not text.isascii():
        raise DomainError(f"{what} {text!r} holds non-ASCII text")


def check_comments(comments: list[str] | None) -> None:
    """Reject a comment the ASCII, line-based format cannot carry."""
    for comment in comments or []:
        if "\r" in comment or "\n" in comment:
            raise DomainError(f"manifest comment {comment!r} holds a line break")
        if not comment.isascii():
            raise DomainError(f"manifest comment {comment!r} holds non-ASCII text")


def write_manifest(path, records: list[ManifestRecord], comments: list[str] | None = None) -> None:
    check_comments(comments)
    lines = [f"# {comment}\n" for comment in comments or []] + ["\t".join(_COLUMNS) + "\n"]
    lines += ["\t".join(str(getattr(rec, col)) for col in _COLUMNS) + "\n" for rec in records]
    write_file(path, lines)


def read_manifest(path) -> tuple[list[ManifestRecord], list[str]]:
    """A manifest's records and comments; every error names path."""
    records: list[ManifestRecord] = []
    comments: list[str] = []
    header: list[str] | None = None
    # DomainError is a ValueError, as are a non-integer cell and a non-ASCII byte.
    try:
        with open(path, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    comments.append(line[1:].strip())
                    continue
                cells = line.split("\t")
                if header is None:
                    header = cells
                    if tuple(header) != _COLUMNS:
                        raise DomainError(f"unexpected manifest columns {header}")
                    continue
                if len(cells) != len(_COLUMNS):
                    raise DomainError(f"malformed manifest row: {line!r}")
                # The cells follow the record's fields, _COLUMNS order.
                image, mask, cls, strategy, split, seed, prov = cells
                records.append(ManifestRecord(image, mask, int(cls), strategy, split, int(seed), prov))
    except ValueError as exc:
        raise DomainError(f"{exc} in {path}") from None
    if header is None:
        raise DomainError(f"manifest {path} has no header row")
    return records, comments


def validate_manifest(path) -> list[ManifestRecord]:
    """Read a manifest and require every referenced file to exist.

    Empty path cells (mask-only products) are skipped. Paths resolve
    relative to the manifest's directory.
    """
    records, _ = read_manifest(path)
    base = Path(os.path.dirname(os.path.abspath(path)))
    paths = (p for rec in records for p in (rec.image_path, rec.mask_path) if p)
    missing = [p for p in paths if not (base / p).exists()]
    if missing:
        raise DomainError(f"manifest references missing files: {missing[:5]}")
    return records
