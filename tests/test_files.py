"""Whole-file outputs are all or nothing, and only one module decides how."""
import ast
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import fmlab
from fmlab._files import write_file
from fmlab.cli import main
from fmlab.manifest import ManifestRecord, write_manifest
from fmlab.metrics import save_feature_set_tsv
from fmlab.rasters import save_mask


def _fmlab(*argv):
    if main([str(a) for a in argv]) != 0:
        raise OSError(f"fmlab {argv[0]} failed")


def _masks(root: Path) -> Path:
    masks = root / "masks"
    masks.mkdir(exist_ok=True)
    save_mask(masks / "a.pgm", np.eye(4, dtype=np.uint8))
    save_mask(masks / "b.pgm", np.ones((4, 4), dtype=np.uint8))
    return masks


def _train(root: Path, version: int) -> None:
    cfg = root / "gauss.cfg"
    cfg.write_text(
        f"task=two_gaussians\nsteps=2\nbatch=4\nwidth={4 + version}\nhidden_layers=1\n"
        "time_embed_dim=4\nn_per_class=4\nlog_every=1\n"
    )
    _fmlab("train", "--config", cfg, "--out", root / "m.fmck")


def _evaluate(root: Path, version: int) -> None:
    masks = _masks(root)
    argv = ["evaluate", "--pred", masks, "--gt", masks, "--threshold", 0.5 + version]
    _fmlab(*argv, "--out", root / "eval.tsv", "--report", root / "report.tsv")


def _stats(root: Path, version: int) -> None:
    masks = _masks(root)
    argv = ["stats", "--masks", masks, "--fraction", 1.0, "--num-classes", 2 + version]
    _fmlab(*argv, "--out", root / "stats.tsv")


def _manifest(root: Path, version: int) -> None:
    write_manifest(root / "manifest.tsv", [ManifestRecord("", f"m{version}.pgm", 0, "real")])


def _features(root: Path, version: int) -> None:
    save_feature_set_tsv(root / "feats.tsv", np.eye(2) + version)


# Every whole-file writer: the file it writes under a directory, and a call
# that writes it there with content that depends on version.
WRITERS = [
    ("m.fmck", _train),
    ("m.fmck.log.tsv", _train),
    ("manifest.tsv", _manifest),
    ("eval.tsv", _evaluate),
    ("report.tsv", _evaluate),
    ("stats.tsv", _stats),
    ("feats.tsv", _features),
]


@pytest.fixture
def umask():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


@pytest.mark.parametrize("name, write", WRITERS)
def test_written_file_has_the_mode_of_a_plain_open(tmp_path, umask, name, write):
    write(tmp_path, 0)
    plain = tmp_path / "plain"
    open(plain, "w").close()
    assert stat.S_IMODE((tmp_path / name).stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("name, write", WRITERS)
def test_failed_write_leaves_the_previous_file(tmp_path, monkeypatch, name, write):
    write(tmp_path, 0)
    path = tmp_path / name
    before = path.read_bytes()
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst) == path:
            raise OSError(f"cannot rename onto {dst}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        write(tmp_path, 1)
    assert path.read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "chunks, error", [(["new\n", "\u00e9\n"], UnicodeEncodeError), ([b"new\n", 3], TypeError)]
)
def test_write_file_failing_on_a_chunk_leaves_the_previous_file(tmp_path, chunks, error):
    path = tmp_path / "out.tsv"
    path.write_bytes(b"old\n")
    with pytest.raises(error):
        write_file(path, chunks)
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_out_naming_a_directory_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["stats", "--masks", str(_masks(tmp_path)), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert out.is_dir() and list(out.iterdir()) == []
    assert list(tmp_path.rglob("*.tmp")) == []


# -- one module decides how a file reaches disk -------------------------------------

SRC = Path(fmlab.__file__).parent
# The writer module, and rasters, whose small files are written in place.
ALLOWED = {"_files.py", "rasters.py"}
# Calls that open or create a file for writing whatever their arguments.
WRITE_CALLS = {"write_text", "write_bytes", "fdopen", "mkstemp", "NamedTemporaryFile"}


def _opens_for_writing(path: Path) -> list[int]:
    """Line numbers of the calls in path that open a file for writing: open()
    or Path.open() with a mode that writes (or one that is not a literal),
    os.open(), and the calls in WRITE_CALLS."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in WRITE_CALLS:
            lines.append(node.lineno)
        elif name == "open":
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
                lines.append(node.lineno)
                continue
            at = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at : at + 1]
            for mode in modes:
                literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not literal or set(mode.value) & set("wax+"):
                    lines.append(node.lineno)
    return lines


def test_only_the_writer_module_and_rasters_open_files_for_writing():
    found = {p.name: _opens_for_writing(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name not in ALLOWED} == {}
    # The scan sees the writes it allows, so an empty result means something.
    assert all(found[name] for name in ALLOWED)
