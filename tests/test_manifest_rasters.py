import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlab.errors import DomainError, ShapeError
from fmlab.manifest import (
    SPLITS,
    STRATEGIES,
    ManifestRecord,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from fmlab.rasters import (
    load_image,
    load_mask,
    load_pgm,
    load_ppm,
    save_image,
    save_mask,
    save_pgm,
    save_ppm,
)


# -- rasters -----------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    raster = rng.integers(0, 256, (5, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    save_pgm(path, raster)
    assert np.array_equal(load_pgm(path), raster)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    raster = rng.integers(0, 256, (4, 3, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    save_ppm(path, raster)
    assert np.array_equal(load_ppm(path), raster)


def test_mask_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    mask = (rng.random((9, 6)) < 0.5).astype(np.uint8)
    path = tmp_path / "mask.pgm"
    save_mask(path, mask)
    assert np.array_equal(load_mask(path), mask)
    # Save-load-save must be byte stable.
    again = tmp_path / "mask2.pgm"
    save_mask(again, load_mask(path))
    assert path.read_bytes() == again.read_bytes()


def test_mask_threshold_at_128(tmp_path):
    raster = np.array([[0, 127, 128, 255]], dtype=np.uint8)
    path = tmp_path / "soft.pgm"
    save_pgm(path, raster)
    assert np.array_equal(load_mask(path), np.array([[0, 0, 1, 1]], dtype=np.uint8))


def test_image_quantization_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    image = rng.random((6, 6))
    path = tmp_path / "img.pgm"
    save_image(path, image)
    loaded = load_image(path)
    assert np.max(np.abs(loaded - image)) <= 0.5 / 255 + 1e-12
    # Quantized values round-trip exactly afterwards.
    second = tmp_path / "img2.pgm"
    save_image(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "weird.pgm"
    pixels = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n 3 # widths\n2\n255\n" + pixels)
    raster = load_pgm(path)
    assert raster.shape == (2, 3)
    assert raster.ravel().tolist() == list(range(6))


def test_raster_error_cases(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(DomainError):
        load_pgm(bad)
    truncated = tmp_path / "trunc.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(DomainError):
        load_pgm(truncated)
    with pytest.raises(ShapeError):
        save_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(DomainError):
        save_mask(tmp_path / "m.pgm", np.full((2, 2), 2, dtype=np.uint8))
    with pytest.raises(ShapeError):
        save_image(tmp_path / "i.pgm", np.zeros((2, 2, 4)))


def _write_netpbm(path, magic: str, shape, maxval: int, pixels) -> None:
    header = f"{magic}\n{shape[1]} {shape[0]}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + np.asarray(pixels, dtype=np.uint8).tobytes())


@pytest.mark.parametrize(
    "magic, maxval, message",
    [
        ("P6", 255, "{path} is not a P5 file"),
        ("P5", 0, "unsupported maxval 0 in {path}"),
        ("P5", 256, "unsupported maxval 256 in {path}"),
    ],
    ids=["ppm", "maxval-0", "maxval-256"],
)
def test_a_raster_the_reader_cannot_take_names_its_path(tmp_path, magic, maxval, message):
    # A PPM saved as .pgm, say among 500 masks, must point to its own file.
    path = tmp_path / "mask.pgm"
    _write_netpbm(path, magic, (1, 1), maxval, [0, 0, 0])
    with pytest.raises(DomainError) as exc:
        load_pgm(path)
    assert str(exc.value) == message.format(path=path)


def test_maxval_below_255_rescales_on_load(tmp_path):
    path = tmp_path / "binary.pgm"
    _write_netpbm(path, "P5", (1, 2), 1, [1, 0])
    assert load_mask(path).tolist() == [[1, 0]]
    _write_netpbm(path, "P5", (1, 1), 15, [15])
    assert load_image(path).tolist() == [[1.0]]
    # Every maxval, every value: masks threshold at the midpoint, images land
    # within half a gray level of v / maxval.
    for maxval in range(1, 256):
        values = np.arange(maxval + 1)
        _write_netpbm(path, "P5", (1, maxval + 1), maxval, values)
        assert np.array_equal(load_mask(path)[0], (2 * values >= maxval).astype(np.uint8))
        assert np.max(np.abs(load_image(path)[0] - values / maxval)) <= 0.5 / 255 + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    data=st.integers(1, 255).flatmap(
        lambda maxval: st.tuples(
            st.just(maxval),
            st.sampled_from(["P5", "P6"]),
            st.integers(1, 5),
            st.integers(1, 5),
            st.lists(st.integers(0, maxval), min_size=75, max_size=75),
        )
    )
)
def test_load_scales_every_maxval_to_0_255(tmp_path_factory, data):
    maxval, magic, h, w, pool = data
    channels = 3 if magic == "P6" else 1
    shape = (h, w, 3) if channels == 3 else (h, w)
    values = np.array(pool[: h * w * channels]).reshape(shape)
    path = tmp_path_factory.getbasetemp() / f"maxval.{'ppm' if channels == 3 else 'pgm'}"
    _write_netpbm(path, magic, shape, maxval, values.ravel())
    raw = (load_ppm if channels == 3 else load_pgm)(path)
    assert raw.dtype == np.uint8 and raw.shape == shape
    assert raw.ravel().tolist() == [round(v * 255 / maxval) for v in values.ravel().tolist()]
    assert np.max(np.abs(load_image(path) - values / maxval)) <= 0.5 / 255 + 1e-12
    if channels == 1:
        assert np.array_equal(load_mask(path), (2 * values >= maxval).astype(np.uint8))


def test_pixel_above_maxval_is_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    _write_netpbm(path, "P5", (1, 2), 15, [3, 16])
    with pytest.raises(DomainError, match="above maxval"):
        load_pgm(path)


@pytest.mark.parametrize("suffix, raster", [("pgm", [[0, 255]]), ("ppm", [[[0, 128, 255]]])])
def test_trailing_bytes_after_pixels_are_rejected(tmp_path, suffix, raster):
    path = tmp_path / f"img.{suffix}"
    save, load = (save_pgm, load_pgm) if suffix == "pgm" else (save_ppm, load_ppm)
    save(path, np.array(raster, dtype=np.uint8))
    assert np.array_equal(load(path), raster)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(DomainError, match="trailing bytes"):
        load(path)



@pytest.mark.parametrize(
    "header, ok",
    [
        (b"P5\n3#c\n1\n255\n", True),  # a comment right after a number
        (b"P5\t3\r\n# x\r\n\x0b1\x0c255 ", True),  # every whitespace byte, CRLF comments
        (b"P5\n+3 1\n255\n", False),  # a signed number
        (b"P5\n3 1\n255", False),  # no whitespace byte after maxval
        (b"P53 1\n255\n", False),  # no separator after the magic
        (b"P5\n3 1 # c\n255\n", True),
        (b"P5\n3 1\n255#c\n", False),  # one whitespace byte must end maxval
        (b"P5\n# never ends", False),
    ],
)
def test_header_grammar(tmp_path, header, ok):
    path = tmp_path / "h.pgm"
    path.write_bytes(header + bytes([10, 32, 9]))
    if ok:
        assert load_pgm(path).tolist() == [[10, 32, 9]]
    else:
        with pytest.raises(DomainError):
            load_pgm(path)


_SEPARATOR = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
        st.binary(max_size=6).filter(lambda b: b"\n" not in b).map(lambda b: b"#" + b + b"\n"),
    ),
    min_size=1,
    max_size=4,
).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(
    seps=st.tuples(_SEPARATOR, _SEPARATOR, _SEPARATOR),
    end=st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
    h=st.integers(1, 3),
    w=st.integers(1, 3),
    pixels=st.binary(min_size=27, max_size=27),
    channels=st.sampled_from([1, 3]),
)
def test_any_separator_reads_the_same_raster(tmp_path_factory, seps, end, h, w, pixels, channels):
    # Whitespace and comments between the fields never change the pixels,
    # and only one whitespace byte ends the header, whatever the pixels start with.
    magic, load = (b"P6", load_ppm) if channels == 3 else (b"P5", load_pgm)
    data = pixels[: h * w * channels]
    fields = (b"%d" % w, b"%d" % h, b"255")
    header = magic + b"".join(sep + field for sep, field in zip(seps, fields)) + end
    path = tmp_path_factory.getbasetemp() / "sep.pnm"
    path.write_bytes(header + data)
    raster = load(path)
    assert raster.shape[:2] == (h, w)
    assert raster.tobytes() == data

# -- manifest -----------------------------------------------------------------


def _records():
    return [
        ManifestRecord("images/a.pgm", "masks/a.pgm", 0, "real", "train", 1, "src=a"),
        ManifestRecord("images/b.pgm", "masks/b.pgm", 3, "A_mask_gen", "", 2, "idx=1"),
        ManifestRecord("", "masks/c.pgm", 1, "B_propagated", "val", 3, "variant=0"),
    ]


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.tsv"
    write_manifest(path, _records(), comments=["policy=test x=3"])
    records, comments = read_manifest(path)
    assert records == _records()
    assert comments == ["policy=test x=3"]


def test_manifest_validation_checks_files(tmp_path):
    path = tmp_path / "manifest.tsv"
    (tmp_path / "images").mkdir()
    (tmp_path / "masks").mkdir()
    for rec in _records():
        if rec.image_path:
            (tmp_path / rec.image_path).write_bytes(b"")
        (tmp_path / rec.mask_path).write_bytes(b"")
    write_manifest(path, _records())
    validate_manifest(path)  # all present (empty image path skipped)
    (tmp_path / "masks/c.pgm").unlink()
    with pytest.raises(DomainError, match="missing"):
        validate_manifest(path)


def test_manifest_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("image_path\tmask_path\n")
    with pytest.raises(DomainError):
        read_manifest(path)
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    with pytest.raises(DomainError):
        read_manifest(empty)


_HEADER_ROW = "image_path\tmask_path\tcoverage_class\tstrategy\tsplit\tseed\tprovenance\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("image_path\tmask_path\n", "unexpected manifest columns ['image_path', 'mask_path']"),
        (_HEADER_ROW + "i.pgm\tm.pgm\t0\n", "malformed manifest row: 'i.pgm\\tm.pgm\\t0'"),
        (_HEADER_ROW + "\tm.pgm\tx\treal\t\t0\t\n", "invalid literal for int() with base 10: 'x'"),
        (_HEADER_ROW + "\tm.pgm\t0\treal\t\t1.5\t\n", "invalid literal for int() with base 10: '1.5'"),
        (_HEADER_ROW + "\tm.pgm\t0\tbogus\t\t0\t\n", "unknown strategy 'bogus'"),
        (_HEADER_ROW + "\tm\u00e9.pgm\t0\treal\t\t0\t\n", "'ascii' codec can't decode byte 0xc3"),
    ],
    ids=["columns", "row", "coverage_class", "seed", "strategy", "non-ascii"],
)
def test_manifest_errors_name_the_manifest(tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DomainError) as err:
        read_manifest(path)
    assert str(err.value).startswith(message)
    assert str(err.value).endswith(f" in {path}")


def test_record_field_validation():
    with pytest.raises(DomainError):
        ManifestRecord("i", "m", 0, "bogus_strategy")
    with pytest.raises(DomainError):
        ManifestRecord("i", "m", 0, "real", split="holdout")
    rec = ManifestRecord("i", "m", 0, "real")
    assert rec.with_split("test").split == "test"


@pytest.mark.parametrize("field", ["image_path", "mask_path", "provenance"])
@pytest.mark.parametrize("char", ["\t", "\r", "\n"])
def test_record_rejects_tab_and_line_breaks(field, char):
    fields = dict(image_path="i.pgm", mask_path="m.pgm", provenance="base=a.pgm")
    fields[field] = f"a{char}b.pgm"
    with pytest.raises(DomainError, match="tab or line break"):
        ManifestRecord(coverage_class=0, strategy="real", **fields)


@pytest.mark.parametrize("field", ["image_path", "mask_path", "provenance"])
def test_record_rejects_non_ascii_text(field):
    fields = dict(image_path="i.pgm", mask_path="m.pgm", provenance="base=a.pgm")
    fields[field] = "base=\u00e9.pgm"
    with pytest.raises(DomainError, match="non-ASCII"):
        ManifestRecord(coverage_class=0, strategy="real", **fields)


def test_record_rejects_image_path_read_as_comment():
    with pytest.raises(DomainError, match="comment"):
        ManifestRecord("#a.pgm", "m.pgm", 0, "real")
    assert ManifestRecord("", "#m.pgm", 0, "real").mask_path == "#m.pgm"


@pytest.mark.parametrize("comment", ["skipped a\nb.pgm", "skipped a\rb.pgm"])
def test_write_manifest_rejects_line_break_in_comment(tmp_path, comment):
    path = tmp_path / "manifest.tsv"
    with pytest.raises(DomainError, match="line break"):
        write_manifest(path, _records(), comments=[comment])
    assert not path.exists()


def test_write_manifest_rejects_non_ascii_comment(tmp_path):
    path = tmp_path / "manifest.tsv"
    with pytest.raises(DomainError, match="non-ASCII"):
        write_manifest(path, _records(), comments=["skipped \u00e9.pgm"])
    assert not path.exists()


# Text a manifest carries: ASCII without tab or line breaks in record fields;
# comments may hold tabs but no line break and lose surrounding whitespace.
_FIELD_TEXT = st.text(st.characters(max_codepoint=127, blacklist_characters="\t\r\n"))
_COMMENT_TEXT = st.text(st.characters(max_codepoint=127, blacklist_characters="\r\n")).map(
    str.strip
)
_RECORDS = st.builds(
    ManifestRecord,
    image_path=_FIELD_TEXT.filter(lambda s: not s.startswith("#")),
    mask_path=_FIELD_TEXT,
    coverage_class=st.integers(-(2**63), 2**63),
    strategy=st.sampled_from(STRATEGIES),
    split=st.sampled_from(SPLITS),
    seed=st.integers(0, 2**64),
    provenance=_FIELD_TEXT,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_RECORDS, max_size=5), st.lists(_COMMENT_TEXT, max_size=3))
def test_manifest_round_trips_what_it_can_carry(tmp_path_factory, records, comments):
    path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
    write_manifest(path, records, comments=comments)
    assert read_manifest(path) == (records, comments)
