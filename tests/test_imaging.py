"""Codec, grayscale conversion, cropping, and histogram behavior."""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import SRC, limit_memory, rejects
from traysight.imaging import (
    GrayImage,
    Rect,
    crop,
    decode_pnm,
    encode_p5,
    encode_p6,
    histogram,
    load_gray_image,
    save_color_image,
    save_gray_image,
    to_gray,
)


def random_image(rng, height, width):
    return GrayImage(rng.integers(0, 256, size=(height, width)))


_SPACE = b" \t\n\r\x0b\x0c"


def _oracle_skip_space(data, pos):
    # The byte-by-byte header scanner decode_pnm used before its regex, kept as the oracle.
    while pos < len(data):
        byte = data[pos]
        if byte in _SPACE:
            pos += 1
        elif byte == 0x23:  # '#'
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _oracle_read_header_int(data, pos, what):
    pos = _oracle_skip_space(data, pos)
    start = pos
    while pos < len(data) and 0x30 <= data[pos] <= 0x39:
        pos += 1
    if start == pos:
        raise ValueError(f"expected integer {what} at byte offset {start}")
    return int(data[start:pos]), pos


def oracle_decode_pnm(data):
    """decode_pnm with the byte-scanning header reader; P6 goes through scalar to_gray."""
    magic = bytes(data[:2])
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"not a binary PGM/PPM (magic {magic!r})")
    width, pos = _oracle_read_header_int(data, 2, "width")
    height, pos = _oracle_read_header_int(data, pos, "height")
    maxval, pos = _oracle_read_header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ValueError(f"bad image dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255 is accepted)")
    if pos >= len(data) or data[pos] not in _SPACE:
        raise ValueError("missing whitespace separator after maxval")
    pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    have = len(data) - pos
    if have < need:
        raise ValueError(f"pixel data truncated: need {need} bytes, have {have}")
    payload = data[pos : pos + need]
    if channels == 1:
        return [list(payload[y * width : (y + 1) * width]) for y in range(height)]
    return [
        [to_gray(*payload[3 * (y * width + x) : 3 * (y * width + x) + 3]) for x in range(width)]
        for y in range(height)
    ]


def _outcome(decode, data):
    try:
        result = decode(data)
    except ValueError as exc:
        return type(exc), str(exc)
    return result.pixels.tolist() if isinstance(result, GrayImage) else result


def _comments(*ends):
    body = st.binary(max_size=6).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b""))
    return st.builds(lambda text, end: b"#" + text + end, body, st.sampled_from(ends))


_space = st.sampled_from([bytes([b]) for b in _SPACE])
_number = st.sampled_from([b"0", b"1", b"2", b"3", b"01"]) | st.integers(0, 10**6).map(b"%d".__mod__)
_header_token = _space | _comments(b"\r", b"\n", b"") | _number | st.sampled_from([b"255", b"254"])
_gaps = st.lists(_space | _comments(b"\r", b"\n"), min_size=1, max_size=3).map(b"".join)
# Either a header-shaped sequence (width, height and maxval between gaps) or any mix of tokens.
_header = st.tuples(
    _gaps | st.just(b""), _number, _gaps, _number, _gaps, st.just(b"255"), _space
).map(b"".join)
pnm_bytes = st.builds(
    lambda magic, header, payload: magic + header + payload,
    st.sampled_from([b"P5", b"P6"]),
    _header | st.lists(_header_token, max_size=12).map(b"".join),
    st.binary(max_size=40),
)


class TestGrayImage:
    test_rejects_bad_shapes = rejects(
        None,
        lambda: GrayImage(np.zeros((0, 4), dtype=np.uint8)),
        lambda: GrayImage(np.zeros((4, 0), dtype=np.uint8)),
        lambda: GrayImage(np.zeros(4, dtype=np.uint8)),
    )
    test_rejects_out_of_range_values = rejects(
        None, lambda: GrayImage([[0, 256]]), lambda: GrayImage([[-1, 0]])
    )
    test_rejects_non_integer_pixels = rejects(None, lambda: GrayImage(np.array([[0.5, 1.0]])))

    def test_repr_gives_width_by_height(self):
        assert repr(GrayImage(np.zeros((2, 3), dtype=np.uint8))) == "GrayImage(3x2)"

    def test_pixels_are_immutable(self):
        img = GrayImage([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9

    def test_does_not_alias_source_array(self):
        src = np.zeros((2, 2), dtype=np.uint8)
        img = GrayImage(src)
        src[0, 0] = 99
        assert img.pixels[0, 0] == 0

    def test_shares_bytes_through_its_own_array(self):
        src = np.frombuffer(b"\x01\x02\x03\x04", np.uint8).reshape(2, 2)
        img = GrayImage(src)
        src.shape = (1, 4)
        assert img.pixels.shape == (2, 2)
        assert np.shares_memory(img.pixels, src)

    @pytest.mark.parametrize(
        "src",
        [
            np.frombuffer(b"\x01\x02\x03\x04", np.uint8).reshape(2, 2)[:, ::-1],  # not contiguous
            np.frombuffer(b"\x01\x00\x02\x00", np.uint16).reshape(1, 2),  # not uint8
            np.frombuffer(memoryview(b"\x01\x02"), np.uint8).reshape(1, 2),  # base is a memoryview
        ],
        ids=["non-contiguous", "uint16", "memoryview"],
    )
    def test_copies_unless_contiguous_uint8_over_bytes(self, src):
        img = GrayImage(src)
        assert not np.shares_memory(img.pixels, src)
        assert img.pixels.tolist() == src.tolist()


class TestRect:
    test_rejects_negative_origin = rejects(None, lambda: Rect(-1, 0, 2, 2), lambda: Rect(0, -1, 2, 2))
    test_rejects_empty_size = rejects(None, lambda: Rect(0, 0, 0, 2), lambda: Rect(0, 0, 2, 0))


class TestToGray:
    def test_white_black_and_equal_channels(self):
        assert to_gray(255, 255, 255) == 255
        assert to_gray(0, 0, 0) == 0
        assert to_gray(100, 100, 100) == 100

    @given(st.integers(0, 255))
    def test_equal_channels_are_fixed_points(self, v):
        assert to_gray(v, v, v) == v

    @given(
        st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
        st.integers(0, 2),
        st.integers(1, 255),
    )
    def test_monotone_in_each_channel(self, rgb, channel, bump):
        bumped = list(rgb)
        bumped[channel] = min(255, bumped[channel] + bump)
        assert to_gray(*bumped) >= to_gray(*rgb)

    def test_known_weighting(self):
        # 0.299*200 + 0.587*100 + 0.114*50 = 124.2 -> 124
        assert to_gray(200, 100, 50) == 124
        assert to_gray(np.uint8(200), np.int64(100), np.int32(50)) == 124

    test_rejects_red_out_of_range = rejects(
        "channel r", lambda: to_gray(-10, 0, 0), lambda: to_gray(-1, 0, 0), lambda: to_gray(300, 300, 300)
    )
    test_rejects_non_integer_green = rejects(
        "channel g", lambda: to_gray(0, 2.5, 0), lambda: to_gray(0, np.float64(1.0), 0)
    )
    test_rejects_blue_above_255 = rejects("channel b", lambda: to_gray(0, 0, 256))


class TestCrop:
    def test_identity_crop(self):
        rng = np.random.default_rng(11)
        img = random_image(rng, 6, 9)
        out = crop(img, Rect(0, 0, 9, 6))
        assert np.array_equal(out.pixels, img.pixels)

    def test_inner_crop_indexing(self):
        img = GrayImage(np.arange(16).reshape(4, 4))
        assert crop(img, Rect(1, 1, 2, 2)).pixels.tolist() == [[5, 6], [9, 10]]

    test_out_of_bounds_names_rect_and_size = rejects(
        r"Rect\(x=3, y=3, w=2, h=2\).*4x4",
        lambda: crop(GrayImage(np.arange(16).reshape(4, 4)), Rect(3, 3, 2, 2)),
    )
    test_out_of_bounds_in_one_axis = rejects(
        "does not fit",
        lambda: crop(GrayImage(np.arange(16).reshape(4, 4)), Rect(1, 0, 4, 1)),
        lambda: crop(GrayImage(np.arange(16).reshape(4, 4)), Rect(0, 1, 1, 4)),
    )

    def test_crop_copies_pixels(self):
        img = GrayImage(np.arange(16).reshape(4, 4))
        out = crop(img, Rect(0, 0, 2, 2))
        assert out.pixels.base is None or out.pixels.base is not img.pixels


class TestHistogram:
    def test_constant_image(self):
        hist = histogram(GrayImage([[7, 7], [7, 7]]))
        assert hist[7] == 4
        assert hist.sum() == 4

    def test_two_values(self):
        hist = histogram(GrayImage([[0, 255, 255, 255]]))
        assert hist[0] == 1
        assert hist[255] == 3
        assert hist.sum() == 4

    def test_matches_brute_force_pixel_scan(self):
        rng = np.random.default_rng(7)
        img = random_image(rng, 16, 16)
        hist = histogram(img)
        assert hist.sum() == 256
        counts = [0] * 256
        for value in img.pixels.ravel():
            counts[int(value)] += 1
        assert hist.tolist() == counts

    def test_crop_histogram_sums_to_rect_area(self):
        rng = np.random.default_rng(21)
        img = random_image(rng, 24, 30)
        for _ in range(50):
            w = int(rng.integers(1, img.width + 1))
            h = int(rng.integers(1, img.height + 1))
            x = int(rng.integers(0, img.width - w + 1))
            y = int(rng.integers(0, img.height - h + 1))
            assert histogram(crop(img, Rect(x, y, w, h))).sum() == w * h

    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=64).flatmap(
            lambda xs: st.tuples(st.just(xs), st.permutations(xs))
        )
    )
    def test_permutation_invariant(self, pair):
        xs, shuffled = pair
        assert np.array_equal(histogram(GrayImage([xs])), histogram(GrayImage([list(shuffled)])))


class TestPnmCodec:
    def test_p5_passthrough(self, tmp_path):
        path = tmp_path / "tiny.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([7, 7, 7, 7]))
        img = load_gray_image(path)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[7, 7], [7, 7]]

    def test_p6_white_pixel(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 255, 255]))
        assert load_gray_image(path).pixels.tolist() == [[255]]

    def test_p6_matches_float64_expression_on_every_rgb_triple(self):
        # One 256x256 frame per red value: green down the rows, blue across the columns.
        g, b = np.meshgrid(np.arange(256, dtype=np.uint8), np.arange(256, dtype=np.uint8), indexing="ij")
        for r in range(256):
            rgb = np.stack([np.full_like(g, r), g, b], axis=-1)
            f = rgb.astype(np.float64)
            luma = 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]
            expected = np.minimum(np.floor(luma + 0.5), 255.0).astype(np.uint8)
            assert np.array_equal(decode_pnm(encode_p6(rgb)).pixels, expected), r

    def test_p6_decode_peak_memory_per_pixel(self):
        side = 1024
        data = encode_p6(np.zeros((side, side, 3), dtype=np.uint8))
        tracemalloc.start()
        try:
            decode_pnm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The float64 luma and its temporaries; a float64 copy of the RGB payload adds 24 B/px.
        assert peak < 32 * side * side

    @pytest.mark.parametrize("save, encode, frame", [
        pytest.param(save_gray_image, encode_p5, lambda rgb: GrayImage(rgb[..., 0]), id="P5"),
        pytest.param(save_color_image, encode_p6, lambda rgb: rgb, id="P6"),
    ])
    def test_save_writes_without_a_joined_copy(self, tmp_path, save, encode, frame):
        image = frame(np.random.default_rng(3).integers(0, 256, size=(1024, 1024, 3), dtype=np.uint8))
        path = tmp_path / "frame.pnm"
        tracemalloc.start()
        try:
            save(image, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A joined header + payload would be one more 1 MiB (P5) or 3 MiB (P6) copy of the frame.
        assert peak < 64 * 1024
        assert path.read_bytes() == encode(image)

    test_truncated_payload = rejects("16 bytes, have 15", lambda: decode_pnm(b"P5\n4 4\n255\n" + bytes(15)))
    test_bad_magic = rejects("magic", lambda: decode_pnm(b"P3\n1 1\n255\n0"))
    test_non_integer_header = rejects("width at byte offset 3", lambda: decode_pnm(b"P5\nx 2\n255\n" + bytes(4)))
    test_zero_dimension = rejects("dimensions", lambda: decode_pnm(b"P5\n0 2\n255\n"))
    test_encode_p6_validates_input = rejects(
        None,
        lambda: encode_p6(np.zeros((2, 2), dtype=np.uint8)),
        lambda: encode_p6(np.zeros((2, 2, 3), dtype=np.int32)),
        lambda: encode_p6(np.zeros((0, 2, 3), dtype=np.uint8)),
        lambda: encode_p6(np.zeros((2, 0, 3), dtype=np.uint8)),
    )

    def test_encode_p6_one_pixel(self):
        assert encode_p6(np.full((1, 1, 3), 7, dtype=np.uint8)) == b"P6\n1 1\n255\n\x07\x07\x07"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_gray_image(tmp_path / "nope.pgm")

    def test_reads_a_pipe_but_not_a_directory(self, tmp_path):
        with pytest.raises(ValueError) as excinfo:
            load_gray_image(tmp_path)
        assert str(excinfo.value) == f"{tmp_path}: not a regular file or a pipe"
        fifo = tmp_path / "frame.pgm"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(b"P5\n2 1\n255\n\x01\x02",), daemon=True)
        writer.start()
        try:
            assert load_gray_image(fifo).pixels.tolist() == [[1, 2]]
        finally:
            # Lets a writer still waiting for a reader open, write and end.
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(5)
            os.close(reader)

    # Never in process: there, reading /dev/zero would not stop.
    def test_endless_device_refused_at_once(self):
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero on this system")
        script = "from traysight.imaging import load_gray_image\nload_gray_image('/dev/zero')\n"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)}, preexec_fn=limit_memory, timeout=5)
        assert proc.stderr.splitlines()[-1] == "ValueError: /dev/zero: not a regular file or a pipe"

    test_maxval_must_be_255 = rejects(
        "unsupported maxval",
        lambda: decode_pnm(b"P5\n1 1\n254\n\x00"),
        lambda: decode_pnm(b"P5\n1 1\n65535\n\x00\x00"),
    )

    def test_header_comments_tolerated(self):
        data = b"P5\n# made by hand\n2 1 # trailing comment\n255\n\x01\x02"
        assert decode_pnm(data).pixels.tolist() == [[1, 2]]

    def test_crlf_between_header_tokens_tolerated(self):
        # the separator after maxval is always a single byte, so payload starts at \x01
        assert decode_pnm(b"P5\r\n2 1\r\n255\n\x01\x02").pixels.tolist() == [[1, 2]]

    def test_trailing_bytes_ignored(self):
        assert decode_pnm(b"P5\n1 1\n255\n\x07\n").pixels.tolist() == [[7]]

    def test_does_not_alias_input_buffer(self):
        data = bytearray(b"P5\n2 1\n255\n\x01\x02")
        img = decode_pnm(data)
        data[-2:] = b"\x09\x09"
        assert img.pixels.tolist() == [[1, 2]]
        assert not img.pixels.flags.writeable

    def test_aliases_immutable_bytes(self, tmp_path):
        data = b"P5\n2 1\n255\n\x01\x02"
        path = tmp_path / "a.pgm"
        path.write_bytes(data)
        for img in (decode_pnm(data), load_gray_image(path)):
            assert img.pixels.tolist() == [[1, 2]]
            assert not img.pixels.flags.writeable
            with pytest.raises(ValueError):
                img.pixels.setflags(write=True)
        assert np.shares_memory(decode_pnm(data).pixels, np.frombuffer(data, np.uint8))

    def test_read_only_memoryview_over_bytearray_is_copied(self):
        data = bytearray(b"P5\n2 1\n255\n\x01\x02")
        img = decode_pnm(memoryview(data).toreadonly())
        data[-2:] = b"\x09\x09"
        assert img.pixels.tolist() == [[1, 2]]
        assert not img.pixels.flags.writeable

    @given(pnm_bytes)
    @example(b"P5#a\n2#b\r1#c\n255\n\x01\x02")
    @example(b"P52 1 255\n\x01\x02")
    @example(b"P5 2 1 # comment runs to EOF")
    @example(b"P6 1 1 255 # comment runs to EOF")
    def test_header_scan_matches_byte_scanner(self, data):
        assert _outcome(decode_pnm, data) == _outcome(oracle_decode_pnm, data)

    def test_every_byte_between_header_tokens_matches_byte_scanner(self):
        for byte in (bytes([b]) for b in range(256)):
            for data in (
                b"P5" + byte + b"1 1 255 \x07",
                b"P5 1 1" + byte + b"255 \x07",
                b"P5 1 1 255" + byte + b"\x07",
            ):
                assert _outcome(decode_pnm, data) == _outcome(oracle_decode_pnm, data)
