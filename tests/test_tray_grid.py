"""Layout parsing, slot-index geometry and the slot-mean feature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import paper_means, rejects
from traysight.cli import BACKGROUND_COLOR, EMPTY_COLOR, OCCUPIED_COLOR, _render_map
from traysight.imaging import GrayImage, Rect, crop, histogram
from traysight.presence import OccupancyResult
from traysight.synthgen import SceneSpec, generate_tray
from traysight.tray_grid import TrayLayout, parse_layout, slot_grid, slot_means, slot_rect, slot_sums

LAYOUT_TEXT = (
    "rows=4\ncols=5\norigin_x=10\norigin_y=12\npitch_x=60\npitch_y=80\nslot_w=50\nslot_h=70"
)


def layout_4x5():
    return TrayLayout(4, 5, 10, 12, 60, 80, 50, 70)


class TestParseLayout:
    def test_direct_parse(self):
        assert parse_layout(LAYOUT_TEXT) == layout_4x5()

    def test_comments_blank_lines_and_spacing(self):
        text = (
            "# tray A\n\n \t\n  # indented\nrows = 4\ncols= 5\norigin_x =10\norigin_y=12  # px\n"
            "pitch_x=60\npitch_y=80\nslot_w=50\nslot_h=70\n"
        )
        assert parse_layout(text) == layout_4x5()

    def test_crlf_tolerated(self):
        assert parse_layout(LAYOUT_TEXT.replace("\n", "\r\n")) == layout_4x5()

    test_overlap_rejected = rejects(
        "slot_w 70 > pitch_x 60", lambda: parse_layout(LAYOUT_TEXT.replace("slot_w=50", "slot_w=70"))
    )
    test_missing_key = rejects("missing.*rows", lambda: parse_layout(LAYOUT_TEXT.removeprefix("rows=4\n")))
    test_unknown_key = rejects("unknown.*depth", lambda: parse_layout(LAYOUT_TEXT + "\ndepth=3"))
    test_unknown_keys_sorted = rejects(
        r"unknown layout key\(s\): a, b, c, d, e, f$",
        lambda: parse_layout(LAYOUT_TEXT + "\nf=1\ne=1\nd=1\nc=1\nb=1\na=1"),
    )
    test_non_integer_value = rejects(
        "'rows' must be an integer", lambda: parse_layout(LAYOUT_TEXT.replace("rows=4", "rows=4.5"))
    )
    test_duplicate_key = rejects("duplicate", lambda: parse_layout(LAYOUT_TEXT + "\nrows=4"))
    test_line_without_equals = rejects("key = value", lambda: parse_layout("rows 4"))
    test_error_names_its_line = rejects("^line 2: expected", lambda: parse_layout("# comment\nrows 4"))
    test_empty_key = rejects("^line 9: missing key before '='", lambda: parse_layout(LAYOUT_TEXT + "\n= 4"))


class TestLayoutInvariants:
    test_rejects_zero_rows = rejects(
        None, lambda: TrayLayout(0, 5, 10, 12, 60, 80, 50, 70), lambda: TrayLayout(4, 0, 10, 12, 60, 80, 50, 70)
    )
    test_rejects_negative_origin = rejects(
        None, lambda: TrayLayout(4, 5, -1, 12, 60, 80, 50, 70), lambda: TrayLayout(4, 5, 10, -1, 60, 80, 50, 70)
    )
    test_rejects_zero_pitch = rejects(
        "pitch must be at least 1",
        lambda: TrayLayout(4, 5, 10, 12, 0, 80, 50, 70),
        lambda: TrayLayout(4, 5, 10, 12, 60, 0, 50, 70),
    )
    test_rejects_empty_slot = rejects(
        "slot size must be at least 1x1",
        lambda: TrayLayout(4, 5, 10, 12, 60, 80, 0, 70),
        lambda: TrayLayout(4, 5, 10, 12, 60, 80, 50, 0),
    )
    test_rejects_vertical_overlap = rejects("slot_h", lambda: TrayLayout(4, 5, 10, 12, 60, 80, 50, 90))

    def test_slot_count(self):
        assert layout_4x5().slot_count == 20

    def test_touching_slots_tile_without_overlap(self):
        layout = TrayLayout(2, 2, 0, 0, 4, 4, 4, 4)  # slot_w == pitch_x, slot_h == pitch_y
        cover = np.zeros((8, 8), dtype=int)
        for i in range(layout.slot_count):
            r = slot_rect(layout, i)
            cover[r.y : r.y + r.h, r.x : r.x + r.w] += 1
        assert (cover == 1).all()


class TestSlotRect:
    def test_origin_slot(self):
        assert slot_rect(layout_4x5(), 0) == Rect(10, 12, 50, 70)

    def test_second_row_first_col(self):
        assert slot_rect(layout_4x5(), 5) == Rect(10, 92, 50, 70)

    test_out_of_range = rejects(
        r"out of range 0\.\.19$", lambda: slot_rect(layout_4x5(), 20), lambda: slot_rect(layout_4x5(), -1)
    )

    def test_scan_order_is_row_major(self):
        layout = layout_4x5()
        rects = [slot_rect(layout, i) for i in range(layout.slot_count)]
        # Left to right within a row, rows top to bottom.
        for i in range(1, len(rects)):
            assert (rects[i].y, rects[i].x) > (rects[i - 1].y, rects[i - 1].x)
        assert [r.x for r in rects[:5]] == sorted(r.x for r in rects[:5])

    def test_rects_are_disjoint(self):
        layout = layout_4x5()
        rects = [slot_rect(layout, i) for i in range(layout.slot_count)]
        assert len(set(rects)) == len(rects)
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                overlap_x = max(0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
                overlap_y = max(0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
                assert overlap_x * overlap_y == 0


def fitted_image(layout, margin_x, margin_y, seed=0):
    """Random image reaching ``margin`` pixels past the last slot's far edge."""
    last = slot_rect(layout, layout.slot_count - 1)
    shape = (last.y + last.h + margin_y, last.x + last.w + margin_x)
    return GrayImage(np.random.default_rng(seed).integers(0, 256, size=shape))


@st.composite
def layouts(draw):
    slot_w = draw(st.integers(1, 6))
    slot_h = draw(st.integers(1, 6))
    return TrayLayout(
        rows=draw(st.integers(1, 4)),
        cols=draw(st.integers(1, 4)),
        origin_x=draw(st.integers(0, 5)),
        origin_y=draw(st.integers(0, 5)),
        pitch_x=draw(st.integers(slot_w, slot_w + 4)),
        pitch_y=draw(st.integers(slot_h, slot_h + 4)),
        slot_w=slot_w,
        slot_h=slot_h,
    )


@st.composite
def layouts_with_images(draw):
    layout = draw(layouts())
    last = slot_rect(layout, layout.slot_count - 1)
    # Margin 0 is an exact fit; a margin below the pitch gap leaves the last
    # gap hanging past the image edge.
    width = last.x + last.w + draw(st.integers(0, 3))
    height = last.y + last.h + draw(st.integers(0, 3))
    return layout, GrayImage(draw(hnp.arrays(np.uint8, (height, width))))


# All-255 and wide enough for one slot, or two side by side, of more than 2**32 // 255 px.
# Built over bytes, which GrayImage aliases instead of copying.
SATURATED_ROWS = GrayImage(np.frombuffer(b"\xff" * (2 * 16_843_010), np.uint8).reshape(2, -1))


# Cases both slot-sum properties check before any drawn one.
SUM_EXAMPLES = [
    (TrayLayout(1, 1, 0, 0, 1, 1, 1, 1), GrayImage(np.array([[255]]))),
    (TrayLayout(1, 1, 3, 2, 5, 4, 5, 4), fitted_image(TrayLayout(1, 1, 3, 2, 5, 4, 5, 4), 0, 0)),
    (TrayLayout(2, 3, 1, 2, 7, 6, 4, 3), fitted_image(TrayLayout(2, 3, 1, 2, 7, 6, 4, 3), 1, 2)),
    (TrayLayout(3, 3, 0, 0, 9, 9, 9, 9), GrayImage(np.full((27, 27), 255))),
    # All-255 slots around each wrap a narrower accumulator would hit: slot_h 257 and 258
    # put the band sums at and past the uint16 limit, areas 256 and 272 the slot sums,
    # and a slot of 16,843,010 px puts them past the uint32 limit.
    (TrayLayout(1, 2, 0, 0, 2, 257, 1, 257), GrayImage(np.full((257, 3), 255))),
    (TrayLayout(2, 1, 0, 0, 1, 259, 1, 258), GrayImage(np.full((517, 1), 255))),
    (TrayLayout(2, 2, 1, 1, 17, 17, 16, 16), GrayImage(np.full((34, 34), 255))),
    (TrayLayout(2, 2, 1, 1, 17, 17, 17, 16), GrayImage(np.full((34, 35), 255))),
    (TrayLayout(1, 1, 0, 0, 16_843_010, 1, 16_843_010, 1), GrayImage(SATURATED_ROWS.pixels[:1])),
    # The same limits for one slot, summed in one reduction: areas 257 and 258 put
    # its sum at and past the uint16 limit, areas 16,843,009 and 16,843,010 at and
    # past the uint32 limit. Two slots past the uint32 limit put the grid's cell-stage
    # sums there.
    (TrayLayout(1, 1, 0, 0, 257, 1, 257, 1), GrayImage(np.full((1, 257), 255))),
    (TrayLayout(1, 1, 2, 1, 43, 6, 43, 6), GrayImage(np.full((7, 45), 255))),
    (TrayLayout(1, 1, 1, 0, 16_843_009, 1, 16_843_009, 1), SATURATED_ROWS),
    (TrayLayout(1, 2, 0, 0, 8_421_505, 2, 8_421_505, 2), SATURATED_ROWS),
]


def sum_examples(test):
    """``test`` with every case of SUM_EXAMPLES as an ``@example``."""
    for case in SUM_EXAMPLES:
        test = example(case)(test)
    return test


class TestSlotMeans:
    @settings(deadline=None)
    @given(layouts_with_images())
    @sum_examples
    def test_bit_identical_to_histogram_oracle(self, case):
        layout, image = case
        assert slot_means(image, layout) == paper_means(image, layout)

    @settings(deadline=None)
    @given(layouts_with_images())
    @sum_examples
    def test_sums_are_exact_unsigned_integers(self, case):
        layout, image = case
        sums = slot_sums(image, layout)
        assert sums.dtype == np.uint64 and sums.shape == (layout.slot_count,)
        assert sums.tolist() == [
            int(np.arange(256) @ histogram(crop(image, slot_rect(layout, i))))
            for i in range(layout.slot_count)
        ]

    @pytest.mark.parametrize(
        "layout",
        [
            TrayLayout(1, 1, 0, 0, 1, 1, 1, 1),
            TrayLayout(1, 1, 3, 2, 5, 4, 5, 4),
            TrayLayout(1, 2, 1, 0, 4, 3, 2, 3),
            TrayLayout(2, 1, 0, 1, 3, 4, 3, 2),
            TrayLayout(2, 3, 1, 2, 7, 6, 4, 3),
        ],
        ids=str,
    )
    def test_one_reduction_for_one_slot_band_path_for_grids(self, layout, monkeypatch):
        # The same sums either way: a grid summed in one reduction is several times
        # slower, and a one-slot layout through the cell-stage einsum about twice as slow.
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(a) or einsum(*a, **kw))
        image = fitted_image(layout, 1, 1)
        assert slot_means(image, layout) == paper_means(image, layout)
        assert bool(calls) == (layout.slot_count > 1)

    def test_row_major_python_floats(self):
        layout = TrayLayout(2, 3, 1, 1, 4, 4, 2, 2)
        pixels = np.zeros((9, 13), dtype=np.uint8)
        for i in range(layout.slot_count):
            r = slot_rect(layout, i)
            pixels[r.y : r.y + r.h, r.x : r.x + r.w] = 10 * i
        means = slot_means(GrayImage(pixels), layout)
        assert means == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        assert all(type(m) is float for m in means)

    @pytest.mark.parametrize("short_x, short_y", [(1, 0), (0, 1)])
    def test_one_pixel_overhang_rejected(self, short_x, short_y):
        layout = TrayLayout(2, 3, 1, 2, 7, 6, 4, 3)
        image = fitted_image(layout, -short_x, -short_y)
        with pytest.raises(ValueError, match="does not fit") as info:
            slot_means(image, layout)
        assert str(slot_rect(layout, 5)) in str(info.value)
        assert f"{image.width}x{image.height}" in str(info.value)


ONE_BY_ONE = TrayLayout(1, 1, 0, 0, 1, 1, 1, 1)
EXACT_FIT = TrayLayout(3, 3, 0, 0, 9, 9, 9, 9)  # slots tile the pitch grid
PITCH_GAPS = TrayLayout(2, 3, 1, 2, 7, 6, 4, 3)


def reference_tray(spec):
    """generate_tray slot by slot: the background draw, then one draw per slot rectangle."""
    layout = spec.layout
    height = layout.origin_y + layout.rows * layout.pitch_y
    width = layout.origin_x + layout.cols * layout.pitch_x
    rng = np.random.default_rng(spec.seed)
    canvas = rng.normal(spec.background, spec.sigma, size=(height, width))
    for i, occupied in enumerate(spec.occupancy):
        r = slot_rect(layout, i)
        mu = spec.mu_with if occupied else spec.mu_without
        canvas[r.y : r.y + r.h, r.x : r.x + r.w] = rng.normal(mu, spec.sigma, size=(r.h, r.w))
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def reference_map(image, layout, bits):
    """_render_map slot by slot: paint each slot rectangle in its bit's colour."""
    rgb = np.full((image.height, image.width, 3), BACKGROUND_COLOR, dtype=np.uint8)
    for i, bit in enumerate(bits):
        r = slot_rect(layout, i)
        rgb[r.y : r.y + r.h, r.x : r.x + r.w] = OCCUPIED_COLOR if bit else EMPTY_COLOR
    return rgb


def slot_bits(layout):
    return st.lists(st.sampled_from([0, 1]), min_size=layout.slot_count, max_size=layout.slot_count)


@st.composite
def scenes(draw):
    layout = draw(layouts())
    level = st.floats(0, 255)
    return SceneSpec(
        layout,
        draw(slot_bits(layout)),
        mu_with=draw(level),
        mu_without=draw(level),
        sigma=draw(st.floats(0, 100)),
        background=draw(level),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def layouts_images_bits(draw):
    layout, image = draw(layouts_with_images())
    return layout, image, tuple(draw(slot_bits(layout)))


def alternating(layout):
    return tuple(i % 2 for i in range(layout.slot_count))


class TestSlotGrid:
    @settings(deadline=None)
    @given(scenes())
    @example(SceneSpec(ONE_BY_ONE, (1,), 200.0, 20.0, 30.0, 90.0, 5))
    @example(SceneSpec(EXACT_FIT, alternating(EXACT_FIT), 130.0, 50.0, 40.0, 85.0, 2**64 - 1))
    @example(SceneSpec(PITCH_GAPS, alternating(PITCH_GAPS), 0.0, 255.0, 100.0, 128.0, 0))
    def test_generate_tray_matches_per_slot_draws(self, spec):
        image, truth = generate_tray(spec)
        assert image.pixels.tobytes() == reference_tray(spec).tobytes()
        assert truth == spec.occupancy

    @settings(deadline=None)
    @given(layouts_images_bits())
    @example((ONE_BY_ONE, GrayImage(np.array([[7]])), (1,)))
    @example((EXACT_FIT, fitted_image(EXACT_FIT, 0, 0), alternating(EXACT_FIT)))
    @example((PITCH_GAPS, fitted_image(PITCH_GAPS, 1, 2), alternating(PITCH_GAPS)))
    def test_render_map_matches_per_slot_painting(self, case):
        layout, image, bits = case
        rgb = _render_map(image, layout, OccupancyResult("".join(map(str, bits)), ()))
        assert rgb.tobytes() == reference_map(image, layout, bits).tobytes()

    @settings(deadline=None)
    @given(layouts_with_images())
    @example((ONE_BY_ONE, GrayImage(np.array([[0]]))))
    @example((EXACT_FIT, fitted_image(EXACT_FIT, 0, 0)))
    @example((PITCH_GAPS, fitted_image(PITCH_GAPS, 1, 2)))
    def test_read_only_image_view_and_write_through(self, case):
        layout, image = case
        grid = slot_grid(image.pixels, layout)
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0, 0, 0, 0] = 0
        pixels = image.pixels.copy()
        expected = image.pixels.copy()
        view = slot_grid(pixels, layout)
        for i in range(layout.slot_count):
            r = slot_rect(layout, i)
            row, col = divmod(i, layout.cols)
            assert np.array_equal(grid[row, col], image.pixels[r.y : r.y + r.h, r.x : r.x + r.w])
            expected[r.y : r.y + r.h, r.x : r.x + r.w] ^= 0xFF
        view ^= 0xFF  # flips every bit, so each slot pixel changes
        assert np.array_equal(pixels, expected)

    test_non_contiguous_array_rejected = rejects(
        None,
        lambda: slot_grid(np.zeros((10, 20), dtype=np.uint8)[:, ::2], TrayLayout(1, 1, 0, 0, 2, 2, 2, 2)),
    )
