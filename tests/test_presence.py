"""Presence calibration, nearest-reference classification, and the reference store."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import constant_image, paper_means, rejects
from traysight.imaging import GrayImage
from traysight.presence import (
    OccupancyResult,
    PresenceReferenceSet,
    SlotReference,
    calibrate_presence,
    classify_slot,
    inspect_tray,
    load_presence_refs,
    save_presence_refs,
)
from traysight.synthgen import SceneSpec, generate_tray
from traysight.tray_grid import TrayLayout, slot_rect

# Values on a 1/64 grid stay exact through shifts and differences, so the
# shift-invariance property holds with equality rather than a tolerance.
dyadic = st.integers(-16_384, 16_384).map(lambda k: k / 64.0)
reference = st.integers(0, 255 * 64).map(lambda k: k / 64.0)


def small_layout(rows=2, cols=3):
    return TrayLayout(rows, cols, 2, 3, 8, 9, 6, 7)


def make_refs(layout, pairs):
    return PresenceReferenceSet(layout, tuple(SlotReference(w, o) for w, o in pairs))


def constant_refs():
    """small_layout() calibrated on constant 120 and 40 images."""
    return calibrate_presence(constant_image(120, 40, 40), constant_image(40, 40, 40), small_layout())


class TestCalibrate:
    def test_constant_images(self):
        refs = constant_refs()
        assert len(refs.slot_refs) == small_layout().slot_count
        for ref in refs.slot_refs:
            assert ref.value_with == 120.0
            assert ref.value_without == 40.0

    test_identical_images_degenerate = rejects(
        "degenerate calibration: slot 0",
        lambda: calibrate_presence(constant_image(90, 40, 40), constant_image(90, 40, 40), small_layout()),
    )
    test_layout_exceeding_image_bounds = rejects(
        "does not fit",
        lambda: calibrate_presence(constant_image(120, 5, 5), constant_image(120, 5, 5), small_layout()),
    )

    def test_matches_crop_and_average_oracle(self):
        layout = TrayLayout(3, 4, 5, 6, 14, 15, 10, 11)
        with_img, _ = generate_tray(
            SceneSpec(layout, (True,) * 12, 150.0, 60.0, 5.0, 90.0, seed=101)
        )
        without_img, _ = generate_tray(
            SceneSpec(layout, (False,) * 12, 150.0, 60.0, 5.0, 90.0, seed=202)
        )
        oracle = make_refs(layout, zip(paper_means(with_img, layout), paper_means(without_img, layout)))
        assert calibrate_presence(with_img, without_img, layout) == oracle


class TestClassifySlot:
    def test_rule_application(self):
        assert classify_slot(110, 120, 40) is True
        assert classify_slot(41, 120, 40) is False

    def test_tie_breaks_to_empty(self):
        assert classify_slot(80, 120, 40) is False

    def test_numpy_scalars_give_a_bool(self):
        assert classify_slot(np.float64(110), np.float64(120), np.float64(40)) is True
        assert classify_slot(np.float64(41), np.float64(120), np.float64(40)) is False

    def test_python_ints_beyond_int64(self):
        assert classify_slot(10**30 + 1, 10**30 + 2, 0) is True

    test_non_finite_rejected = rejects("finite", lambda: classify_slot(float("inf"), 120, 40))

    @given(dyadic, dyadic, dyadic, dyadic)
    def test_additive_shift_invariance(self, u, w, o, c):
        assert classify_slot(u + c, w + c, o + c) == classify_slot(u, w, o)

    @given(dyadic, dyadic, dyadic)
    def test_reference_symmetry(self, u, w, o):
        if abs(u - w) != abs(u - o):
            assert classify_slot(u, o, w) == (not classify_slot(u, w, o))
        else:
            assert classify_slot(u, w, o) is False
            assert classify_slot(u, o, w) is False


AREA_15 = TrayLayout(2, 2, 1, 0, 6, 4, 5, 3)
# Every slot sums to 1502: fourteen pixels of 100 and a top-left 102.
AREA_15_IMAGE = np.full((7, 12), 100, np.uint8)
AREA_15_IMAGE[0::4, 1::6] = 102


@st.composite
def reference_rule_cases(draw):
    """An image, a layout that fits it (with or without a pixel to spare), outlier_k and
    one reference pair per slot: around its reading, on its tie or outlier boundary, or random.

    Slot areas 1, 8 and 16 keep every reading dyadic, so references on a 1/64 grid around it
    land exactly on the tie or, for a power-of-two outlier_k, exactly on the outlier boundary.
    Area 15 gives readings that are rounded quotients.
    """
    layout = draw(st.sampled_from([
        TrayLayout(1, 1, 0, 0, 1, 1, 1, 1),
        TrayLayout(2, 3, 1, 2, 5, 4, 4, 2),
        TrayLayout(3, 2, 0, 1, 4, 6, 4, 4),
        AREA_15,
    ]))
    overhang = draw(st.integers(0, 1))
    outlier_k = draw(st.sampled_from([0.25, 1.0, 4.0]) | st.floats(0.01, 8.0))
    last = slot_rect(layout, layout.slot_count - 1)
    shape = (last.y + last.h + overhang, last.x + last.w + overhang)
    image = GrayImage(draw(hnp.arrays(np.uint8, shape)))
    pairs = []
    for u in paper_means(image, layout):
        d = draw(st.integers(1, 64 * 64)) / 64
        sign = draw(st.sampled_from([1, -1]))
        near = u + sign * outlier_k * d
        pair = draw(st.sampled_from([(u + d, u - d), (near, near + sign * d), None]))
        if pair is None or not all(0 <= v <= 255 for v in pair) or pair[0] == pair[1]:
            pair = tuple(draw(st.lists(reference, min_size=2, max_size=2, unique=True)))
        pairs.append(pair[::-1] if draw(st.booleans()) else pair)
    return image, layout, outlier_k, pairs


class TestInspectTray:
    def test_recovers_planted_occupancy(self):
        layout = TrayLayout(1, 5, 2, 2, 10, 10, 8, 8)
        occupancy = (True, False, True, True, False)
        tray, truth = generate_tray(SceneSpec(layout, occupancy, 130.0, 50.0, 2.0, 80.0, seed=7))
        with_img, _ = generate_tray(SceneSpec(layout, (True,) * 5, 130.0, 50.0, 2.0, 80.0, seed=8))
        without_img, _ = generate_tray(
            SceneSpec(layout, (False,) * 5, 130.0, 50.0, 2.0, 80.0, seed=9)
        )
        refs = calibrate_presence(with_img, without_img, layout)
        result = inspect_tray(tray, layout, refs)
        assert result.bitstring == "10110"
        assert result.bits == tuple(int(b) for b in truth)
        assert result.outliers == ()

    def test_with_calibration_image_is_all_ones(self):
        result = inspect_tray(constant_image(120, 40, 40), small_layout(), constant_refs())
        assert result.bits == (1,) * small_layout().slot_count

    def test_outlier_reading_flagged_not_reclassified(self):
        layout = TrayLayout(1, 1, 0, 0, 4, 4, 4, 4)
        refs = make_refs(layout, [(120.0, 40.0)])
        result = inspect_tray(constant_image(255, 4, 4), layout, refs, outlier_k=1.0)
        # distance to nearer reference 135 > 1.0 * separation 80
        assert result.bits == (1,)
        assert result.outliers == (0,)

    def test_default_k_keeps_moderate_readings_unflagged(self):
        layout = TrayLayout(1, 1, 0, 0, 4, 4, 4, 4)
        refs = make_refs(layout, [(120.0, 40.0)])
        result = inspect_tray(constant_image(110, 4, 4), layout, refs)
        assert result.outliers == ()

    test_layout_fingerprint_mismatch = rejects(
        "different layout",
        lambda: inspect_tray(constant_image(90, 40, 40), TrayLayout(2, 3, 2, 3, 8, 9, 6, 6), constant_refs()),
    )
    test_invalid_outlier_k = rejects(
        "outlier_k",
        lambda: inspect_tray(constant_image(90, 40, 40), small_layout(), constant_refs(), outlier_k=0.0),
    )
    test_outlier_k_threshold_overflow = rejects(
        "separation of 255 must be finite",
        lambda: inspect_tray(constant_image(90, 40, 40), small_layout(), constant_refs(), outlier_k=1e308),
        lambda: inspect_tray(
            constant_image(90, 40, 40), small_layout(), constant_refs(), outlier_k=sys.float_info.max / 254.5
        ),
    )

    def test_largest_outlier_k_accepted(self):
        # k * 255 is finite, and k * 256 would not be.
        k = sys.float_info.max / 255.5
        assert inspect_tray(constant_image(90, 40, 40), small_layout(), constant_refs(), outlier_k=k).outliers == ()

    def test_bits_ignore_pixels_outside_slots(self):
        layout = TrayLayout(1, 2, 2, 2, 10, 10, 6, 6)
        base, _ = generate_tray(SceneSpec(layout, (True, False), 140.0, 60.0, 0.0, 90.0, seed=1))
        refs = calibrate_presence(
            generate_tray(SceneSpec(layout, (True, True), 140.0, 60.0, 0.0, 90.0, seed=2))[0],
            generate_tray(SceneSpec(layout, (False, False), 140.0, 60.0, 0.0, 90.0, seed=3))[0],
            layout,
        )
        altered = base.pixels.copy()
        slot_mask = np.zeros(altered.shape, dtype=bool)
        for i in range(layout.slot_count):
            r = slot_rect(layout, i)
            slot_mask[r.y : r.y + r.h, r.x : r.x + r.w] = True
        altered[~slot_mask] = 255
        assert (
            inspect_tray(GrayImage(altered), layout, refs).bits
            == inspect_tray(base, layout, refs).bits
        )

    # The example puts each slot's references on its reading, the quotient
    # 1502 / 15, and on the product 1502 * (1 / 15) one ulp below it, so
    # every bit holds only if the verdict divides its sums by the area.
    @settings(deadline=None)
    @given(reference_rule_cases())
    @example((GrayImage(AREA_15_IMAGE), AREA_15, 1.0, [(1502 / 15, 1502 * (1 / 15))] * 4))
    def test_matches_per_slot_reference_rule(self, case):
        image, layout, outlier_k, pairs = case
        readings = paper_means(image, layout)
        refs = make_refs(layout, pairs)

        result = inspect_tray(image, layout, refs, outlier_k=outlier_k)

        bitstring = "".join(
            "1" if classify_slot(u, w, o) else "0" for u, (w, o) in zip(readings, pairs)
        )
        outliers = tuple(
            i
            for i, (u, (w, o)) in enumerate(zip(readings, pairs))
            if min(abs(u - w), abs(u - o)) > outlier_k * abs(w - o)
        )
        assert result.bitstring == bitstring
        assert result.outliers == outliers
        assert type(result.bitstring) is str
        assert all(type(i) is int for i in result.outliers)

    def test_result_length_equals_slot_count(self):
        layout = small_layout(3, 4)
        refs = calibrate_presence(
            constant_image(120, 60, 60), constant_image(40, 60, 60), layout
        )
        result = inspect_tray(constant_image(100, 60, 60), layout, refs)
        assert len(result.bitstring) == 12
        assert len(result.bits) == 12

    def test_occupancy_result_bitstring(self):
        result = OccupancyResult("101", (2,))
        assert result.bitstring == "101"
        assert result.bits == (1, 0, 1)
        assert all(type(b) is int for b in result.bits)


class TestReferenceStore:
    def test_store_format_golden(self):
        layout = TrayLayout(1, 2, 0, 0, 4, 4, 4, 4)
        refs = make_refs(layout, [(120.5, 40.25), (99.0, 1.5)])
        text = save_presence_refs(refs)
        assert text.splitlines() == [
            "TRAYSIGHT-PRESENCE 1",
            "layout 1 2 0 0 4 4 4 4",
            "slot 0 with 120.500000 without 40.250000",
            "slot 1 with 99.000000 without 1.500000",
        ]

    def test_hand_written_file_parses(self):
        text = (
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 1 2 0 0 4 4 4 4\n"
            "slot 0 with 120.5 without 40.25\n"
            "slot 1 with 99 without 1.5\n"
        )
        refs = load_presence_refs(text)
        assert refs.slot_refs == (SlotReference(120.5, 40.25), SlotReference(99.0, 1.5))

    test_header_only_store = rejects(
        "missing layout line", lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\n")
    )
    test_malformed_layout_line = rejects(
        r"^malformed layout line: 'layout' line must carry 8 value\(s\), got 2$",
        lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\nlayout 1 1\n"),
    )
    test_slot_count_mismatch = rejects(
        "slot-count mismatch",
        lambda: load_presence_refs(
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 4 5 10 12 60 80 50 70\n"
            + "".join(f"slot {i} with 120.0 without 40.0\n" for i in range(19))
        ),
    )
    test_malformed_slot_line_before_slot_count = rejects(
        "malformed slot line",
        lambda: load_presence_refs(
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 4 5 10 12 60 80 50 70\n"
            "slot 0 with 120.0 without 40.0\n"
            "slot 1 with 120.0\n"
        ),
    )
    test_malformed_slot_line = rejects(
        "malformed slot line",
        lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 with x without 1\n"),
        lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nSLOT 0 with 2 without 1\n"),
        lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 with 2 WITHOUT 1\n"),
        lambda: load_presence_refs("TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 WITH 2 without 1\n"),
    )
    test_out_of_order_slots = rejects(
        "ascending without gaps: expected 0, got '1'$",
        lambda: load_presence_refs(
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 1 2 0 0 4 4 4 4\n"
            "slot 1 with 120.0 without 40.0\n"
            "slot 0 with 120.0 without 40.0\n"
        ),
    )
    test_load_revalidates_invariants = rejects(
        "degenerate",
        lambda: load_presence_refs(
            "TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 with 120.0 without 120.0\n"
        ),
    )


def one_slot_refs(value_with, value_without):
    return make_refs(TrayLayout(1, 1, 0, 0, 4, 4, 4, 4), [(value_with, value_without)])


class TestReferenceSetInvariants:
    test_out_of_range_value_rejected = rejects(r"\[0, 255\]", lambda: one_slot_refs(256.0, 40.0))
    test_nan_with_rejected = rejects(
        r"^slot 0: with reference nan outside", lambda: one_slot_refs(math.nan, 40.0)
    )
    test_non_finite_without_rejected = rejects(
        r"^slot 0: without reference (inf|nan) outside",
        lambda: one_slot_refs(120.0, math.inf),
        lambda: one_slot_refs(120.0, math.nan),
    )
    test_without_outside_range_rejected = rejects(
        r"^slot 0: without reference", lambda: one_slot_refs(120.0, -0.5), lambda: one_slot_refs(120.0, 255.5)
    )
    test_both_out_of_range_reports_with = rejects(
        r"^slot 0: with reference -1\.0 outside", lambda: one_slot_refs(-1.0, 300.0)
    )
    test_int_beyond_float_rejected = rejects(
        r"^slot 0: with reference 10+ outside", lambda: one_slot_refs(10**400, 40.0)
    )
    test_first_failing_slot_wins = rejects(
        r"^degenerate calibration: slot 1 \(row 1, col 2\)",
        lambda: make_refs(small_layout(), [(120.0, 40.0), (70.0, 70.0), (300.0, 40.0)] + [(120.0, 40.0)] * 3),
    )
    test_non_numeric_reference_is_a_type_error = rejects(
        None, lambda: one_slot_refs("1.5", 40.0), error=TypeError
    )

    def test_list_built_set_is_hashable_and_equals_its_tuple_twin(self):
        pairs = [(120.0, 40.0)] * small_layout().slot_count
        listed = PresenceReferenceSet(small_layout(), [SlotReference(w, o) for w, o in pairs])
        assert listed == make_refs(small_layout(), pairs)
        assert hash(listed) == hash(make_refs(small_layout(), pairs))

    def test_range_ends_accepted(self):
        make_refs(TrayLayout(1, 2, 0, 0, 4, 4, 4, 4), [(255.0, 0.0), (0.0, 255.0)])

    def test_wrong_length_message(self):
        with pytest.raises(ValueError) as info:
            make_refs(small_layout(), [(120.0, 40.0)])
        assert str(info.value) == "slot-count mismatch: layout expects 6 slots, got 1"

    def test_reference_arrays_are_not_fields(self):
        layout = small_layout()
        refs = make_refs(layout, [(120.0, 40.0)] * 6)
        before = (repr(refs), hash(refs), save_presence_refs(refs))
        inspect_tray(constant_image(90, 40, 40), layout, refs)
        assert (repr(refs), hash(refs), save_presence_refs(refs)) == before
        assert refs == make_refs(layout, [(120.0, 40.0)] * 6)
