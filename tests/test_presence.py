"""Presence calibration, nearest-reference classification, and the reference store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from traysight.imaging import GrayImage, crop, histogram
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
from traysight.stats import mean_intensity
from traysight.synthgen import SceneSpec, generate_tray
from traysight.tray_grid import TrayLayout, slot_rect

# Values on a 1/64 grid stay exact through shifts and differences, so the
# shift-invariance property holds with equality rather than a tolerance.
dyadic = st.integers(-16_384, 16_384).map(lambda k: k / 64.0)
reference = st.integers(0, 255 * 64).map(lambda k: k / 64.0)


def constant_image(value, width, height):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def small_layout(rows=2, cols=3):
    return TrayLayout(rows, cols, 2, 3, 8, 9, 6, 7)


def make_refs(layout, pairs):
    return PresenceReferenceSet(layout, tuple(SlotReference(w, o) for w, o in pairs))


class TestCalibrate:
    def test_constant_images(self):
        layout = small_layout()
        refs = calibrate_presence(
            constant_image(120, 40, 40), constant_image(40, 40, 40), layout
        )
        assert len(refs.slot_refs) == layout.slot_count
        for ref in refs.slot_refs:
            assert ref.value_with == 120.0
            assert ref.value_without == 40.0

    def test_identical_images_degenerate(self):
        layout = small_layout()
        img = constant_image(90, 40, 40)
        with pytest.raises(ValueError, match="degenerate calibration: slot 0"):
            calibrate_presence(img, img, layout)

    def test_layout_exceeding_image_bounds(self):
        layout = small_layout()
        tiny = constant_image(120, 5, 5)
        with pytest.raises(ValueError, match="does not fit"):
            calibrate_presence(tiny, tiny, layout)

    def test_matches_crop_and_average_oracle(self):
        layout = TrayLayout(3, 4, 5, 6, 14, 15, 10, 11)
        with_img, _ = generate_tray(
            SceneSpec(layout, (True,) * 12, 150.0, 60.0, 5.0, 90.0, seed=101)
        )
        without_img, _ = generate_tray(
            SceneSpec(layout, (False,) * 12, 150.0, 60.0, 5.0, 90.0, seed=202)
        )
        refs = calibrate_presence(with_img, without_img, layout)
        for i, ref in enumerate(refs.slot_refs):
            r = slot_rect(layout, i)
            with_mean = float(with_img.pixels[r.y : r.y + r.h, r.x : r.x + r.w].mean())
            without_mean = float(without_img.pixels[r.y : r.y + r.h, r.x : r.x + r.w].mean())
            assert ref.value_with == pytest.approx(with_mean, abs=1e-9)
            assert ref.value_without == pytest.approx(without_mean, abs=1e-9)


class TestClassifySlot:
    def test_rule_application(self):
        assert classify_slot(110, 120, 40) is True
        assert classify_slot(41, 120, 40) is False

    def test_tie_breaks_to_empty(self):
        assert classify_slot(80, 120, 40) is False

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            classify_slot(float("inf"), 120, 40)

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

    def test_matches_nearest_reference_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            u, w, o = rng.uniform(0, 255, size=3)
            nearer_with = abs(u - w) < abs(u - o)
            assert classify_slot(u, w, o) == nearer_with


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
        assert not any(result.warnings)

    def test_with_calibration_image_is_all_ones(self):
        layout = small_layout()
        with_img = constant_image(120, 40, 40)
        without_img = constant_image(40, 40, 40)
        refs = calibrate_presence(with_img, without_img, layout)
        result = inspect_tray(with_img, layout, refs)
        assert result.bits == (1,) * layout.slot_count

    def test_outlier_reading_flagged_not_reclassified(self):
        layout = TrayLayout(1, 1, 0, 0, 4, 4, 4, 4)
        refs = make_refs(layout, [(120.0, 40.0)])
        result = inspect_tray(constant_image(255, 4, 4), layout, refs, outlier_k=1.0)
        # distance to nearer reference 135 > 1.0 * separation 80
        assert result.bits == (1,)
        assert result.warnings == (True,)

    def test_default_k_keeps_moderate_readings_unflagged(self):
        layout = TrayLayout(1, 1, 0, 0, 4, 4, 4, 4)
        refs = make_refs(layout, [(120.0, 40.0)])
        result = inspect_tray(constant_image(110, 4, 4), layout, refs)
        assert result.warnings == (False,)

    def test_layout_fingerprint_mismatch(self):
        layout = small_layout()
        other = TrayLayout(2, 3, 2, 3, 8, 9, 6, 6)
        refs = calibrate_presence(
            constant_image(120, 40, 40), constant_image(40, 40, 40), layout
        )
        with pytest.raises(ValueError, match="different layout"):
            inspect_tray(constant_image(90, 40, 40), other, refs)

    def test_invalid_outlier_k(self):
        layout = small_layout()
        refs = calibrate_presence(
            constant_image(120, 40, 40), constant_image(40, 40, 40), layout
        )
        with pytest.raises(ValueError, match="outlier_k"):
            inspect_tray(constant_image(90, 40, 40), layout, refs, outlier_k=0.0)

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

    # Slot areas 1, 8 and 16 keep every reading dyadic, so references on a
    # 1/64 grid around it land exactly on the tie or, for a power-of-two
    # outlier_k, exactly on the outlier boundary.
    @settings(deadline=None)
    @given(
        layout=st.sampled_from([
            TrayLayout(1, 1, 0, 0, 1, 1, 1, 1),
            TrayLayout(2, 3, 1, 2, 5, 4, 4, 2),
            TrayLayout(3, 2, 0, 1, 4, 6, 4, 4),
        ]),
        overhang=st.integers(0, 1),
        outlier_k=st.sampled_from([0.25, 1.0, 4.0]) | st.floats(0.01, 8.0),
        data=st.data(),
    )
    def test_matches_per_slot_reference_rule(self, layout, overhang, outlier_k, data):
        last = slot_rect(layout, layout.slot_count - 1)
        shape = (last.y + last.h + overhang, last.x + last.w + overhang)
        image = GrayImage(data.draw(hnp.arrays(np.uint8, shape)))
        readings = [
            mean_intensity(histogram(crop(image, slot_rect(layout, i))))
            for i in range(layout.slot_count)
        ]
        pairs = []
        for u in readings:
            d = data.draw(st.integers(1, 64 * 64)) / 64
            sign = data.draw(st.sampled_from([1, -1]))
            near = u + sign * outlier_k * d
            pair = data.draw(st.sampled_from([(u + d, u - d), (near, near + sign * d), None]))
            if pair is None or not all(0 <= v <= 255 for v in pair) or pair[0] == pair[1]:
                pair = tuple(data.draw(st.lists(reference, min_size=2, max_size=2, unique=True)))
            pairs.append(pair[::-1] if data.draw(st.booleans()) else pair)
        refs = make_refs(layout, pairs)

        result = inspect_tray(image, layout, refs, outlier_k=outlier_k)

        bits = tuple(int(classify_slot(u, w, o)) for u, (w, o) in zip(readings, pairs))
        flags = tuple(
            min(abs(u - w), abs(u - o)) > outlier_k * abs(w - o)
            for u, (w, o) in zip(readings, pairs)
        )
        assert result.bits == bits
        assert result.warnings == flags
        assert all(type(b) is int for b in result.bits)
        assert all(type(f) is bool for f in result.warnings)

    def test_result_length_equals_slot_count(self):
        layout = small_layout(3, 4)
        refs = calibrate_presence(
            constant_image(120, 60, 60), constant_image(40, 60, 60), layout
        )
        result = inspect_tray(constant_image(100, 60, 60), layout, refs)
        assert len(result.bits) == 12
        assert len(result.warnings) == 12


class TestReferenceStore:
    def test_save_load_roundtrip(self):
        layout = small_layout()
        refs = make_refs(
            layout,
            [(120.5, 40.25), (99.0, 1.5), (118.73333333333333, 42.1), (250.0, 0.125),
             (1 / 3 * 255, 200.0), (77.7, 12.000001)],
        )
        assert load_presence_refs(save_presence_refs(refs)) == refs

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

    def test_slot_count_mismatch(self):
        text = (
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 4 5 10 12 60 80 50 70\n"
            + "".join(f"slot {i} with 120.0 without 40.0\n" for i in range(19))
        )
        with pytest.raises(ValueError, match="slot-count mismatch"):
            load_presence_refs(text)

    def test_malformed_slot_line_before_slot_count(self):
        text = (
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 4 5 10 12 60 80 50 70\n"
            "slot 0 with 120.0 without 40.0\n"
            "slot 1 with 120.0\n"
        )
        with pytest.raises(ValueError, match="malformed slot line"):
            load_presence_refs(text)

    def test_version_mismatch(self):
        with pytest.raises(ValueError, match="version"):
            load_presence_refs("TRAYSIGHT-PRESENCE 2\nlayout 1 1 0 0 4 4 4 4\n")

    def test_wrong_magic(self):
        with pytest.raises(ValueError, match="not a presence reference store"):
            load_presence_refs("TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\n")

    def test_malformed_slot_line(self):
        text = "TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 with x without 1\n"
        with pytest.raises(ValueError, match="malformed slot line"):
            load_presence_refs(text)

    def test_out_of_order_slots(self):
        text = (
            "TRAYSIGHT-PRESENCE 1\n"
            "layout 1 2 0 0 4 4 4 4\n"
            "slot 1 with 120.0 without 40.0\n"
            "slot 0 with 120.0 without 40.0\n"
        )
        with pytest.raises(ValueError, match="ascending"):
            load_presence_refs(text)

    def test_load_revalidates_invariants(self):
        text = "TRAYSIGHT-PRESENCE 1\nlayout 1 1 0 0 4 4 4 4\nslot 0 with 120.0 without 120.0\n"
        with pytest.raises(ValueError, match="degenerate"):
            load_presence_refs(text)


class TestReferenceSetInvariants:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expects 6"):
            make_refs(small_layout(), [(120.0, 40.0)])

    def test_wrong_length_message(self):
        with pytest.raises(ValueError) as info:
            make_refs(small_layout(), [(120.0, 40.0)])
        assert str(info.value) == "slot-count mismatch: layout expects 6 slots, got 1"

    def test_out_of_range_value_rejected(self):
        layout = TrayLayout(1, 1, 0, 0, 4, 4, 4, 4)
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            make_refs(layout, [(256.0, 40.0)])

    def test_occupancy_result_bitstring(self):
        assert OccupancyResult((1, 0, 1), (False, False, True)).bitstring == "101"
