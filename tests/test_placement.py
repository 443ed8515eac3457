"""Placement calibration, the z-score tolerance rule, and the model store."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import constant_image, paper_means, rejects
from traysight.imaging import GrayImage, Rect
from traysight.placement import (
    PlacementModel,
    UndersampledWarning,
    calibrate_placement,
    load_placement_model,
    save_placement_model,
    verify_placement,
    verify_value,
)
from traysight.stats import sample_mean, sample_std
from traysight.synthgen import SceneSpec, generate_tray
from traysight.tray_grid import TrayLayout


FULL_ROI = Rect(0, 0, 8, 8)


def sample_model(**changes):
    """The model on FULL_ROI from 30 samples of mean 100 and std 2, with ``changes`` applied."""
    return PlacementModel(**{"roi": FULL_ROI, "n": 30, "mean_value": 100.0, "std_value": 2.0, **changes})


class TestCalibrate:
    def test_constant_samples(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no under-sampled warning expected at n=30
            model = calibrate_placement([constant_image(118)] * 30, FULL_ROI)
        assert model.mean_value == 118.0
        assert model.std_value == 0.0
        assert model.n == 30
        assert model.z == 1.96

    def test_two_point_case(self):
        with pytest.warns(UndersampledWarning):
            model = calibrate_placement(
                [constant_image(100), constant_image(104)], FULL_ROI
            )
        assert model.mean_value == 102.0
        assert model.std_value == pytest.approx(math.sqrt(8), abs=1e-12)

    def test_matches_two_pass_oracle_on_noisy_samples(self):
        roi = Rect(1, 2, 10, 9)
        layout = TrayLayout(1, 1, roi.x, roi.y, roi.w, roi.h, roi.w, roi.h)
        samples = [
            generate_tray(SceneSpec(layout, (True,), 118.0, 118.0, 2.0, 60.0, seed))[0]
            for seed in range(55, 85)
        ]
        values = [paper_means(image, layout)[0] for image in samples]
        oracle = PlacementModel(roi, len(values), sample_mean(values), sample_std(values))
        assert calibrate_placement(samples, roi) == oracle

    def test_under_sampled_warns_but_builds(self):
        with pytest.warns(UndersampledWarning, match="n=10"):
            model = calibrate_placement([constant_image(118)] * 10, FULL_ROI)
        assert model.n == 10

    def test_default_min_n_and_the_warnings_caller(self):
        with pytest.warns(UndersampledWarning, match="n=29 < min_n=30") as caught:
            calibrate_placement([constant_image(118)] * 29, FULL_ROI)
        assert caught[0].filename == __file__

    test_single_sample_is_hard_error = rejects(
        "at least 2", lambda: calibrate_placement([constant_image(118)], FULL_ROI)
    )
    test_roi_outside_sample_rejected = rejects(
        "does not fit", lambda: calibrate_placement([constant_image(118, 4, 4)] * 30, FULL_ROI)
    )


class TestVerify:
    def test_inside_band(self):
        verdict = verify_value(103.9, sample_model())
        assert verdict.correct
        assert verdict.deviation == pytest.approx(3.9, abs=1e-9)
        assert verdict.threshold == pytest.approx(3.92, abs=1e-12)

    def test_just_outside_band(self):
        assert not verify_value(103.93, sample_model()).correct

    def test_epsilon_floor_for_zero_variance(self):
        model = sample_model(std_value=0.0)
        verdict = verify_value(100.3, model)
        assert verdict.correct
        assert verdict.threshold == 0.5

    def test_verdict_symmetric_about_mean(self):
        model = PlacementModel(roi=FULL_ROI, n=30, mean_value=128.0, std_value=1.5)
        for d in (0.0, 1.0, 2.93, 2.95, 10.0):
            assert verify_value(128.0 + d, model).correct == verify_value(128.0 - d, model).correct

    def test_monotone_in_deviation(self):
        model = PlacementModel(roi=FULL_ROI, n=30, mean_value=128.0, std_value=1.5)
        rng = np.random.default_rng(41)
        for _ in range(200):
            v = float(rng.uniform(100, 156))
            if verify_value(v, model).correct:
                closer = 128.0 + (v - 128.0) * rng.uniform(0, 1)
                assert verify_value(closer, model).correct

    def test_verify_placement_crops_model_roi(self):
        model = sample_model(roi=Rect(0, 0, 4, 4))
        ok = verify_placement(constant_image(103, 4, 4), model)
        assert ok.correct and ok.value == 103.0
        ng = verify_placement(constant_image(104, 4, 4), model)
        assert not ng.correct

    @settings(deadline=None)
    @given(
        roi=st.builds(Rect, st.integers(0, 6), st.integers(0, 6), st.integers(1, 8), st.integers(1, 8)),
        margin=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        data=st.data(),
    )
    def test_value_bit_identical_to_histogram_oracle(self, roi, margin, data):
        shape = (roi.y + roi.h + margin[1], roi.x + roi.w + margin[0])
        image = GrayImage(data.draw(hnp.arrays(np.uint8, shape)))
        model = sample_model(roi=roi)
        value = verify_placement(image, model).value
        assert type(value) is float
        assert [value] == paper_means(image, TrayLayout(1, 1, roi.x, roi.y, roi.w, roi.h, roi.w, roi.h))

    def test_depends_only_on_roi_pixels(self):
        model = sample_model(roi=Rect(0, 0, 4, 4))
        inside = np.full((8, 8), 101, dtype=np.uint8)
        altered = inside.copy()
        altered[4:, :] = 255
        altered[:, 4:] = 255
        assert verify_placement(GrayImage(inside), model) == verify_placement(
            GrayImage(altered), model
        )

    test_non_finite_value_rejected = rejects("finite", lambda: verify_value(float("nan"), sample_model()))


class TestModelInvariants:
    test_rejects_tiny_n = rejects("at least 2", lambda: sample_model(n=1))
    test_rejects_negative_std = rejects(None, lambda: sample_model(std_value=-1.0))
    test_rejects_nan_std = rejects("std_value must be finite", lambda: sample_model(std_value=math.nan))
    test_rejects_out_of_range_mean = rejects(
        None,
        lambda: sample_model(mean_value=300.0),
        lambda: sample_model(mean_value=-0.5),
        lambda: sample_model(mean_value=255.5),
    )
    test_rejects_bad_eps_floor = rejects(
        "eps_floor must be finite", lambda: sample_model(eps_floor=-0.5), lambda: sample_model(eps_floor=math.nan)
    )
    test_rejects_int_beyond_float_mean = rejects("outside", lambda: sample_model(mean_value=10**400))
    test_rejects_non_positive_z = rejects(None, lambda: sample_model(z=0.0))
    test_rejects_nan_z = rejects("z must be finite", lambda: sample_model(z=math.nan))
    # mean 100 reaches 155 levels to 255, so any band of 155 or more accepts every frame.
    test_rejects_huge_finite_band = rejects(
        r"^tolerance band 2e\+300 around mean 100\.0 covers", lambda: sample_model(z=1e300)
    )
    test_rejects_band_overflowing_to_inf = rejects(r"^tolerance band inf ", lambda: sample_model(z=1e308))
    test_rejects_eps_floor_at_reach = rejects(
        r"^tolerance band 155\.0 ", lambda: sample_model(std_value=0.0, eps_floor=155.0)
    )

    def test_accepts_range_ends_and_a_band_inside_reach(self):
        sample_model(mean_value=0.0)
        sample_model(mean_value=255.0)
        sample_model(std_value=0.0, eps_floor=154.5)  # mean 100 reaches 155 levels to 255

    def test_roi_layout_is_not_a_field(self):
        def model():
            return PlacementModel(roi=Rect(1, 2, 5, 4), n=30, mean_value=118.0, std_value=2.0)

        built = model()
        assert built._layout == TrayLayout(1, 1, 1, 2, 5, 4, 5, 4)
        before = (repr(built), hash(built), save_placement_model(built))
        verify_placement(constant_image(120), built)
        assert (repr(built), hash(built), save_placement_model(built)) == before
        other = model()
        object.__setattr__(other, "_layout", None)
        assert other == built
        assert (repr(other), hash(other), save_placement_model(other)) == before


class TestModelStore:
    def test_store_format_golden(self):
        model = PlacementModel(roi=Rect(1, 2, 3, 4), n=30, mean_value=118.0, std_value=2.0)
        assert save_placement_model(model).splitlines() == [
            "TRAYSIGHT-PLACEMENT 1",
            "roi 1 2 3 4",
            "n 30",
            "mean 118.000000",
            "std 2.000000",
            "z 1.960000",
            "eps_floor 0.500000",
        ]

    def test_hand_written_file_parses(self):
        text = (
            "TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\nn 45\nmean 117.25\nstd 1.5\nz 2.0\neps_floor 0.25\n"
        )
        model = load_placement_model(text)
        assert model == PlacementModel(
            roi=Rect(0, 0, 4, 4), n=45, mean_value=117.25, std_value=1.5, z=2.0, eps_floor=0.25
        )

    test_missing_line = rejects(
        "must have 7 lines, got 6$",
        lambda: load_placement_model(
            "TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\nn 30\nmean 118.0\nstd 2.0\nz 1.96\n"
        ),
    )
    test_wrong_key_order = rejects(
        "expected 'roi",
        lambda: load_placement_model(
            "TRAYSIGHT-PLACEMENT 1\nn 30\nroi 0 0 4 4\nmean 118.0\nstd 2.0\nz 1.96\neps_floor 0.5\n"
        ),
    )
    test_blank_line = rejects(
        "^malformed placement store: expected 'n ...' line, got ''$",
        lambda: load_placement_model(
            "TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\n\nmean 118.0\nstd 2.0\nz 1.96\neps_floor 0.5\n"
        ),
    )
    test_load_revalidates_invariants = rejects(
        "at least 2",
        lambda: load_placement_model(
            "TRAYSIGHT-PLACEMENT 1\nroi 0 0 4 4\nn 1\nmean 118.0\nstd 2.0\nz 1.96\neps_floor 0.5\n"
        ),
    )
