"""Deterministic synthetic scenes: noise model, ground truth, manifests."""

import sys

import numpy as np

from helpers import paper_means, rejects
from traysight.imaging import encode_p5
from traysight.presence import calibrate_presence, inspect_tray
from traysight.synthgen import SceneSpec, generate_tray, parse_scene
from traysight.tray_grid import TrayLayout, slot_rect


def spec_1x2(**overrides):
    layout = TrayLayout(1, 2, 2, 2, 10, 10, 8, 8)
    base = dict(
        layout=layout,
        occupancy=(True, False),
        mu_with=120.0,
        mu_without=40.0,
        sigma=0.0,
        background=70.0,
        seed=77,
    )
    base.update(overrides)
    return SceneSpec(**base)


MANIFEST = (
    "rows = 1\ncols = 2\norigin_x = 2\norigin_y = 2\npitch_x = 10\npitch_y = 10\n"
    "slot_w = 8\nslot_h = 8\noccupancy = 10\nmu_with = 120.000000\n"
    "mu_without = 40.000000\nsigma = 0.000000\nbackground = 70.000000\nseed = 77\n"
)


class TestGenerateTray:
    def test_noiseless_all_occupied(self):
        layout = TrayLayout(2, 2, 1, 1, 6, 6, 4, 4)
        spec = SceneSpec(layout, (True,) * 4, 120.4, 40.0, 0.0, 70.0, seed=1)
        image, truth = generate_tray(spec)
        assert truth == (True,) * 4
        assert paper_means(image, layout) == [120.0] * 4  # round(120.4)

    def test_noiseless_mixed_occupancy(self):
        image, truth = generate_tray(spec_1x2())
        assert truth == (True, False)
        r0, r1 = slot_rect(spec_1x2().layout, 0), slot_rect(spec_1x2().layout, 1)
        assert (image.pixels[r0.y : r0.y + r0.h, r0.x : r0.x + r0.w] == 120).all()
        assert (image.pixels[r1.y : r1.y + r1.h, r1.x : r1.x + r1.w] == 40).all()
        assert image.pixels[0, 0] == 70  # background

    def test_image_dimensions_cover_grid(self):
        image, _ = generate_tray(spec_1x2())
        assert image.width == 2 + 2 * 10
        assert image.height == 2 + 1 * 10

    def test_per_slot_means_obey_lln_bound(self):
        layout = TrayLayout(25, 40, 2, 2, 12, 12, 10, 10)  # 1000 slots of 100 px
        rng = np.random.default_rng(99)
        occupancy = tuple(bool(b) for b in rng.integers(0, 2, size=1000))
        spec = SceneSpec(layout, occupancy, 150.0, 60.0, 2.0, 90.0, seed=4242)
        image, _ = generate_tray(spec)
        bound = 5 * spec.sigma / np.sqrt(100)
        for roi_mean, occupied in zip(paper_means(image, layout), occupancy):
            mu = spec.mu_with if occupied else spec.mu_without
            assert abs(roi_mean - mu) <= bound

    def test_deterministic_per_seed(self):
        spec = spec_1x2(sigma=3.0)
        first, _ = generate_tray(spec)
        second, _ = generate_tray(spec)
        assert encode_p5(first) == encode_p5(second)

    def test_different_seed_differs(self):
        a, _ = generate_tray(spec_1x2(sigma=3.0, seed=1))
        b, _ = generate_tray(spec_1x2(sigma=3.0, seed=2))
        assert encode_p5(a) != encode_p5(b)

    def test_separation_soundness(self):
        # 10-sigma class separation on 100-px slots: recovery must be exact.
        layout = TrayLayout(3, 3, 2, 2, 12, 12, 10, 10)
        rng = np.random.default_rng(13)
        occupancy = tuple(bool(b) for b in rng.integers(0, 2, size=9))
        mu_with, mu_without, sigma = 140.0, 60.0, 8.0
        tray, _ = generate_tray(SceneSpec(layout, occupancy, mu_with, mu_without, sigma, 90.0, 100))
        with_img, _ = generate_tray(
            SceneSpec(layout, (True,) * 9, mu_with, mu_without, sigma, 90.0, 200)
        )
        without_img, _ = generate_tray(
            SceneSpec(layout, (False,) * 9, mu_with, mu_without, sigma, 90.0, 300)
        )
        refs = calibrate_presence(with_img, without_img, layout)
        assert inspect_tray(tray, layout, refs).bits == tuple(int(b) for b in occupancy)


class TestSceneSpecValidation:
    test_occupancy_length = rejects("occupancy", lambda: spec_1x2(occupancy=(True,)))
    test_mu_range = rejects("mu_with", lambda: spec_1x2(mu_with=300.0))
    test_int_beyond_float_rejected = rejects("background", lambda: spec_1x2(background=10**400))
    test_sigma_non_negative = rejects("sigma", lambda: spec_1x2(sigma=-1.0), lambda: spec_1x2(sigma=10**400))
    test_seed_range = rejects(
        "seed", lambda: spec_1x2(seed=-1), lambda: spec_1x2(seed=2**64), lambda: spec_1x2(seed=1.5)
    )

    def test_largest_finite_sigma_accepted(self):
        assert spec_1x2(sigma=sys.float_info.max).sigma == sys.float_info.max

    def test_int_occupancy_stored_as_a_tuple_of_bools(self):
        occupancy = spec_1x2(occupancy=[1, 0]).occupancy
        assert occupancy == (True, False)
        assert all(type(bit) is bool for bit in occupancy)


class TestSceneManifest:
    def test_hand_written_manifest(self):
        text = (
            "# demo scene\nrows=1\ncols=2\norigin_x=2\norigin_y=2\npitch_x=10\npitch_y=10\n"
            "slot_w=8\nslot_h=8\noccupancy=01\nmu_with=120\nmu_without=40\nsigma=1.5\n"
            "background=70\nseed=9\n"
        )
        spec = parse_scene(text)
        assert spec.occupancy == (False, True)
        assert spec.sigma == 1.5

    test_unknown_key_rejected = rejects("unknown.*shine", lambda: parse_scene(MANIFEST + "shine = 3\n"))
    test_missing_key_rejected = rejects(
        "missing.*seed", lambda: parse_scene(MANIFEST.removesuffix("\nseed = 77\n"))
    )
    test_bad_occupancy_chars = rejects(
        "occupancy", lambda: parse_scene(MANIFEST.replace("occupancy = 10", "occupancy = 1x"))
    )
    test_occupancy_length_mismatch = rejects(
        "occupancy", lambda: parse_scene(MANIFEST.replace("occupancy = 10", "occupancy = 101"))
    )
