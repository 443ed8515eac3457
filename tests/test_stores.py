"""The versioned ASCII envelope shared by the presence reference store and the placement model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from traysight._fmt import format_decimal
from traysight.imaging import Rect
from traysight.placement import PlacementModel, load_placement_model, save_placement_model
from traysight.presence import (
    PresenceReferenceSet,
    SlotReference,
    load_presence_refs,
    save_presence_refs,
)
from traysight.tray_grid import TrayLayout

PRESENCE = (
    "presence reference",
    save_presence_refs,
    load_presence_refs,
    PresenceReferenceSet(
        TrayLayout(1, 2, 0, 0, 4, 4, 4, 4), (SlotReference(120.5, 40.25), SlotReference(99.0, 1.5))
    ),
)
PLACEMENT = (
    "placement model",
    save_placement_model,
    load_placement_model,
    PlacementModel(roi=Rect(1, 2, 3, 4), n=30, mean_value=118.0, std_value=2.0),
)


@pytest.mark.parametrize(
    "store, other", [(PRESENCE, PLACEMENT), (PLACEMENT, PRESENCE)], ids=["presence", "placement"]
)
def test_envelope(store, other):
    kind, save, load, sample = store
    _, other_save, _, other_sample = other
    text = save(sample)
    header, body = text.split("\n", 1)
    magic = header.split()[0]
    other_text = other_save(other_sample)
    for broken, message in [
        ("", f"empty {kind} store"),
        (" \n\t\r\n\n", f"empty {kind} store"),
        (other_text, f"not a {kind} store (got {other_text.splitlines()[0]!r})"),
        (f"{magic} 2\n{body}", f"unsupported {kind} store version '2'"),
    ]:
        with pytest.raises(ValueError) as info:
            load(broken)
        assert str(info.value) == message
    assert load(text + "\n \n\t\n") == sample
    assert load(text.replace("\n", "\r\n")) == sample


@pytest.mark.parametrize("value, text", [(0.5, "0.500000"), (255, "255.000000"), (1.5e-07, "1.5e-07"),
                                         (1e-05, "1e-05"), (5e-324, "5e-324")])
def test_format_decimal(value, text):
    assert format_decimal(value) == text


reals = st.floats(0, 255)


@st.composite
def layouts(draw):
    slot_w = draw(st.integers(1, 10**4))
    slot_h = draw(st.integers(1, 10**4))
    return TrayLayout(
        rows=draw(st.integers(1, 4)),
        cols=draw(st.integers(1, 4)),
        origin_x=draw(st.integers(0, 10**6)),
        origin_y=draw(st.integers(0, 10**6)),
        pitch_x=draw(st.integers(slot_w, 2 * slot_w)),
        pitch_y=draw(st.integers(slot_h, 2 * slot_h)),
        slot_w=slot_w,
        slot_h=slot_h,
    )


reference_sets = layouts().flatmap(
    lambda layout: st.lists(
        st.builds(SlotReference, reals, reals).filter(lambda r: r.value_with != r.value_without),
        min_size=layout.slot_count,
        max_size=layout.slot_count,
    ).map(lambda refs: PresenceReferenceSet(layout, tuple(refs)))
)
# z * std <= 126 and eps_floor <= 127 keep every band below 127.5, the least reach
# of a mean in [0, 255], so every drawn model can reject.
models = st.builds(
    PlacementModel,
    roi=st.builds(Rect, *(st.integers(0, 10**6),) * 2, *(st.integers(1, 10**6),) * 2),
    n=st.integers(2, 10**9),
    mean_value=reals,
    std_value=st.floats(0, 63),
    z=st.floats(0, 2, exclude_min=True),
    eps_floor=st.floats(0, 127),
)


def check_round_trip(save, load, x):
    text = save(x)
    assert load(text) == x
    assert save(load(text)) == text
    assert text.endswith("\n") and not text.endswith("\n\n")


@given(reference_sets)
def test_presence_round_trip(refs):
    check_round_trip(save_presence_refs, load_presence_refs, refs)


@given(models)
def test_placement_round_trip(model):
    check_round_trip(save_placement_model, load_placement_model, model)
