"""Every parser of outside input raises nothing but ValueError, whatever it is fed."""

from hypothesis import given
from hypothesis import strategies as st

from traysight.evaluation import parse_labels
from traysight.imaging import decode_pnm
from traysight.placement import load_placement_model
from traysight.presence import load_presence_refs
from traysight.synthgen import parse_scene
from traysight.tray_grid import LAYOUT_KEYS, parse_layout

SCENE_FLOAT_KEYS = ("mu_with", "mu_without", "sigma", "background")
WORDS = LAYOUT_KEYS + SCENE_FLOAT_KEYS + (
    "occupancy", "seed", "TRAYSIGHT-PRESENCE", "TRAYSIGHT-PLACEMENT", "layout", "slot", "with",
    "without", "roi", "n", "mean", "std", "z", "eps_floor", "=", "#",
)

# Values a parser rejects or must range-check, plus arbitrary short text.
odd = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "-1", "01", "1_0", "0x10", "1e400", "nan", "-0", "9" * 5000, str(2**64)]),
    st.text(max_size=6),
)
ints = st.integers(0, 4).map(str)
reals = st.floats(-1, 300).map(repr)
lines = st.lists(ints | odd | st.sampled_from(WORDS), max_size=9).map(" ".join) | st.text(max_size=30)
documents = st.lists(lines, max_size=12).map("\n".join)


def mostly_clean(fields):
    """A well-formed value for every field, at times with one swapped for an odd one.

    Well-formed fields let a draw get past the syntax to the checks behind it.
    """
    return st.tuples(
        st.fixed_dictionaries(fields), st.sampled_from(sorted(fields)), odd, st.booleans()
    ).map(lambda t: {**t[0], t[1]: t[2]} if t[3] else t[0])


def key_value_documents(fields):
    """One ``key = value`` line per field, and possibly one stray line."""
    body = mostly_clean(fields).map(lambda d: "".join(f"{k} = {v}\n" for k, v in d.items()))
    tails = st.sampled_from(["", "rows = 1\n", "extra = 1\n", "no equals\n", " = 1\n"])
    return st.tuples(body, tails).map("".join)


layout_fields = {key: ints for key in LAYOUT_KEYS}
scene_fields = {
    **layout_fields,
    "occupancy": st.text("01", max_size=20),
    **{key: reals for key in SCENE_FLOAT_KEYS},
    "seed": ints,
}
presence_stores = st.tuples(
    mostly_clean(layout_fields), st.lists(st.tuples(reals, reals | odd), max_size=6)
).map(
    lambda t: "TRAYSIGHT-PRESENCE 1\nlayout " + " ".join(t[0][k] for k in LAYOUT_KEYS) + "\n"
    + "".join(f"slot {i} with {w} without {o}\n" for i, (w, o) in enumerate(t[1]))
)
placement_fields = {
    **{key: ints for key in ("x", "y", "w", "h", "n")},
    **{key: reals for key in ("mean", "std", "z", "eps_floor")},
}
placement_stores = mostly_clean(placement_fields).map(
    lambda d: "TRAYSIGHT-PLACEMENT 1\nroi {x} {y} {w} {h}\nn {n}\nmean {mean}\nstd {std}\n"
    "z {z}\neps_floor {eps_floor}\n".format(**d)
)
pnm_files = st.tuples(
    st.sampled_from([b"P5", b"P6", b"P4", b""]),
    st.lists(st.sampled_from([b" ", b"\n", b"\r\n", b"#c\n", b"\t", b"x"]), min_size=1, max_size=3),
    st.lists(
        st.integers(0, 6).map(lambda v: str(v).encode())
        | st.sampled_from([b"255", b"256", b"65535", b"1000000000000", b"9" * 5000]),
        max_size=3,
    ),
    st.binary(max_size=120),
).map(lambda t: t[0] + t[1][0] + b" ".join(t[2]) + b"".join(t[1]) + t[3])


def only_value_error(parse, arg):
    try:
        parse(arg)
    except ValueError:
        pass


@given(st.binary() | pnm_files)
def test_decode_pnm(data):
    only_value_error(decode_pnm, data)


@given(st.text() | documents | presence_stores)
def test_load_presence_refs(text):
    only_value_error(load_presence_refs, text)


@given(st.text() | documents | placement_stores)
def test_load_placement_model(text):
    only_value_error(load_placement_model, text)


@given(st.text() | documents | key_value_documents(layout_fields))
def test_parse_layout(text):
    only_value_error(parse_layout, text)


@given(st.text() | documents | key_value_documents(scene_fields))
def test_parse_scene(text):
    only_value_error(parse_scene, text)


@given(st.text() | documents | st.lists(st.tuples(ints, ints | odd), max_size=5).map(
    lambda records: "".join(f"{ident} {bit}\n" for ident, bit in records)))
def test_parse_labels(text):
    only_value_error(parse_labels, text)
