import hashlib
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolane import bertable
from twolane.bertable import BerTableError, parse_ber_table

HEADER = "channel_id,modulation,distance_cm,p_e"


def table_text(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


# -------------------------------------------------------------------- loading


def test_parse_minimal_table():
    t = parse_ber_table(table_text(["B,16PSK,200,0.01", "B,16PSK,250,0.02"]))
    assert t.groups() == [("B", "16PSK")]
    assert t.lookup("B", "16PSK", 250) == 0.02


def test_empty_data_section_rejected():
    with pytest.raises(BerTableError, match="empty table"):
        parse_ber_table(HEADER + "\n")


def test_empty_file_rejected():
    with pytest.raises(BerTableError, match="empty table"):
        parse_ber_table("")


def test_bad_header_rejected():
    with pytest.raises(BerTableError, match="header"):
        parse_ber_table("a,b,c,d\nB,16PSK,200,0.01\n")


def test_out_of_range_p_e_names_the_row():
    text = table_text(["B,16PSK,200,0.01", "B,16PSK,250,1.5"])
    with pytest.raises(BerTableError, match="row 3"):
        parse_ber_table(text)


def test_non_monotone_distances_rejected():
    text = table_text(["B,16PSK,250,0.01", "B,16PSK,200,0.02"])
    with pytest.raises(BerTableError, match="strictly increasing"):
        parse_ber_table(text)


def test_distances_within_match_tolerance_rejected():
    # the second point could never be looked up: 200.0000000005 cm matches 200 cm first
    text = table_text(["B,16PSK,200,0.1", "B,16PSK,200.0000000005,0.2"])
    with pytest.raises(BerTableError, match="strictly increasing by more than 1e-09 cm"):
        parse_ber_table(text)


def test_malformed_row_names_the_row():
    with pytest.raises(BerTableError, match="row 2"):
        parse_ber_table(table_text(["B,16PSK,200"]))
    with pytest.raises(BerTableError, match="row 2"):
        parse_ber_table(table_text(["B,16PSK,abc,0.5"]))
    # NaN compares false both ways, so it would slip past the ordering check
    with pytest.raises(BerTableError, match="row 3: distance_cm nan is not finite"):
        parse_ber_table(table_text(["B,16PSK,100,0.01", "B,16PSK,nan,0.02", "B,16PSK,inf,0.03"]))
    with pytest.raises(BerTableError, match="row 3: distance_cm inf is not finite"):
        parse_ber_table(table_text(["B,16PSK,100,0.01", "B,16PSK,inf,0.02"]))


def test_errors_name_the_file_line_past_blank_lines():
    # header on line 1, a blank line 2, a point on line 3, a blank line 4, the bad point on 5
    head = HEADER + "\n\nB,16PSK,200,0.01\n\n"
    with pytest.raises(BerTableError, match="row 5: expected 4 fields"):
        parse_ber_table(head + "B,16PSK,250\n")
    with pytest.raises(BerTableError, match=re.escape("row 5: p_e 1.5 out of [0, 1]")):
        parse_ber_table(head + "B,16PSK,250,1.5\n")
    with pytest.raises(BerTableError, match="row 5: distances not strictly increasing"):
        parse_ber_table(head + "B,16PSK,150,0.02\n")


# unchecked, the nan point hides the 300 cm point from lookup and the inf
# point makes every interpolation past 200 cm return the 200 cm BER
@pytest.mark.parametrize("distances", [(200.0, math.nan, 300.0), (200.0, math.inf)])
def test_code_built_table_rejects_non_finite_distance(distances):
    points = [bertable.BerPoint("B", "16PSK", d, (i + 1) / 100) for i, d in enumerate(distances)]
    message = f"distance_cm {distances[1]} is not finite at (B, 16PSK, p_e 0.02)"
    with pytest.raises(BerTableError, match=f"^{re.escape(message)}$"):
        bertable.BerTable(points)


# --------------------------------------------------------------------- lookup


def test_lookup_missing_point_rejected():
    t = parse_ber_table(table_text(["B,16PSK,200,0.01", "B,16PSK,300,0.03"]))
    with pytest.raises(BerTableError, match="no table point"):
        t.lookup("B", "16PSK", 250)


def test_lookup_missing_group_rejected():
    t = parse_ber_table(table_text(["B,16PSK,200,0.01"]))
    with pytest.raises(BerTableError, match="no rows"):
        t.lookup("C", "16PSK", 200)


def test_lookup_interpolation():
    t = parse_ber_table(table_text(["B,16PSK,200,0.01", "B,16PSK,300,0.03"]))
    assert t.lookup("B", "16PSK", 250, interpolate=True) == pytest.approx(0.02)
    assert t.lookup("B", "16PSK", 200, interpolate=True) == 0.01
    with pytest.raises(BerTableError, match="outside"):
        t.lookup("B", "16PSK", 150, interpolate=True)
    with pytest.raises(BerTableError, match="outside"):
        t.lookup("B", "16PSK", 350, interpolate=True)


@pytest.mark.parametrize("distance", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("interpolate", [False, True])
def test_lookup_rejects_non_finite_distance(distance, interpolate):
    t = parse_ber_table(table_text(["B,16PSK,200,0.01", "B,16PSK,300,0.03"]))
    with pytest.raises(BerTableError, match=f"distance {distance} cm is not finite"):
        t.lookup("B", "16PSK", distance, interpolate=interpolate)


def lookup_ref(curve, distance_cm, interpolate):
    """The linear-scan lookup that the bisection replaced: one scan for an
    exact match within 1e-9 cm, a second for the interpolation segment."""
    for p in curve:
        if abs(p.distance_cm - distance_cm) <= 1e-9:
            return p.bit_error_rate
    if not interpolate:
        raise BerTableError(
            f"no table point at {distance_cm} cm for (B, 16PSK); "
            "rerun with interpolation enabled or adjust the sweep grid"
        )
    if distance_cm < curve[0].distance_cm or distance_cm > curve[-1].distance_cm:
        raise BerTableError(
            f"{distance_cm} cm outside the tabulated range "
            f"[{curve[0].distance_cm}, {curve[-1].distance_cm}] for (B, 16PSK)"
        )
    for a, b in zip(curve, curve[1:]):
        if a.distance_cm <= distance_cm <= b.distance_cm:
            frac = (distance_cm - a.distance_cm) / (b.distance_cm - a.distance_cm)
            return a.bit_error_rate + frac * (b.bit_error_rate - a.bit_error_rate)


def outcome(lookup, *args):
    try:
        return "value", lookup(*args)
    except BerTableError as exc:
        return "error", str(exc)


@st.composite
def curve_and_queries(draw):
    drawn = sorted(draw(st.lists(st.floats(0, 5000), min_size=1, max_size=8, unique=True)))
    # BerTable rejects a point within the 1e-9 cm match tolerance of the one before
    distances = [d for i, d in enumerate(drawn) if i == 0 or d - drawn[i - 1] > 1e-9]
    bers = draw(st.lists(st.floats(0, 1), min_size=len(distances), max_size=len(distances)))
    near = st.one_of(
        st.sampled_from([0.0, 1e-9, -1e-9, 2e-9, -2e-9]), st.floats(-2e-9, 2e-9)
    )
    grid = st.sampled_from(distances)
    queries = draw(
        st.lists(
            st.one_of(
                st.builds(lambda d, off: d + off, grid, near),
                st.builds(lambda a, b: (a + b) / 2, grid, grid),
                st.floats(-100, 5100),
            ),
            min_size=1,
            max_size=20,
        )
    )
    return list(zip(distances, bers)), queries


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(curve_and_queries(), st.booleans())
# grid points where d - 1e-9 rounds onto the point while |point - d| > 1e-9,
# and where point - d is exactly -1e-9
@example(([(0.0, 0.1), (0.5, 0.2), (200.0, 0.3)], [1e-9, 0.5 - 1e-9, 0.5 + 1e-9, 200 - 1e-9]), False)
@example(([(0.0, 0.1), (0.5, 0.2), (200.0, 0.3)], [1e-9, 0.5 - 1e-9, 0.5 + 1e-9, 200 - 1e-9]), True)
def test_lookup_matches_linear_scan_reference(curve_queries, interpolate):
    points, queries = curve_queries
    curve = [bertable.BerPoint("B", "16PSK", d, ber) for d, ber in points]
    table = bertable.BerTable(curve)
    for d in queries:
        assert outcome(table.lookup, "B", "16PSK", d, interpolate) == outcome(
            lookup_ref, curve, d, interpolate
        )


# ------------------------------------------------------------------- fixture


def test_fixture_has_37_points_per_group():
    t = bertable.load_builtin_table()
    assert len(t.groups()) == 4
    assert len(t.curve("B", "16PSK")) == 37
    distances = [p.distance_cm for p in t.curve("B", "16PSK")]
    assert distances[0] == 200 and distances[-1] == 2000
    assert all(b - a == 50 for a, b in zip(distances, distances[1:]))


def test_fixture_monotone_in_distance():
    t = bertable.load_builtin_table()
    for group in t.groups():
        values = [p.bit_error_rate for p in t.curve(*group)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_fixture_monotone_in_modulation_level_and_channel():
    t = bertable.load_builtin_table()
    for d in range(200, 2001, 50):
        b8 = t.lookup("B", "8PSK", d)
        b16 = t.lookup("B", "16PSK", d)
        c8 = t.lookup("C", "8PSK", d)
        c16 = t.lookup("C", "16PSK", d)
        assert b16 > b8  # higher modulation level is worse
        assert c16 > c8
        assert c8 > b8  # channel C is worse than channel B
        assert c16 > b16


def test_fixture_needs_redundancy_past_documented_distances():
    from twolane.fec import FecParams, derive

    t = bertable.load_builtin_table()
    first_redundant = {}
    for group in t.groups():
        for p in t.curve(*group):
            d = derive(
                FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=p.bit_error_rate)
            )
            if d.residual_ser > 0:
                first_redundant[group] = p.distance_cm
                break
    assert first_redundant == {
        ("B", "16PSK"): 650,
        ("B", "8PSK"): 750,
        ("C", "16PSK"): 500,
        ("C", "8PSK"): 600,
    }


def test_builtin_table_bytes_pinned(tmp_path):
    # pins all four curves; the golden CSVs cover only B-16PSK
    path = tmp_path / "builtin.csv"
    bertable.save_ber_table(bertable.load_builtin_table(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "48acb3ac2a6e942ef60e890edd6be98118c266b6fb443a1fc58e303cb0f2152f"
    )


def test_save_load_round_trip(tmp_path):
    t = bertable.load_builtin_table()
    path = tmp_path / "t.csv"
    bertable.save_ber_table(t, path)
    again = bertable.load_ber_table(path)
    assert again.points == t.points


def test_save_over_a_longer_file_loads_back_equal(tmp_path):
    path = tmp_path / "t.csv"
    bertable.save_ber_table(bertable.load_builtin_table(), path)
    small = parse_ber_table("channel_id,modulation,distance_cm,p_e\nB,16PSK,200,0.1\n")
    bertable.save_ber_table(small, path)
    assert bertable.load_ber_table(path).points == small.points


def test_save_load_round_trip_quotes_ids(tmp_path):
    # an id holding the delimiter or a quote is written quoted, so the loader reads it back
    t = parse_ber_table(
        'channel_id,modulation,distance_cm,p_e\n"B,1",16PSK,200,0.1\n"C""2",8PSK,250,0.2\n'
    )
    assert [p.channel for p in t.points] == ["B,1", 'C"2']
    path = tmp_path / "t.csv"
    bertable.save_ber_table(t, path)
    assert bertable.load_ber_table(path).points == t.points


ID_TEXT = st.text(alphabet=st.sampled_from('aB7_é,"\' \t'), max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(ID_TEXT, ID_TEXT), min_size=1, max_size=5))
def test_ids_are_stripped_where_a_point_is_built_and_survive_a_round_trip(tmp_path_factory, ids):
    # commas and quotes are quoted on save; surrounding spaces and tabs never reach a table
    table = bertable.BerTable(
        [bertable.BerPoint(c, m, float(i), 0.5) for i, (c, m) in enumerate(ids)]
    )
    assert [(p.channel, p.modulation) for p in table.points] == [
        (c.strip(), m.strip()) for c, m in ids
    ]
    path = tmp_path_factory.getbasetemp() / "ids.csv"
    bertable.save_ber_table(table, path)
    assert bertable.load_ber_table(path).points == table.points


@pytest.mark.parametrize("channel", ["B\nC", "B\rC", "B\r\nC"])
def test_an_id_with_a_line_break_is_rejected(channel):
    with pytest.raises(ValueError, match="channel id .* holds a line break"):
        bertable.BerPoint(channel, "16PSK", 200.0, 0.1)
    text = table_text([f'"{channel}",16PSK,200,0.1'])
    # the row is named by the line it ends on, as for any other bad row
    with pytest.raises(BerTableError, match=r"row [23]: channel id .* holds a line break"):
        parse_ber_table(text)
