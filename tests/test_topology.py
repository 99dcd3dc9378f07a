"""Topology descriptors: carriers, isolation, neighborhood chains, separation."""

import pytest

from bicyclic import (
    BicyclicElement,
    CarrierError,
    ColTail,
    CPlus,
    CMinus,
    CPlusWindow,
    Discrete,
    Full,
    PAdicMinus,
    PAdicPlus,
    RowTail,
    Single,
    WindowPAdic,
    basic_nbhd,
    carrier,
    enumerate_members,
    format_topology,
    intersection_empty,
    invert,
    is_isolated,
    member,
    parse_topology,
    separation_index,
    subset,
    symset,
    transpose,
)

E = BicyclicElement

TOPS = [
    Discrete(Full()),
    PAdicPlus(2),
    PAdicPlus(3),
    PAdicMinus(2),
    PAdicMinus(3),
    WindowPAdic(2, 0, 2),
    WindowPAdic(3, 1, 3),
]


def _points(top, bound=4):
    return enumerate_members(carrier(top), bound)


# --- construction and carriers --------------------------------------------------


def test_prime_validation():
    with pytest.raises(ValueError):
        PAdicPlus(4)
    with pytest.raises(ValueError):
        PAdicMinus(1)
    with pytest.raises(ValueError):
        WindowPAdic(6, 0, 2)
    with pytest.raises(ValueError):
        WindowPAdic(2, 3, 1)
    # a 402-digit p has the factor 11; the prime test takes its root exactly
    with pytest.raises(ValueError, match="must be prime"):
        PAdicPlus(10**401 + 1)
    assert PAdicMinus(1000003).p == 1000003


def test_parse_topology_cap():
    assert parse_topology("window:3:1:3", cap=3) == WindowPAdic(3, 1, 3)
    for text in ("padic+:5", "padic-:5", "window:5:0:2", "window:2:5:6", "window:2:0:5"):
        with pytest.raises(ValueError, match="topology parameter 5 exceeds the cap 4"):
            parse_topology(text, cap=4)


def test_carriers():
    assert carrier(PAdicPlus(2)) == CPlus()
    assert carrier(PAdicMinus(5)) == CMinus()
    assert carrier(WindowPAdic(2, 1, 3)) == CPlusWindow(1, 3)
    assert carrier(Discrete(CPlus())) == CPlus()


def test_points_outside_carrier_rejected():
    with pytest.raises(CarrierError):
        basic_nbhd(PAdicPlus(2), E(3, 1), 1)
    with pytest.raises(CarrierError):
        basic_nbhd(PAdicMinus(2), E(1, 3), 1)
    with pytest.raises(CarrierError):
        is_isolated(WindowPAdic(2, 1, 2), E(0, 4))


# --- neighborhood shapes ---------------------------------------------------------


def test_basic_nbhd_shapes():
    assert basic_nbhd(Discrete(Full()), E(2, 1), 3) == symset(Single(E(2, 1)))
    assert basic_nbhd(PAdicPlus(2), E(1, 4), 3) == symset(RowTail(1, 4, 8))
    assert basic_nbhd(PAdicMinus(3), E(4, 1), 2) == symset(ColTail(1, 4, 9))
    w = WindowPAdic(2, 0, 2)
    assert basic_nbhd(w, E(0, 2), 5) == symset(Single(E(0, 2)))  # isolated
    assert basic_nbhd(w, E(0, 3), 2) == symset(RowTail(0, 3, 4))


def test_isolation():
    w = WindowPAdic(2, 0, 2)
    assert is_isolated(w, E(1, 2)) and not is_isolated(w, E(1, 3))
    assert is_isolated(Discrete(Full()), E(5, 3))
    assert not is_isolated(PAdicPlus(2), E(0, 0))
    assert not is_isolated(PAdicMinus(2), E(3, 0))


def test_index_validation():
    with pytest.raises(ValueError):
        basic_nbhd(PAdicPlus(2), E(0, 0), 0)


@pytest.mark.parametrize("top", TOPS)
def test_self_membership_and_nesting(top):
    for x in _points(top):
        for idx in range(1, 5):
            v = basic_nbhd(top, x, idx)
            assert member(v, x)
            assert subset(basic_nbhd(top, x, idx + 1), v).holds


def test_minus_is_plus_transported_through_inversion():
    for x in _points(PAdicMinus(3)):
        direct = basic_nbhd(PAdicMinus(3), x, 2)
        mirrored = transpose(basic_nbhd(PAdicPlus(3), invert(x), 2))
        assert direct == mirrored


# --- separation --------------------------------------------------------------------


@pytest.mark.parametrize("top", TOPS)
def test_pairwise_separation(top):
    pts = _points(top)
    for x in pts:
        for y in pts:
            if x == y:
                continue
            idx = separation_index(top, x, y, 8)
            assert idx is not None, (top, x, y)
            assert intersection_empty(basic_nbhd(top, x, idx), basic_nbhd(top, y, idx))


def test_separation_needs_distinct_points():
    with pytest.raises(ValueError):
        separation_index(PAdicPlus(2), E(0, 0), E(0, 0), 4)


def test_separation_index_values():
    # same row, base gap 2: mod 2 they collide, mod 4 they separate
    assert separation_index(PAdicPlus(2), E(0, 0), E(0, 2), 8) == 2
    assert separation_index(PAdicPlus(2), E(0, 0), E(1, 1), 8) == 1


# --- grammar -------------------------------------------------------------------------


def test_topology_grammar_roundtrip():
    for top in TOPS:
        assert parse_topology(format_topology(top)) == top
    assert parse_topology("padic+:7") == PAdicPlus(7)
    with pytest.raises(ValueError):
        parse_topology("padic*:2")
    with pytest.raises(ValueError):
        parse_topology("window:2:2")
