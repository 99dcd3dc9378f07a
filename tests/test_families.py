"""Named families: membership, closure, census, idempotent families, finite blocks."""

import random
import sys
from collections import Counter, defaultdict
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bicyclic.families as families
import bicyclic.verify as verify
from bicyclic import (
    BicyclicElement,
    CensusVerdict,
    CMinus,
    CPlus,
    CPlusRow,
    CPlusWindow,
    FinitelyGenerated,
    Full,
    IdempotentChain,
    NoIsolatingIdempotentError,
    closure,
    contains,
    enumerate_members,
    finite_neighborhood,
    format_descriptor,
    idempotent_census,
    idempotent_family,
    membership,
    multiply,
    parse_descriptor,
)
from reference import contains_by_type, translate_block

E = BicyclicElement


# --- membership and enumeration ----------------------------------------------


def test_membership_basic_families():
    assert contains(Full(), E(9, 1))
    assert contains(CPlus(), E(2, 5)) and not contains(CPlus(), E(5, 2))
    assert contains(CMinus(), E(5, 2)) and not contains(CMinus(), E(2, 5))
    assert contains(CPlusRow(3), E(3, 7)) and not contains(CPlusRow(3), E(2, 7))
    assert contains(CPlusWindow(1, 3), E(2, 9))
    assert not contains(CPlusWindow(1, 3), E(0, 9))
    assert contains(IdempotentChain(), E(4, 4)) and not contains(IdempotentChain(), E(4, 5))


@pytest.mark.parametrize(
    "desc, rule",
    [
        (Full(), lambda k, l: True),
        (CPlus(), lambda k, l: k <= l),
        (CMinus(), lambda k, l: k >= l),
        (CPlusRow(0), lambda k, l: k == 0),
        (CPlusRow(5), lambda k, l: k == 5 and l >= 5),
        (CPlusWindow(0, 0), lambda k, l: k == 0),
        (CPlusWindow(2, 7), lambda k, l: 2 <= k <= 7 and k <= l),
        (IdempotentChain(), lambda k, l: k == l),
    ],
)
def test_contains_and_membership_agree_on_closed_forms(desc, rule):
    for k in range(12):
        for l in range(12):
            x = E(k, l)
            assert contains(desc, x) == rule(k, l), (desc, x)
            assert membership(desc, x) == families.BoundedMembership(contains(desc, x), True, 0)


_BOX8 = [E(k, l) for k in range(9) for l in range(9)]


@pytest.mark.parametrize(
    "desc",
    [
        Full(), CPlus(), CMinus(), IdempotentChain(), CPlusRow(0), CPlusRow(3),
        CPlusWindow(0, 0), CPlusWindow(1, 3), CPlusWindow(2, 8),
        FinitelyGenerated((E(0, 2), E(3, 0))),  # not saturated: the bound decides
        FinitelyGenerated((E(1, 3), E(2, 2))),
        FinitelyGenerated((E(1, 1), E(3, 3))),  # saturated
    ],
    ids=format_descriptor,
)
def test_member_methods_agree_with_the_type_switch(desc):
    """Each descriptor's `_member`, and `contains` through it, against the reference switch on its type."""
    for bound in (None, 3, 8):
        for x in _BOX8:
            assert contains(desc, x, bound) == desc._member(x, bound) == contains_by_type(desc, x, bound), (desc, x, bound)


@pytest.mark.parametrize("desc", [object(), families.SetDescriptor(), 3])
def test_contains_rejects_an_unknown_descriptor(desc):
    with pytest.raises(TypeError, match=r"^unknown descriptor "):
        contains(desc, E(0, 0))
    with pytest.raises(TypeError, match=r"^unknown descriptor "):
        contains_by_type(desc, E(0, 0))


def test_enumerate_members_sorted_and_complete():
    got = enumerate_members(CPlus(), 2)
    assert got == sorted(got)
    assert got == [E(0, 0), E(0, 1), E(0, 2), E(1, 1), E(1, 2), E(2, 2)]
    assert enumerate_members(CPlusWindow(1, 2), 3) == [
        E(1, 1), E(1, 2), E(1, 3), E(2, 2), E(2, 3),
    ]


def test_families_are_closed_under_product():
    descs = [Full(), CPlus(), CMinus(), CPlusRow(2), IdempotentChain()]
    for desc in descs:
        pts = enumerate_members(desc, 4)
        for x in pts:
            for y in pts:
                assert contains(desc, multiply(x, y)), (desc, x, y)


def test_window_product_stays_in_window():
    desc = CPlusWindow(1, 3)
    pts = enumerate_members(desc, 5)
    for x in pts:
        for y in pts:
            assert contains(desc, multiply(x, y))


# --- closure -------------------------------------------------------------------


def test_closure_saturates_on_idempotent():
    r = closure([E(2, 2)], 4)
    assert r.members == frozenset({E(2, 2)}) and r.saturated


def test_closure_strict_pair_truncates():
    r = closure([E(0, 1), E(1, 0)], 3)
    assert not r.saturated
    assert E(0, 0) in r.members and E(3, 3) in r.members


def test_closure_bound_must_cover_generators():
    with pytest.raises(ValueError):
        closure([E(5, 1)], 3)


def _pair_product(x, y):
    (a, b), (c, d) = x, y
    if b < c:
        return (a - b + c, d)
    if b == c:
        return (a, d)
    return (a, b - c + d)


def _naive_closure(gens, bound):
    """All-pairs fixpoint on exponent pairs: (members, saturated)."""
    members = set(gens)
    while True:
        products = {_pair_product(x, y) for x in members for y in members}
        inside = {z for z in products if max(z) <= bound}
        if inside <= members:
            return members, inside == products
        members |= inside


def _assert_matches_naive(gens, bound):
    got = closure([E(k, l) for k, l in gens], bound)
    members, saturated = _naive_closure(gens, bound)
    assert {(e.k, e.l) for e in got.members} == members, (gens, bound)
    assert got.saturated == saturated, (gens, bound)


def test_closure_matches_naive_fixpoint_on_small_sets():
    box = [(k, l) for k in range(5) for l in range(5)]
    for size in (1, 2):
        for gens in combinations(box, size):
            top = max(max(g) for g in gens)
            for bound in range(top, top + 4):
                _assert_matches_naive(gens, bound)


def test_closure_matches_naive_fixpoint_on_random_triples():
    rng = random.Random(20261018)
    for _ in range(150):
        gens = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(3)]
        top = max(max(g) for g in gens)
        _assert_matches_naive(gens, top + rng.randint(0, 4))


def _worklist_closure(gens, bound):
    """The difference-indexed worklist engine that the row-bitmask fixpoint
    replaced, kept as a reference: (members as exponent pairs, saturated)."""
    seen = set(gens)
    work = list(seen)
    rows = defaultdict(list)  # k -> the l of each member taken so far with that k
    cols = defaultdict(list)  # l -> the k of each member taken so far with that l
    min_l = {}  # k - l -> least l among members taken so far
    min_k = {}  # l - k -> least k among members taken so far
    saturated = True
    while work:
        a, b = work.pop()
        rows[a].append(b)
        cols[b].append(a)
        out = []
        old = min_l.get(a - b, bound + 1)
        if b < old:
            min_l[a - b] = b
            out += [(c + a - b, d) for c in range(b, old) for d in rows[c]]
        old = min_k.get(b - a, bound + 1)
        if a < old:
            min_k[b - a] = a
            out += [(c, d + b - a) for d in range(a, old) for c in cols[d]]
        out += [(a + dx, b) for dx, least in min_l.items() if least <= a]
        out += [(a, b + ey) for ey, least in min_k.items() if least <= b]
        for z in out:
            if z[0] > bound or z[1] > bound:
                saturated = False
            elif z not in seen:
                seen.add(z)
                work.append(z)
    return seen, saturated


def _assert_matches_worklist(gens, bound):
    got = closure([E(k, l) for k, l in gens], bound)
    members, saturated = _worklist_closure(gens, bound)
    assert {(e.k, e.l) for e in got.members} == members, (gens, bound)
    assert got.saturated == saturated, (gens, bound)
    return got


def test_closure_matches_worklist_engine_on_random_sets():
    rng = random.Random(20261019)
    saturated = Counter()
    for _ in range(400):
        bound = rng.randint(0, 30)
        top = rng.randint(0, bound)
        gens = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(1, 4))]
        saturated[_assert_matches_worklist(gens, bound).saturated] += 1
    assert saturated[True] > 50 and saturated[False] > 50


def _class_gens(rng, cls):
    """Generator sets of the kinds whose closures cost the most and the least."""
    if cls in ("dense", "sparse"):  # strict pairs; dense has coprime differences
        steps = (1, 2, 3) if cls == "dense" else (2, 4)
        k, l = rng.choice(steps), rng.choice(steps)
        while cls == "dense" and gcd(k, l) != 1:
            k, l = rng.choice(steps), rng.choice(steps)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        gens = [(i, i + k), (j + l, j)]
        if cls == "dense" and rng.random() < 0.5:
            gens.append((rng.randint(0, 3), rng.randint(0, 3)))
        return gens
    if cls == "upper":
        gens = []
        while len(set(gens)) < 2 or all(k == l for k, l in gens):
            gens = [(k, k + rng.randint(0, 3)) for k in rng.sample(range(4), rng.randint(2, 3))]
        return gens
    return [(n, n) for n in rng.sample(range(1, 5), 2)]


@pytest.mark.parametrize("cls", ["dense", "sparse", "upper", "idem"])
def test_closure_matches_worklist_engine_on_shifted_and_inverted_classes(cls):
    rng = random.Random(f"closure-{cls}")
    for _ in range(30):
        c = rng.randint(0, 3)  # the diagonal shift x -> b^c x a^c
        flip = rng.random() < 0.5  # the inversion b^k a^l -> b^l a^k
        gens = [(l + c, k + c) if flip else (k + c, l + c) for k, l in _class_gens(rng, cls)]
        bound = max(max(g) for g in gens) + rng.randint(0, 14)
        _assert_matches_worklist(gens, bound)


@pytest.mark.parametrize(
    "gens,bound",
    [
        ([(0, 1)], 200),
        ([(1, 0)], 200),
        ([(2, 2), (5, 5)], 12),
        ([(0, 0), (7, 7)], 7),
        ([(0, 5), (5, 0)], 5),
        ([(5, 5), (0, 5)], 5),
        ([(5, 2), (3, 5)], 5),
        ([(9, 0), (0, 9), (9, 9)], 9),
        ([(0, 1), (1, 0)], 1),
        ([(2, 6), (6, 3)], 6),
    ],
)
def test_closure_matches_worklist_engine_on_edge_cases(gens, bound):
    _assert_matches_worklist(gens, bound)


def test_contains_on_a_generated_family_builds_no_membership_record(monkeypatch):
    records = []

    class Counted(families.BoundedMembership):
        def __init__(self, *args):
            records.append(args)
            super().__init__(*args)

    monkeypatch.setattr(families, "BoundedMembership", Counted)
    desc = FinitelyGenerated((E(0, 1), E(2, 0)))
    for x in _BOX8:
        contains(desc, x)
        contains(desc, x, 12)
    assert records == []
    membership(desc, E(1, 2))
    assert records == [(True, True, 16)]  # the wrapper does see the records that membership builds


@pytest.fixture
def closure_builds(monkeypatch):
    """Counts closure computations (runs of the box fixpoint) by bound."""
    builds = Counter()
    engine = families._closure_box

    def counted(gens, bound):
        builds[bound] += 1
        return engine(gens, bound)

    monkeypatch.setattr(families, "_closure_box", counted)
    return builds


def test_family_closure_is_built_once_per_bound(closure_builds):
    desc = FinitelyGenerated((E(1, 2), E(4, 1)))
    naive, _ = _naive_closure([(1, 2), (4, 1)], 14)
    for k in range(24):
        x = E(k % 9, (5 * k) % 14)
        assert membership(desc, x, 14).member == ((x.k, x.l) in naive)
    assert closure_builds == {14: 1}

    closure_builds.clear()
    nb = finite_neighborhood(parse_descriptor("gen:b^0a^1,b^2a^0"), E(1, 2), 14)
    assert nb.i0 == 3
    assert closure_builds == {14: 1}

    closure_builds.clear()
    desc = FinitelyGenerated((E(0, 2), E(3, 1)))
    census = idempotent_census(desc, 12)
    assert enumerate_members(desc, 12) == sorted(desc.closure_at(12).members)
    assert contains(desc, E(0, 2), 12)
    assert census.verdict is CensusVerdict.INFINITE
    assert closure_builds == {12: 1}


@pytest.fixture
def families_builds(monkeypatch):
    """Records the elements that code in `families` constructs."""
    built = []
    init = BicyclicElement.__init__

    def counting(self, *args):
        if sys._getframe(1).f_globals is vars(families):
            built.append(args)
        init(self, *args)

    monkeypatch.setattr(BicyclicElement, "__init__", counting)
    return built


def test_generated_queries_build_elements_only_for_listings(families_builds):
    # membership and census read the closure's bits; only listings make elements
    desc = parse_descriptor("gen:b^1a^2,b^4a^1")
    queries = [E(k % 9, (5 * k) % 14) for k in range(24)]
    families_builds.clear()
    for x in queries:
        membership(desc, x, 14)
    assert families_builds == []

    census = idempotent_census(FinitelyGenerated((E(0, 1), E(2, 0))), 12)
    assert census.verdict is CensusVerdict.INFINITE and census.witness == (E(0, 1), E(1, 0))
    assert len(families_builds) <= 2

    families_builds.clear()
    assert all(ok for _, ok in verify._suite_prop1(None))
    assert len(families_builds) < 200  # five closures at bound 24 hold about 2,500 members


_differential_cache = {}


def _naive_cached(gens, bound):
    key = (tuple(gens), bound)
    if key not in _differential_cache:
        _differential_cache[key] = _naive_closure(gens, bound)
    return _differential_cache[key]


def _reference_census(gens, bound):
    """(count, verdict, witness, note) of a generated census, from the naive fixpoint."""
    members, saturated = _naive_cached(gens, bound)
    count = sum(1 for k, l in members if k == l)
    key = lambda p: (p[0] + p[1], p)
    plus = min((p for p in members if p[0] < p[1]), key=key, default=None)
    minus = min((p for p in members if p[0] > p[1]), key=key, default=None)
    if plus is not None and minus is not None:
        return count, CensusVerdict.INFINITE, (E(*plus), E(*minus)), "strict pair generates an infinite diagonal family"
    if saturated:
        return count, CensusVerdict.FINITE, None, "closure saturated, count is exact"
    return count, CensusVerdict.BOUNDED_EVIDENCE, None, "closure truncated at the bound"


@st.composite
def _generated_families(draw):
    """(generator pairs, bound, membership queries): any, idempotent-only or one-sided sets, maybe inverted."""
    kind = draw(st.sampled_from(["any", "idempotent", "upper", "lower"]))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        k, l = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        if kind == "idempotent":
            k = l
        elif kind != "any":
            k, l = sorted((k, l), reverse=kind == "lower")
        gens.append((k, l))
    if draw(st.booleans()):
        gens = [(l, k) for k, l in gens]
    bound = max(max(g) for g in gens) + draw(st.integers(0, 6))
    point = st.tuples(st.integers(0, bound + 1), st.integers(0, bound + 1))
    queries = draw(st.lists(st.tuples(point, st.integers(0, bound)), min_size=1, max_size=4))
    return gens, bound, queries


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_generated_families())
# witnesses where the least strict member by k + l is not the least by l (ties broken by k) or by k
@example(([(1, 7), (6, 4), (7, 7)], 7, [((2, 4), 7)]))
@example(([(7, 4), (0, 6)], 7, [((0, 6), 3)]))
def test_box_engine_matches_naive_fixpoint(case):
    gens, bound, queries = case
    desc = FinitelyGenerated(tuple(E(k, l) for k, l in gens))
    members, saturated = _naive_cached(gens, bound)
    got = closure(desc.gens, bound)
    assert ({(e.k, e.l) for e in got.members}, got.saturated) == (members, saturated)
    census = idempotent_census(desc, bound)
    assert (census.count, census.verdict, census.witness, census.note) == _reference_census(gens, bound)
    for (k, l), query_bound in queries:
        used = max(query_bound, k, l, *(max(g) for g in gens))
        found = (k, l) in _naive_cached(gens, used)[0]
        answer = membership(desc, E(k, l), query_bound)
        assert (answer.member, answer.definite, answer.bound) == (found, found or _naive_cached(gens, used)[1], used)


def test_fg_membership_definite_vs_bounded():
    fg = FinitelyGenerated((E(0, 2),))
    found = membership(fg, E(0, 6), bound=10)
    assert found.member and found.definite
    missing = membership(fg, E(0, 3), bound=10)
    assert not missing.member and not missing.definite  # truncated closure, evidence only
    sat = FinitelyGenerated((E(1, 1),))
    missing2 = membership(sat, E(2, 2), bound=6)
    assert not missing2.member and missing2.definite  # saturated closure answers exactly


# --- census ----------------------------------------------------------------------


def test_census_infinite_families():
    r = idempotent_census(Full(), 5)
    assert r.verdict is CensusVerdict.INFINITE and r.count == 6
    assert r.witness is not None
    u, v = r.witness
    assert u.k < u.l and v.k > v.l
    for d in (CPlus(), CMinus(), IdempotentChain()):
        r = idempotent_census(d, 5)
        assert r.verdict is CensusVerdict.INFINITE and r.count == 6


def test_census_finite_families():
    assert idempotent_census(CPlusRow(2), 5).count == 1
    assert idempotent_census(CPlusRow(2), 5).verdict is CensusVerdict.FINITE
    r = idempotent_census(CPlusWindow(1, 4), 10)
    assert r.count == 4 and r.verdict is CensusVerdict.FINITE


def test_census_counts_without_building_the_diagonal(monkeypatch):
    # the counts are arithmetic: a census at a large bound builds no element
    # per idempotent (the parent built bound + 1 of them for every descriptor)
    built = []

    def counting(*args):
        built.append(args)
        return BicyclicElement(*args)

    monkeypatch.setattr(families, "BicyclicElement", counting)
    r = idempotent_census(Full(), 10**5)
    assert r.count == 10**5 + 1 and r.witness == (E(0, 1), E(1, 0))
    assert len(built) <= 2
    built.clear()
    assert idempotent_census(CPlusWindow(3, 10**5), 10**5).count == 10**5 - 2
    assert built == []
    for m in range(4):
        for n in range(m, 6):
            for bound in range(7):
                count = sum(1 for row in range(m, n + 1) if row <= bound)
                assert idempotent_census(CPlusWindow(m, n), bound).count == count


def test_census_generated():
    r = idempotent_census(FinitelyGenerated((E(0, 1), E(1, 0))), 6)
    assert r.verdict is CensusVerdict.INFINITE and r.witness == (E(0, 1), E(1, 0))
    r = idempotent_census(FinitelyGenerated((E(2, 2),)), 6)
    assert r.verdict is CensusVerdict.FINITE and r.count == 1
    r = idempotent_census(FinitelyGenerated((E(0, 2),)), 6)
    assert r.verdict is CensusVerdict.BOUNDED_EVIDENCE and r.count == 0


# --- strict-pair idempotent family ------------------------------------------------


def test_family_pinned_example():
    fam = idempotent_family(E(1, 3), E(3, 0))
    assert (fam.offset, fam.step) == (1, 6)
    assert fam.member(1) == E(7, 7) and fam.member(3) == E(19, 19)
    c = fam.checks[0]
    assert c.product_uv == E(1, 1) and c.product_vu == E(7, 7)


@given(
    st.integers(0, 5), st.integers(1, 4), st.integers(0, 5), st.integers(1, 4),
    st.integers(1, 4),
)
def test_family_products_replay(i, k, j, l, p):
    u, v = E(i, i + k), E(j + l, j)
    fam = idempotent_family(u, v, prefix=p)
    c = fam.checks[p - 1]
    # re-multiply everything from scratch
    up, vp = u, v
    for _ in range(l * p - 1):
        up = multiply(up, u)
    for _ in range(k * p - 1):
        vp = multiply(vp, v)
    assert up == c.u_power and vp == c.v_power
    assert multiply(up, vp) == c.product_uv
    assert multiply(vp, up) == c.product_vu == fam.member(p)
    assert c.product_uv == E(max(i, j), max(i, j))
    assert fam.member(p) == E(max(i, j) + k * l * p, max(i, j) + k * l * p)


def test_family_rejects_wrong_halves():
    with pytest.raises(ValueError):
        idempotent_family(E(3, 1), E(1, 3))
    with pytest.raises(ValueError):
        idempotent_family(E(2, 2), E(3, 1))


def test_family_members_distinct():
    fam = idempotent_family(E(0, 1), E(1, 0))
    first = fam.first(10)
    assert len(set(first)) == 10


# --- finite neighborhood blocks ------------------------------------------------------


@pytest.mark.parametrize(
    "desc,x",
    [
        (Full(), E(0, 0)),
        (Full(), E(1, 2)),
        (Full(), E(3, 1)),
        (CPlus(), E(2, 4)),
        (CMinus(), E(4, 2)),
        (IdempotentChain(), E(3, 3)),
    ],
)
def test_neighborhood_matches_brute_force(desc, x):
    nb = finite_neighborhood(desc, x, 12)
    assert nb == translate_block(desc, x, 12)
    assert x in nb.elements
    assert all(z.k < nb.i0 and z.l < nb.i0 for z in nb.elements)


def test_neighborhood_full_block_is_square():
    nb = finite_neighborhood(Full(), E(2, 3), 12)
    assert nb.i0 == 4 and len(nb.elements) == 16


def test_neighborhood_window_has_no_high_idempotent():
    with pytest.raises(NoIsolatingIdempotentError):
        finite_neighborhood(CPlusRow(1), E(1, 5), 12)


def test_neighborhood_requires_membership():
    with pytest.raises(ValueError):
        finite_neighborhood(CPlus(), E(5, 2), 12)


def test_neighborhood_checks_the_generator_bound_before_any_closure():
    desc = FinitelyGenerated((E(0, 1), E(500, 0)))
    with pytest.raises(ValueError, match="closure bound must cover the generators"):
        finite_neighborhood(desc, E(0, 1), 12)
    assert desc._views == {}  # no closure was built, at bound 500 or at 12


def _block_or_error(block, desc, x, bound):
    try:
        nb = block(desc, x, bound)
    except Exception as exc:
        return type(exc), str(exc)
    return nb.i0, nb.elements


def test_neighborhood_matches_the_translate_complement():
    # 9 families x 64 points x 7 bounds: the same block, or the same error in the same order
    cases = mismatches = 0
    for text in [
        "full",
        "cplus",
        "cminus",
        "idem",
        "cplus-row:2",
        "cplus-window:1:3",
        "gen:b^0a^1,b^2a^0",
        "gen:b^1a^2,b^2a^1,b^0a^3",
        "gen:b^1a^3,b^2a^0",
    ]:
        for bound in (-1, 0, 1, 3, 6, 10, 16):
            desc, oracle_desc = parse_descriptor(text), parse_descriptor(text)
            for x in [E(k, l) for k in range(8) for l in range(8)]:
                cases += 1
                got = _block_or_error(finite_neighborhood, desc, x, bound)
                mismatches += got != _block_or_error(translate_block, oracle_desc, x, bound)
    assert (cases, mismatches) == (4032, 0)


@pytest.mark.parametrize(
    "text, x, bound",
    [
        ("full", E(1, 2), 3000),
        ("cplus", E(1, 2), 3000),
        ("cminus", E(4, 0), 3000),
        ("idem", E(5, 5), 3000),
        ("cplus-window:1:3", E(1, 2), 3000),
        # a generated family pays for its closure at the bound, and for nothing above box(i0 - 1)
        ("gen:b^0a^1,b^2a^0", E(1, 2), 40),
    ],
)
def test_neighborhood_cost_is_set_by_i0_not_by_the_bound(monkeypatch, text, x, bound):
    # an answered call tests x, the diagonal up to i0 and box(i0 - 1), and lists no window
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(families, name, counted)

    for name in ("contains", "enumerate_members", "_elements", "multiply"):
        counting(name, getattr(families, name))
    nb = finite_neighborhood(parse_descriptor(text), x, bound)
    assert calls["contains"] <= nb.i0**2 + nb.i0 + 1
    assert (calls["enumerate_members"], calls["_elements"], calls["multiply"]) == (0, 0, 0)


# --- window shift and inversion ------------------------------------------------------


def test_window_iso_is_multiplicative():
    # b^s a^(s+i) -> b^(s-m) a^(s-m+i) shifts rows [m, n] down to rows [0, n - m]
    def shift(x):
        return E(x.k - 2, x.l - 2)

    src = enumerate_members(CPlusWindow(2, 4), 6)
    for x in src:
        for y in src:
            assert shift(multiply(x, y)) == multiply(shift(x), shift(y))


# --- descriptor grammar -----------------------------------------------------------------


def test_descriptor_roundtrip():
    descs = [
        Full(),
        CPlus(),
        CMinus(),
        IdempotentChain(),
        CPlusRow(3),
        CPlusWindow(1, 4),
        FinitelyGenerated((E(0, 1), E(2, 0))),
    ]
    for d in descs:
        assert parse_descriptor(format_descriptor(d)) == d
    with pytest.raises(ValueError):
        parse_descriptor("cplus-window:4:1")
    with pytest.raises(ValueError):
        parse_descriptor("nonsense")
