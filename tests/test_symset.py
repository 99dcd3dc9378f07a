"""Progression-set algebra: membership, subset certificates, images, products."""

import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicyclic import (
    EMPTY,
    BicyclicElement,
    ColTail,
    RowTail,
    Single,
    SubsetWitness,
    SymSet,
    UnrepresentableProductError,
    atom_members,
    canonicalize,
    format_symset,
    intersection_empty,
    invert,
    left_image,
    member,
    members,
    multiply,
    parse_symset,
    product,
    right_image,
    solve_left,
    solve_right,
    subset,
    symset,
    symset_to_records,
    transpose,
    union,
)
from bicyclic.symset import (
    _atoms_within,
    _left_image_atom,
    _product_row_row,
    _right_image_atom,
    _transpose_atom,
)
from bicyclic.symset import atom_disjoint, atom_member

symset_module = importlib.import_module("bicyclic.symset")

E = BicyclicElement

steps = st.sampled_from([1, 2, 3, 4, 8, 9])
rowtails = st.builds(RowTail, st.integers(0, 6), st.integers(0, 12), steps)
coltails = st.builds(ColTail, st.integers(0, 6), st.integers(0, 12), steps)
singles = st.builds(Single, st.builds(E, st.integers(0, 8), st.integers(0, 8)))
atoms = st.one_of(singles, rowtails, coltails)
elems = st.builds(E, st.integers(0, 8), st.integers(0, 8))


def pointwise_witness(a: SymSet, b: SymSet, z: E, scan: int = 80):
    """A pair (x, y) with x in a, y in b and x*y = z, or None within the scan.

    Confirms that a claimed product member is a genuine product.  A factor
    from a Single of b is found exactly by solve_right, and once x is fixed
    solve_left finds y exactly, so the search is exact whenever either
    factor is a point; a tail of a is scanned over its first `scan` members.
    """
    for atom in b.atoms:
        if isinstance(atom, Single):
            for x in solve_right(z, atom.element):
                if member(a, x):
                    return (x, atom.element)
    for atom in a.atoms:
        for x in atom_members(atom, scan):
            for y in solve_left(x, z):
                if member(b, y):
                    return (x, y)
    return None


# --- membership -----------------------------------------------------------------


def test_atom_membership():
    t = RowTail(2, 3, 4)
    assert member(symset(t), E(2, 3))
    assert member(symset(t), E(2, 11))
    assert not member(symset(t), E(2, 5))
    assert not member(symset(t), E(3, 3))
    c = ColTail(1, 2, 3)
    assert member(symset(c), E(5, 1))
    assert not member(symset(c), E(5, 2))
    assert not member(EMPTY, E(0, 0))


def test_members_listing_order():
    t = RowTail(1, 2, 5)
    assert atom_members(t, 3) == [E(1, 2), E(1, 7), E(1, 12)]
    s = symset(Single(E(0, 0)), t)
    assert E(0, 0) in members(s, 2) and E(1, 7) in members(s, 2)


def test_validation():
    with pytest.raises(ValueError):
        RowTail(0, 0, 0)
    with pytest.raises(ValueError):
        ColTail(-1, 0, 1)


# --- canonicalize and union ---------------------------------------------------------


def test_canonicalize_absorbs_and_dedupes():
    big = RowTail(1, 3, 2)
    inside_single = Single(E(1, 7))
    inside_tail = RowTail(1, 7, 4)
    s = symset(big, inside_single, inside_tail, big)
    assert s.atoms == (big,)


def test_canonicalize_keeps_disjoint_atoms():
    a, b = RowTail(1, 0, 2), RowTail(1, 1, 2)
    assert set(symset(a, b).atoms) == {a, b}


@given(st.lists(atoms, max_size=5))
def test_canonicalize_idempotent(atom_list):
    s = symset(*atom_list)
    assert canonicalize(s) == s


@given(st.lists(atoms, max_size=4), elems)
def test_union_membership(atom_list, x):
    s = symset(*atom_list)
    assert member(s, x) == any(member(symset(a), x) for a in atom_list)


# --- transpose ------------------------------------------------------------------------


@given(st.lists(atoms, max_size=4), elems)
def test_transpose_is_inversion_pointwise(atom_list, x):
    s = symset(*atom_list)
    assert member(transpose(s), invert(x)) == member(s, x)
    assert transpose(transpose(s)) == s


# --- the tail classes that callers outside the package build and read ---------------


def test_tails_build_positionally_and_read_their_line():
    row, col = RowTail(1, 2, 3), ColTail(4, 5, 6)
    assert (row.row, row.base, row.step) == (1, 2, 3)
    assert (col.col, col.base, col.step) == (4, 5, 6)
    assert hasattr(row, "row") and not hasattr(row, "col")
    assert hasattr(col, "col") and not hasattr(col, "row")


def test_a_tail_kind_is_part_of_its_identity():
    row, col = RowTail(1, 2, 3), ColTail(1, 2, 3)
    assert row != col
    assert row == RowTail(1, 2, 3) and hash(row) == hash(RowTail(1, 2, 3))
    assert len({row, col, RowTail(1, 2, 3)}) == 2
    assert repr(row) == "RowTail(line=1, base=2, step=3)"


def test_transpose_swaps_the_tail_kind_and_keeps_its_fields():
    assert transpose(SymSet((RowTail(1, 2, 3),))) == SymSet((ColTail(1, 2, 3),))
    assert transpose(SymSet((ColTail(1, 2, 3),))) == SymSet((RowTail(1, 2, 3),))


@pytest.mark.parametrize("cls, name", [(RowTail, "row"), (ColTail, "col")])
def test_a_negative_line_names_the_kind(cls, name):
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer"):
        cls(-1, 0, 1)
    with pytest.raises(ValueError, match="^step"):
        cls(0, 0, 0)


def test_records_keep_their_type_names_and_keys():
    s = SymSet((Single(E(1, 2)), RowTail(0, 3, 2), ColTail(4, 1, 5)))
    assert symset_to_records(s) == [
        {"type": "single", "k": 1, "l": 2},
        {"type": "row_tail", "row": 0, "base": 3, "step": 2},
        {"type": "col_tail", "col": 4, "base": 1, "step": 5},
    ]


# --- subset with certificates ----------------------------------------------------------


def test_subset_pinned():
    assert subset(symset(RowTail(1, 4, 8)), symset(RowTail(1, 0, 2))).holds
    w = subset(symset(RowTail(1, 4, 8)), symset(RowTail(1, 1, 2)))
    assert not w.holds and w.counterexample == E(1, 4)
    assert subset(symset(Single(E(2, 2))), symset(ColTail(2, 0, 2))).holds
    # union of residues covers a coarser tail
    cover = symset(RowTail(0, 0, 2), RowTail(0, 1, 2))
    assert subset(symset(RowTail(0, 5, 1)), cover).holds


@given(st.lists(atoms, max_size=3), st.lists(atoms, max_size=3))
def test_subset_agrees_with_sampling(a_atoms, b_atoms):
    a, b = symset(*a_atoms), symset(*b_atoms)
    w = subset(a, b)
    if w.holds:
        for x in members(a, 25):
            assert member(b, x)
    else:
        assert member(a, w.counterexample) and not member(b, w.counterexample)


@given(st.lists(atoms, max_size=4), atoms)
def test_atoms_within_one_atom_is_the_subset_test(a_atoms, outer):
    # raw atoms, duplicates and absorbed ones included, against a one-atom set
    assert _atoms_within(a_atoms, outer) == subset(SymSet(tuple(a_atoms)), SymSet((outer,))).holds


def test_atoms_within_pinned():
    outer = RowTail(0, 1, 2)
    assert _atoms_within([RowTail(0, 3, 4), Single(E(0, 7))], outer)
    assert not _atoms_within([RowTail(0, 3, 3)], outer)  # step not a multiple
    assert not _atoms_within([RowTail(0, 2, 4)], outer)  # base off the progression
    assert not _atoms_within([RowTail(1, 3, 4)], outer)  # another row
    assert not _atoms_within([ColTail(0, 1, 2)], outer)  # meets the row once
    assert not _atoms_within([RowTail(0, 1, 2)], Single(E(0, 1)))
    assert _atoms_within([], Single(E(0, 1)))


@given(st.lists(atoms, max_size=3), st.lists(atoms, max_size=3))
def test_intersection_empty_agrees_with_sampling(a_atoms, b_atoms):
    a, b = symset(*a_atoms), symset(*b_atoms)
    if intersection_empty(a, b):
        for x in members(a, 25):
            assert not member(b, x)
    else:
        pass  # nonemptiness is certified elsewhere; nothing to refute here


def test_disjointness_pinned():
    assert intersection_empty(symset(RowTail(0, 0, 4)), symset(RowTail(0, 2, 4)))
    assert not intersection_empty(symset(RowTail(0, 0, 4)), symset(RowTail(0, 8, 6)))
    assert intersection_empty(symset(RowTail(0, 0, 1)), symset(RowTail(1, 0, 1)))
    assert not intersection_empty(symset(RowTail(1, 0, 2)), symset(ColTail(4, 1, 3)))
    assert intersection_empty(symset(RowTail(1, 5, 2)), symset(ColTail(4, 2, 9)))


# --- the line index against an all-pairs reference ---------------------------------


def _ref_member(atom_list, x):
    return any(atom_member(a, x) for a in atom_list)


def _atom_contains(outer, inner) -> bool:
    """Whole-atom containment inner <= outer."""
    if isinstance(inner, Single):
        return atom_member(outer, inner.element)
    if isinstance(inner, RowTail) and isinstance(outer, RowTail):
        return (
            inner.row == outer.row
            and inner.base >= outer.base
            and (inner.base - outer.base) % outer.step == 0
            and inner.step % outer.step == 0
        )
    if isinstance(inner, ColTail) and isinstance(outer, ColTail):
        return (
            inner.col == outer.col
            and inner.base >= outer.base
            and (inner.base - outer.base) % outer.step == 0
            and inner.step % outer.step == 0
        )
    return False  # an infinite tail never fits a Single or the other orientation


def _ref_canonicalize(s):
    atom_list = sorted(set(s.atoms), key=symset_module._atom_key)
    return SymSet(
        tuple(a for a in atom_list if not any(b != a and _atom_contains(b, a) for b in atom_list))
    )


def _ref_rowtail_subset(tail, target):
    steps, consts = [], [tail.base]
    for atom in target:
        if isinstance(atom, RowTail) and atom.row == tail.row:
            steps.append(atom.step)
            consts.append(atom.base)
        elif isinstance(atom, Single) and atom.element.k == tail.row:
            consts.append(atom.element.l)
        elif isinstance(atom, ColTail) and atom_member(atom, E(tail.row, atom.col)):
            consts.append(atom.col)
    bound = max(consts) + math.lcm(*steps) * tail.step
    for value in range(tail.base, bound + 1, tail.step):
        if not _ref_member(target, E(tail.row, value)):
            return SubsetWitness(False, counterexample=E(tail.row, value))
    return SubsetWitness(True, covering_bound=bound)


def _ref_subset(a, b):
    worst = 0
    for atom in a.atoms:
        if isinstance(atom, Single):
            if not _ref_member(b.atoms, atom.element):
                return SubsetWitness(False, counterexample=atom.element)
            continue
        if isinstance(atom, RowTail):
            w = _ref_rowtail_subset(atom, b.atoms)
        else:
            w = _ref_rowtail_subset(RowTail(atom.col, atom.base, atom.step), transpose(b).atoms)
            if not w.holds:
                w = SubsetWitness(False, counterexample=invert(w.counterexample))
        if not w.holds:
            return w
        worst = max(worst, w.covering_bound)
    return SubsetWitness(True, covering_bound=worst)


def _ref_intersection_empty(a, b):
    return all(atom_disjoint(x, y) for x in a.atoms for y in b.atoms)


def _crowded_atoms(rng):
    """Many points on one row and one column, several tails on each of the
    two lines (crossing where they meet), and a scatter of small atoms."""
    row, col = rng.randint(0, 4), rng.randint(0, 4)
    out = [Single(E(row, rng.randint(0, 40))) for _ in range(rng.randint(0, 30))]
    out += [Single(E(rng.randint(0, 40), col)) for _ in range(rng.randint(0, 30))]

    def step():
        return rng.choice([1, 2, 3, 4, 6])

    out += [RowTail(row, rng.randint(0, 30), step()) for _ in range(rng.randint(0, 4))]
    out += [ColTail(col, rng.randint(0, 30), step()) for _ in range(rng.randint(0, 4))]
    for _ in range(rng.randint(0, 6)):
        k, l = rng.randint(0, 8), rng.randint(0, 8)
        out.append(rng.choice([Single(E(k, l)), RowTail(k, l, step()), ColTail(l, k, step())]))
    rng.shuffle(out)
    return out


def test_line_index_matches_all_pairs_reference():
    rng = random.Random(20261018)
    outcomes, disjoint = set(), set()
    for case in range(400):
        raw = [SymSet(tuple(_crowded_atoms(rng))) for _ in range(2)]
        canon = [canonicalize(s) for s in raw]
        for s, c in zip(raw, canon):
            assert c == _ref_canonicalize(s)
        # raw and canonical inputs; the union and a sample of a's atoms make
        # subsets that hold
        a, b = (raw if case % 2 else canon)
        sample = SymSet(tuple(x for x in a.atoms if rng.random() < 0.3))
        for left, right in ((a, b), (b, a), (a, union(a, b)), (sample, a), (sample, b)):
            got = subset(left, right)
            assert got == _ref_subset(left, right)
            outcomes.add(got.holds)
            empty = intersection_empty(left, right)
            assert empty == _ref_intersection_empty(left, right)
            disjoint.add(empty)
    assert outcomes == disjoint == {True, False}


def _walk_case(rng, cover, tails=(1, 2), bases=12):
    """A row tail and a target whose row tails miss some of the tail's residue
    classes mod the joint period.  `cover` ("points" or "crossers") fills each
    missed class up to the window and, past it, for one to four periods;
    a few holes are punched at random.  `tails` bounds the number of row tails
    and `bases` their bases, which cut the tail into stretches."""
    row = rng.randint(0, 5)
    same = [
        RowTail(row, rng.randint(0, bases), rng.choice([4, 6, 8, 9, 12]))
        for _ in range(rng.randint(*tails))
    ]
    # the tail's step shares factors with the row tails' steps
    tail = RowTail(row, rng.randint(0, 12), rng.choice([2, 3, 4, 6]))
    top = max([tail.base] + [t.base for t in same])
    joint = math.lcm(tail.step, *(t.step for t in same))
    fixed = set()
    for value in range(tail.base, top + joint + 1, tail.step):
        if not _ref_member(same, E(row, value)):
            periods = rng.randint(1, 4) if value > top else 1
            fixed.update(value + joint * m for m in range(periods))
    fixed -= {v for v in fixed if rng.random() < 0.03}
    target = list(same)
    for value in sorted(fixed):
        if cover == "points":
            target.append(Single(E(row, value)))
        else:
            step = rng.choice([1, 2, 3])
            target.append(ColTail(value, row - step * rng.randint(0, row // step), step))
    rng.shuffle(target)
    return symset(tail), SymSet(tuple(target)), top + joint, joint


def test_class_walk_matches_the_in_order_scan(monkeypatch):
    walks = 0
    walk = symset_module._walk_classes

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    monkeypatch.setattr(symset_module, "_walk_classes", counted)
    rng = random.Random(20261019)
    kinds = [
        # one or two row tails based near the tail: the walks past the window
        # decide most cases, some of them periods past it
        ({}, lambda v, end, joint: v > end + joint),
        # two to four row tails based far apart: the stretches below the
        # largest base are walked too, and some counterexamples lie there
        ({"tails": (2, 4), "bases": 60}, lambda v, end, joint: v <= end - joint),
    ]
    for case_args, notable in kinds:
        for cover in ("points", "crossers"):
            walks = found = 0
            for case in range(150):
                a, b, end, joint = _walk_case(rng, cover, **case_args)
                if case % 3 == 1:
                    b = canonicalize(b)
                if case % 2:
                    a, b = transpose(a), transpose(b)
                got = subset(a, b)
                assert got == _ref_subset(a, b)
                x = got.counterexample
                if x is not None and notable(x.k if case % 2 else x.l, end, joint):
                    found += 1
            assert walks > 100 and found > 10


def test_subset_scan_ends_one_joint_period_past_the_bases(monkeypatch):
    calls = 0
    has = symset_module._LineIndex.has

    def counted(self, k, l):
        nonlocal calls
        calls += 1
        return has(self, k, l)

    monkeypatch.setattr(symset_module._LineIndex, "has", counted)
    cases = [
        # one lookup per value of an 81 * 81 period made 82 lookups
        (symset(RowTail(0, 0, 81)), symset(RowTail(0, 0, 81)), 6561, 3),
        # a crossing tail far out on the row made 1,000,002 lookups
        (symset(RowTail(0, 0, 1)), symset(RowTail(0, 0, 1), ColTail(10**6, 0, 1)), 10**6 + 1, 3),
        # a second row tail based far out made 500,001 lookups below its base
        (symset(RowTail(0, 0, 2)), symset(RowTail(0, 0, 2), RowTail(0, 999999, 2)), 10**6 + 3, 8),
    ]
    for a, b, bound, most in cases:
        calls = 0
        assert subset(a, b) == SubsetWitness(True, covering_bound=bound)
        assert calls <= most


def test_canonicalize_scans_only_the_lines_of_each_atom(monkeypatch):
    """Count canonicalize's work: each call of a progression helper is one
    lookup, and each tail handed to it one progression test."""
    lookups = tests = 0

    def counting(helper):
        def counted(tails, value):
            nonlocal lookups, tests
            lookups += 1
            tests += len(tails)
            return helper(tails, value)

        return counted

    for name in ("_any_on_progression", "_any_holds_tail"):
        monkeypatch.setattr(symset_module, name, counting(getattr(symset_module, name)))

    def line_tests(atom_list):
        """Progression tests when every atom scans the tails on its own lines."""
        rows, cols = {}, {}
        for atom in atom_list:
            if isinstance(atom, RowTail):
                rows[atom.row] = rows.get(atom.row, 0) + 1
            elif isinstance(atom, ColTail):
                cols[atom.col] = cols.get(atom.col, 0) + 1
        total = 0
        for atom in atom_list:
            if isinstance(atom, Single):
                total += rows.get(atom.element.k, 0) + cols.get(atom.element.l, 0)
            elif isinstance(atom, RowTail):
                total += rows[atom.row]
            else:
                total += cols[atom.col]
        return total

    # 2,001 points on row 0 and one column tail: the all-pairs scan made
    # about 4 million containment tests here
    img = left_image(E(0, 2000), symset(ColTail(0, 0, 1)))
    assert len(img.atoms) == 2002
    lookups = tests = 0
    assert canonicalize(img) == img
    assert len(img.atoms) <= lookups <= 2 * len(img.atoms)
    assert tests <= 2 * len(img.atoms)

    # 300 row tails on row 0 (one step, distinct residues: none absorbs
    # another), 300 points between them, and one row tail on each of 300
    # other rows and one column tail on each of 300 columns; scanning every
    # tail for every atom would make 1,080,000 tests
    crowded = (
        [RowTail(0, base, 1009) for base in range(300)]
        + [Single(E(0, value)) for value in range(300, 600)]
        + [RowTail(row, 0, 1) for row in range(1, 301)]
        + [ColTail(col, 1, 1) for col in range(1000, 1300)]
    )
    random.Random(5).shuffle(crowded)
    lookups = tests = 0
    canon = canonicalize(SymSet(tuple(crowded)))
    assert set(canon.atoms) == set(crowded)
    assert len(crowded) <= lookups <= 2 * len(crowded)
    assert tests == line_tests(crowded) == 300 * 300 + 300 * 300 + 300 + 300


# --- final-orientation builders against the transpose references ------------------------


def _ref_right_image_atom(atom, s):
    """x * s = inv(inv(s) * inv(x)): transpose the atom, take the left image
    by inv(s), transpose every output atom."""
    return [_transpose_atom(z) for z in _left_image_atom(invert(s), _transpose_atom(atom))]


def _ref_col_col(x, y):
    """x * y = inv(inv(y) * inv(x)) for two column tails, transposing every output atom."""
    return [_transpose_atom(z) for z in _product_row_row(_transpose_atom(y), _transpose_atom(x))]


def _image_case(rng):
    """An atom and an element s, with the kind of case the image falls in.

    A row tail's right image splits off the members below s.k as points:
    none, one or about 200 of them.  A column tail's is one tail, and s.k
    falls below, at or above its column.
    """
    kind = rng.choice(["single", "row", "col"])
    base, step = rng.randint(0, 30), rng.randint(1, 9)
    line, l = rng.randint(0, 40), rng.randint(0, 40)
    if kind == "single":
        return Single(E(line, rng.randint(0, 40))), E(rng.randint(0, 40), l), kind
    if kind == "row":
        split = rng.choice([0, 1, rng.randint(190, 210)])
        if split:
            k = base + step * (split - 1) + rng.randint(1, step)
        else:
            k = rng.randint(0, base - 1) if base else 0
        # the members below s.k, plus one more point when s.k is a member
        split = len(range(base, k, step)) + (k >= base and (k - base) % step == 0)
        return RowTail(line, base, step), E(k, l), ("row", min(split, 190))
    col = rng.randint(1, 40)
    k = rng.choice([rng.randint(0, col - 1), col, rng.randint(col + 1, 60)])
    return ColTail(col, base, step), E(k, l), ("col", (k > col) - (k < col))


def test_final_orientation_builders_match_transpose_references(monkeypatch):
    rng = random.Random(20261020)
    seen = {}

    def canonical(atom_list, case):
        # the all-pairs reference is quadratic: it checks every small result
        # and one large result in ten
        if len(atom_list) <= 50 or case % 10 == 0:
            return _ref_canonicalize(SymSet(tuple(atom_list)))
        return canonicalize(SymSet(tuple(atom_list)))

    def raw(call):
        """The atoms a call hands to canonicalize, in the order it builds them."""
        with monkeypatch.context() as m:
            m.setattr(symset_module, "canonicalize", lambda s: s)
            return call().atoms

    for case in range(450):
        # the first atom's s is applied to every atom of the set
        cases = [_image_case(rng) for _ in range(rng.randint(1, 3))]
        s = cases[0][1]
        atoms = tuple(atom for atom, _, _ in cases)
        expected = [z for atom in atoms for z in _ref_right_image_atom(atom, s)]
        assert raw(lambda: right_image(SymSet(atoms), s)) == tuple(expected)
        assert right_image(SymSet(atoms), s) == canonical(expected, case)
        kind = cases[0][2]
        seen[kind] = seen.get(kind, 0) + 1

    for case in range(200):
        d1, d2 = rng.randint(1, 30), rng.randint(1, 30)
        x = ColTail(rng.randint(0, 20), rng.randint(0, 30), d1)
        y = ColTail(rng.randint(0, 20), rng.randint(0, 30), d2)
        expected = _ref_col_col(x, y)
        assert raw(lambda: product(SymSet((x,)), SymSet((y,)))) == tuple(expected)
        assert product(symset(x), symset(y)) == canonical(expected, case)
        kind = ("col x col", "coprime" if math.gcd(d1, d2) == 1 else "shared factor")
        seen[kind] = seen.get(kind, 0) + 1

    # singles, splits of 0, 1 and 190 or more points, s.k below, at and
    # above a column, and both kinds of step pair were each drawn often
    kinds = ["single", ("row", 0), ("row", 1), ("row", 190), ("col", -1), ("col", 0), ("col", 1)]
    kinds += [("col x col", "coprime"), ("col x col", "shared factor")]
    assert min(seen.get(kind, 0) for kind in kinds) > 20, seen


# --- images -----------------------------------------------------------------------------


@given(elems, st.lists(atoms, max_size=3))
@settings(max_examples=120)
def test_left_image_pointwise(s, atom_list):
    src = symset(*atom_list)
    img = left_image(s, src)
    for x in members(src, 20):
        assert member(img, multiply(s, x))
    for z in members(img, 20):
        assert pointwise_witness(symset(Single(s)), src, z) is not None


@given(elems, st.lists(atoms, max_size=3))
@settings(max_examples=120)
def test_right_image_pointwise(s, atom_list):
    src = symset(*atom_list)
    img = right_image(src, s)
    for x in members(src, 20):
        assert member(img, multiply(x, s))
    for z in members(img, 20):
        assert pointwise_witness(src, symset(Single(s)), z) is not None


def test_left_image_pinned():
    # constant case: a whole row tail shifts to one row tail
    img = left_image(E(2, 1), symset(RowTail(3, 5, 4)))
    assert img.atoms == (RowTail(4, 5, 4),)
    # column tail splits into low singles plus a translated tail
    img = left_image(E(1, 4), symset(ColTail(0, 0, 3)))
    for z in members(img, 12):
        assert pointwise_witness(symset(Single(E(1, 4))), symset(ColTail(0, 0, 3)), z)


# --- products ----------------------------------------------------------------------------


@given(rowtails, rowtails)
@settings(max_examples=120)
def test_product_row_row_pointwise(x, y):
    prod = product(symset(x), symset(y))
    for u in atom_members(x, 12):
        for v in atom_members(y, 12):
            assert member(prod, multiply(u, v))
    for z in members(prod, 12):
        assert pointwise_witness(symset(x), symset(y), z) is not None


@given(rowtails, coltails)
@settings(max_examples=120)
def test_product_row_col_pointwise(x, y):
    prod = product(symset(x), symset(y))
    for u in atom_members(x, 12):
        for v in atom_members(y, 12):
            assert member(prod, multiply(u, v))
    for z in members(prod, 12):
        assert pointwise_witness(symset(x), symset(y), z) is not None


@given(coltails, coltails)
@settings(max_examples=120)
def test_product_col_col_pointwise(x, y):
    prod = product(symset(x), symset(y))
    for u in atom_members(x, 12):
        for v in atom_members(y, 12):
            assert member(prod, multiply(u, v))
    for z in members(prod, 12):
        assert pointwise_witness(symset(x), symset(y), z) is not None


def test_product_flattens_two_steps():
    # steps 4 and 9 on one row: the high branch settles into a gcd-1 tail
    prod = product(symset(RowTail(0, 0, 4)), symset(RowTail(0, 0, 9)))
    assert any(isinstance(a, RowTail) and a.step == 1 for a in prod.atoms)
    # the conductor of <4, 9> is (4-1)(9-1) = 24; the high branch starts at 4
    assert not member(prod, E(0, 23))  # 23 is neither 4t1+9t2 (t1>=1) nor 9t2
    assert member(prod, E(0, 24)) and member(prod, E(0, 25)) and member(prod, E(0, 28))
    assert member(prod, E(0, 18))  # zero-power branch keeps the step-9 tail
    assert not member(prod, E(0, 5))


def test_product_col_row_unrepresentable():
    with pytest.raises(UnrepresentableProductError):
        product(symset(ColTail(0, 0, 2)), symset(RowTail(0, 0, 2)))


def test_product_with_singles_is_translation():
    s = symset(RowTail(2, 2, 3))
    assert product(symset(Single(E(1, 2))), s) == left_image(E(1, 2), s)
    assert product(s, symset(Single(E(1, 2)))) == right_image(s, E(1, 2))


# --- text and record forms ------------------------------------------------------------------


def test_format_parse_roundtrip():
    s = symset(Single(E(1, 2)), RowTail(0, 3, 2), ColTail(4, 1, 5))
    assert parse_symset(format_symset(s)) == s
    assert parse_symset("∅") == EMPTY
    assert parse_symset("{}") == EMPTY
    assert format_symset(EMPTY) == "∅"


def test_parse_symset_forms():
    assert parse_symset("{b^1 a^2}") == symset(Single(E(1, 2)))
    assert parse_symset("{b^0 a^(3+2t)}") == symset(RowTail(0, 3, 2))
    assert parse_symset("{b^(1+5t) a^4}") == symset(ColTail(4, 1, 5))
    two = parse_symset("{b^0 a^(3+2t)} | {b^9 a^9}")
    assert member(two, E(9, 9)) and member(two, E(0, 5))
    with pytest.raises(ValueError):
        parse_symset("{b^1}")
