"""Symbolic sets of monoid elements: finite unions of points and progression tails.

Three atom shapes cover everything the neighborhood calculus needs:

    Single(e)               the one-point set {e}
    RowTail(r, b, d)        { b^r a^(b + d*t) : t = 0, 1, 2, ... }
    ColTail(c, b, d)        { b^(b + d*t) a^c : t = 0, 1, 2, ... }

A SymSet denotes the union of its atoms.  All operations are exact: subset
tests return a certificate (a periodic covering bound, or a counterexample
element), and translation/product images are computed by case analysis on
the multiplication law, flattening sums of two progressions through the
numerical semigroup they generate.

One product orientation is inherently out of reach: ColTail * RowTail puts
the left factor's free exponent in the first coordinate and the right
factor's in the second, giving a genuinely two-dimensional set that no
finite union of these atoms can express.  That pairing raises
UnrepresentableProductError; nothing in the neighborhood calculus needs it,
since every topology hands out same-orientation tails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, inf, lcm
from typing import Iterable, Optional, Union

from .element import BicyclicElement, invert, multiply

__all__ = [
    "Single",
    "RowTail",
    "ColTail",
    "Atom",
    "SymSet",
    "EMPTY",
    "symset",
    "UnrepresentableProductError",
    "SubsetWitness",
    "atom_member",
    "atom_members",
    "member",
    "members",
    "transpose",
    "canonicalize",
    "union",
    "subset",
    "atom_disjoint",
    "intersection_empty",
    "left_image",
    "right_image",
    "product",
    "parse_symset",
    "format_symset",
    "symset_to_records",
    "symset_from_records",
]


class UnrepresentableProductError(ValueError):
    """Raised when a product would need a two-dimensional progression."""


def _check_uint(value, name):
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class Single:
    element: BicyclicElement


@dataclass(frozen=True)
class RowTail:
    """Fixed first exponent, second exponent running up an arithmetic progression."""

    row: int
    base: int
    step: int

    def __post_init__(self):
        _check_uint(self.row, "row")
        _check_uint(self.base, "base")
        if not isinstance(self.step, int) or self.step < 1:
            raise ValueError(f"step must be a positive integer, got {self.step!r}")


@dataclass(frozen=True)
class ColTail:
    """Fixed second exponent, first exponent running up an arithmetic progression."""

    col: int
    base: int
    step: int

    def __post_init__(self):
        _check_uint(self.col, "col")
        _check_uint(self.base, "base")
        if not isinstance(self.step, int) or self.step < 1:
            raise ValueError(f"step must be a positive integer, got {self.step!r}")


Atom = Union[Single, RowTail, ColTail]


@dataclass(frozen=True)
class SymSet:
    atoms: tuple

    def __iter__(self):
        return iter(self.atoms)

    def __bool__(self):
        return bool(self.atoms)


EMPTY = SymSet(())


def symset(*atoms: Atom) -> SymSet:
    return canonicalize(SymSet(tuple(atoms)))


# --- membership and sampling -------------------------------------------------


def atom_member(atom: Atom, x: BicyclicElement) -> bool:
    if isinstance(atom, Single):
        return atom.element == x
    if isinstance(atom, RowTail):
        return x.k == atom.row and _on_progression(atom, x.l)
    return x.l == atom.col and _on_progression(atom, x.k)


def member(s: SymSet, x: BicyclicElement) -> bool:
    return any(atom_member(a, x) for a in s.atoms)


def atom_members(atom: Atom, count: int) -> list:
    """The first `count` members in increasing progression order."""
    if isinstance(atom, Single):
        return [atom.element]
    if isinstance(atom, RowTail):
        return [BicyclicElement(atom.row, atom.base + atom.step * t) for t in range(count)]
    return [BicyclicElement(atom.base + atom.step * t, atom.col) for t in range(count)]


def members(s: SymSet, count_per_atom: int) -> list:
    out = []
    for a in s.atoms:
        out.extend(atom_members(a, count_per_atom))
    return out


# --- structural helpers -------------------------------------------------------


def _transpose_atom(atom: Atom) -> Atom:
    # elementwise inversion (k, l) -> (l, k); swaps the two tail orientations
    if isinstance(atom, Single):
        return Single(invert(atom.element))
    if isinstance(atom, RowTail):
        return ColTail(atom.row, atom.base, atom.step)
    return RowTail(atom.col, atom.base, atom.step)


def transpose(s: SymSet) -> SymSet:
    """Elementwise inversion of the whole set."""
    return SymSet(tuple(_transpose_atom(a) for a in s.atoms))


def _atom_key(atom: Atom):
    if isinstance(atom, Single):
        return (0, atom.element.k, atom.element.l, 0)
    if isinstance(atom, RowTail):
        return (1, atom.row, atom.base, atom.step)
    return (2, atom.col, atom.base, atom.step)


class _LineIndex:
    """The atoms of one set, looked up by the row or column they lie on.

    Built in O(atoms).  Axis 0 is rows and axis 1 is columns: tails[0] maps
    a row to its RowTails and tails[1] a column to its ColTails, and
    line_points[0] (line_points[1]) maps a row (column) to the free exponents
    l (k) of the points on it.  Points stay out of `tails`, so the tails of a
    line are all that absorption and membership ever scan.
    """

    __slots__ = ("points", "tails", "line_points")

    def __init__(self, atoms: Iterable[Atom]):
        points, row_points, col_points, rows, cols = set(), {}, {}, {}, {}
        for atom in atoms:
            if isinstance(atom, Single):
                k, l = atom.element.k, atom.element.l
                points.add((k, l))
                row_points.setdefault(k, []).append(l)
                col_points.setdefault(l, []).append(k)
            elif isinstance(atom, RowTail):
                rows.setdefault(atom.row, []).append(atom)
            else:
                cols.setdefault(atom.col, []).append(atom)
        self.points = points
        self.tails = (rows, cols)
        self.line_points = (row_points, col_points)

    def has(self, k: int, l: int) -> bool:
        """Membership of b^k a^l: a point, or a tail on row k or column l."""
        return (
            (k, l) in self.points
            or _any_on_progression(self.tails[0].get(k, ()), l)
            or _any_on_progression(self.tails[1].get(l, ()), k)
        )


def _tail_line(tail) -> tuple:
    """(axis, line) of a tail: (0, row) for a RowTail, (1, col) for a ColTail."""
    return (0, tail.row) if isinstance(tail, RowTail) else (1, tail.col)


def _on_progression(tail, value: int) -> bool:
    """Whether the tail's free exponent takes `value`."""
    return value >= tail.base and (value - tail.base) % tail.step == 0


def _any_on_progression(tails, value: int) -> bool:
    """Whether one of `tails` takes `value`; a plain loop, as membership runs it most."""
    for tail in tails:
        if value >= tail.base and (value - tail.base) % tail.step == 0:
            return True
    return False


def _any_holds_tail(tails, tail) -> bool:
    """Whether another of `tails`, all on the tail's line, contains the whole tail.

    It does when the tail's base is on its progression and the tail's step
    is a multiple of its step.
    """
    base, step = tail.base, tail.step
    for other in tails:
        if (
            other is not tail
            and step % other.step == 0
            and base >= other.base
            and (base - other.base) % other.step == 0
        ):
            return True
    return False


def canonicalize(s: SymSet) -> SymSet:
    """Deterministic normal form: dedupe, drop atoms absorbed by another, sort.

    Atoms are deduplicated by `_atom_key`, whose plain tuple hashes in C
    where the dataclass hash is a Python method (two nested ones for a
    Single).  The
    key is injective: its first entry names the atom's kind and the other
    three are all of that kind's fields, so two atoms share a key exactly
    when they are equal.

    Only a tail can absorb an atom, and only a tail on one of the atom's own
    lines, so one line index of the distinct atoms answers every test: a
    point b^k a^l is dropped when a tail on row k takes l or a tail on
    column l takes k, and a tail when another tail on its line holds its
    base and has a step dividing its own.  The whole pass costs O(atoms +
    the tails on each atom's lines), however many points share a line.
    The kept keys are sorted, which orders the atoms as sorting them by key
    would, without computing any key again.
    """
    by_key = {_atom_key(a): a for a in s.atoms}
    index = _LineIndex(by_key.values())
    rows, cols = index.tails
    kept = []
    # distinct atoms never contain each other mutually, so dropping every
    # absorbed atom cannot empty an equivalence class
    for key, atom in by_key.items():
        kind, line, value, _ = key
        if kind == 0:
            if _any_on_progression(rows.get(line, ()), value) or _any_on_progression(
                cols.get(value, ()), line
            ):
                continue
        elif _any_holds_tail(index.tails[kind - 1][line], atom):
            continue
        kept.append(key)
    kept.sort()
    return SymSet(tuple(by_key[key] for key in kept))


def union(*sets: SymSet) -> SymSet:
    atoms = []
    for s in sets:
        atoms.extend(s.atoms)
    return canonicalize(SymSet(tuple(atoms)))


# --- subset with certificate --------------------------------------------------


@dataclass(frozen=True)
class SubsetWitness:
    """Outcome of an exact subset test.

    holds=False carries an element of the left set missing from the right
    one: for the first atom of the left set, in atom order, that is not
    contained, the point itself or the tail's least missing member.
    holds=True carries a covering bound: along every tail of the left set,
    testing the members whose free exponent is at most the bound decides
    the test.  Past the largest exponent that the right set's atoms fix on
    the tail's line, membership there repeats with the period of the right
    set's tails along the line, and the bound reaches one full period past
    that exponent.
    """

    holds: bool
    counterexample: Optional[BicyclicElement] = None
    covering_bound: Optional[int] = None


def _tail_subset(tail, index: _LineIndex) -> SubsetWitness:
    """Decide tail <= b, with b read from its line index, one stretch at a time.

    A value v of the tail's free exponent lies in b when it is a point of b
    on the line, the one element where a crossing tail of b meets the line,
    or a member of a tail of b along the line (a same-line tail).  Call the
    first two kinds `fixed`.  The bases of the same-line tails above the
    tail's base cut its values into stretches; the last one starts at
    `top`, the largest base among the tail and the same-line tails, and has
    no end.  Inside a stretch the active same-line tails are those based at
    or below its start, and for v in the stretch, v lies on one iff it does
    mod that tail's step.  So along the tail, same-line membership repeats
    in a stretch every `joint` values, the lcm of the tail's step and the
    active steps: each residue class of the tail mod `joint` is on an
    active tail throughout the stretch or nowhere in it.

    Each class's first value in the stretch is looked up.  A class on an
    active tail is covered to the stretch's end.  Any other class is in b
    only while its values are fixed, so `_walk_classes` follows it by
    `joint` to its first value outside b; every step passes a fixed value
    of the stretch, so the walks of all stretches take at most len(fixed)
    steps in total.

    The counterexample is the least value of the tail outside b, as a scan
    of every value in order would find it: stretches are taken in order,
    the looked-up first values in order, and each walk starts one `joint`
    past every first value of its stretch.

    The covering bound is max(fixed + [top]) + period * step, with
    `period` the lcm of all same-line steps (1 when there are none).  Past
    the largest fixed value only the same-line tails count, and along the
    tail they repeat every joint <= period * step, so the values up to the
    bound span a whole period there: a scan up to it decides the test, and
    an in-order scan finds the same counterexample.
    """
    axis, line = _tail_line(tail)
    same_line = index.tails[axis].get(line, ())
    fixed = list(index.line_points[axis].get(line, ()))
    for cross, tails in index.tails[1 - axis].items():
        # a crossing tail contributes at most the one element on this line
        if _any_on_progression(tails, line):
            fixed.append(cross)
    base, step = tail.base, tail.step
    # a base shared by two tails cuts an empty stretch, which decides nothing
    cuts = sorted([t.base for t in same_line if t.base > base])
    for start, end in zip([base, *cuts], [*cuts, inf]):
        active = [t for t in same_line if t.base <= start]
        period = lcm(*(t.step for t in active))  # 1 when no tail is active
        joint = lcm(period, step)
        first = start + (base - start) % step
        stop = min(first + joint, end)
        for value in range(first, stop, step):
            k, l = (line, value) if axis == 0 else (value, line)
            if not index.has(k, l):
                return SubsetWitness(False, counterexample=BicyclicElement(k, l))
        # the looked-up values that no active tail covers are fixed
        gaps = [
            v
            for v in fixed
            if first <= v < stop and (v - base) % step == 0 and not _any_on_progression(active, v)
        ]
        value = _walk_classes(gaps, joint, fixed, end) if gaps else None
        if value is not None:
            k, l = (line, value) if axis == 0 else (value, line)
            return SubsetWitness(False, counterexample=BicyclicElement(k, l))
    # the last stretch starts at top, with every same-line tail active
    return SubsetWitness(True, covering_bound=max([start] + fixed) + period * step)


def _walk_classes(gaps, joint: int, fixed, end) -> Optional[int]:
    """The least value below `end` outside b in the classes of `gaps`, or None.

    Each gap is a stretch's first value of a class that a fixed value alone
    covers; later values of the class, up to `end`, stay in b only while
    fixed values cover them.  Each step passes a distinct fixed value of
    the stretch, so all walks of all stretches take at most len(fixed)
    steps.
    """
    fixed = set(fixed)
    ends = []
    for value in gaps:
        value += joint
        while value < end and value in fixed:
            value += joint
        ends.append(value)
    least = min(ends)
    return least if least < end else None


def subset(a: SymSet, b: SymSet) -> SubsetWitness:
    """Exact test a <= b with a checkable certificate either way.

    Points of a are looked up in a line index of b, which costs O(atoms of
    b) to build and O(tails on one line) per lookup.  Each tail of a is
    decided stretch by stretch between the bases of b's tails on its line,
    each in one joint period of its own step and the steps of the tails
    active there (see `_tail_subset`): O(atoms of b on the line + tails of
    b across it) plus at most one lookup per value in each stretch's
    period.  The certificate is the least missing element, or
    the largest covering bound over the tails of a (see `SubsetWitness`).
    """
    index = _LineIndex(b.atoms)
    worst_bound = 0
    for atom in a.atoms:
        if isinstance(atom, Single):
            if not index.has(atom.element.k, atom.element.l):
                return SubsetWitness(False, counterexample=atom.element)
            continue
        w = _tail_subset(atom, index)
        if not w.holds:
            return w
        worst_bound = max(worst_bound, w.covering_bound)
    return SubsetWitness(True, covering_bound=worst_bound)


# --- disjointness --------------------------------------------------------------


def atom_disjoint(a: Atom, b: Atom) -> bool:
    if isinstance(a, Single):
        return not atom_member(b, a.element)
    if isinstance(b, Single):
        return not atom_member(a, b.element)
    if isinstance(a, RowTail) and isinstance(b, RowTail):
        if a.row != b.row:
            return True
        return (a.base - b.base) % gcd(a.step, b.step) != 0
    if isinstance(a, ColTail) and isinstance(b, ColTail):
        if a.col != b.col:
            return True
        return (a.base - b.base) % gcd(a.step, b.step) != 0
    row_tail, col_tail = (a, b) if isinstance(a, RowTail) else (b, a)
    # the only possible common element is (row, col)
    meet = BicyclicElement(row_tail.row, col_tail.col)
    return not (atom_member(row_tail, meet) and atom_member(col_tail, meet))


def intersection_empty(a: SymSet, b: SymSet) -> bool:
    """Whether a and b share no element, decided exactly.

    Reads a line index of b, which costs O(atoms of b) to build.  A point of
    a is one lookup, O(tails on one line).  A tail of a meets only the points
    and tails of b on its own line, and the tails that cross that line at one
    element each: O(atoms of b on its line + tails of b across it) per tail.
    """
    index = _LineIndex(b.atoms)
    for x in a.atoms:
        if isinstance(x, Single):
            if index.has(x.element.k, x.element.l):
                return False
            continue
        axis, line = _tail_line(x)
        for value in index.line_points[axis].get(line, ()):
            if _on_progression(x, value):
                return False
        for y in index.tails[axis].get(line, ()):
            if (x.base - y.base) % gcd(x.step, y.step) == 0:
                return False
        # a crossing tail on line `cross` can only share the element where
        # the two lines meet
        for cross, tails in index.tails[1 - axis].items():
            if _on_progression(x, cross) and _any_on_progression(tails, line):
                return False
    return True


# --- translation images ---------------------------------------------------------


def _first_value_above(base: int, step: int, threshold: int) -> int:
    """Least base + step*t strictly greater than threshold."""
    if base > threshold:
        return base
    return base + step * ((threshold - base) // step + 1)


def _point(axis: int, k: int, l: int) -> Single:
    """{b^k a^l} on axis 0; on axis 1 its transpose {b^l a^k}."""
    return Single(BicyclicElement(k, l) if axis == 0 else BicyclicElement(l, k))


def _tail(axis: int, line: int, base: int, step: int) -> Atom:
    """A RowTail on row `line` (axis 0) or a ColTail on column `line` (axis 1)."""
    return RowTail(line, base, step) if axis == 0 else ColTail(line, base, step)


def _left_image_atom(s: BicyclicElement, atom: Atom, axis: int = 0) -> list:
    """The atoms of { s * x : x in atom }, transposed when axis is 1.

    Axis 1 builds each output atom in its transposed orientation directly,
    which is what `_right_image_atom` needs, so no output atom is built
    twice.  The tail, when there is one, is the last atom.
    """
    if isinstance(atom, Single):
        z = multiply(s, atom.element)
        return [Single(z if axis == 0 else invert(z))]
    if isinstance(atom, RowTail):
        # the comparison s.l vs row is the same for every member
        if s.l < atom.row:
            return [_tail(axis, s.k - s.l + atom.row, atom.base, atom.step)]
        if s.l == atom.row:
            return [_tail(axis, s.k, atom.base, atom.step)]
        return [_tail(axis, s.k, s.l - atom.row + atom.base, atom.step)]
    # ColTail: the comparison s.l vs the running first exponent splits the tail
    out = []
    value = atom.base
    while value < s.l:  # finitely many members below s.l collapse to points
        out.append(_point(axis, s.k, s.l - value + atom.col))
        value += atom.step
    if value == s.l:
        out.append(_point(axis, s.k, atom.col))
    high = _first_value_above(atom.base, atom.step, s.l)
    out.append(_tail(1 - axis, atom.col, s.k - s.l + high, atom.step))
    return out


def left_image(s: BicyclicElement, sets: SymSet) -> SymSet:
    """The exact set { s * x : x in sets }."""
    atoms = []
    for atom in sets.atoms:
        atoms.extend(_left_image_atom(s, atom))
    return canonicalize(SymSet(tuple(atoms)))


def _right_image_atom(atom: Atom, s: BicyclicElement) -> list:
    # inversion is an anti-isomorphism, x * s = inv(inv(s) * inv(x)): the
    # right image is the left image by inv(s) of the transposed atom, built
    # transposed back (axis 1); only the input atom is transposed
    if isinstance(atom, Single):
        return [Single(multiply(atom.element, s))]
    return _left_image_atom(invert(s), _transpose_atom(atom), 1)


def right_image(sets: SymSet, s: BicyclicElement) -> SymSet:
    """The exact set { x * s : x in sets }, via the inversion anti-isomorphism."""
    atoms = []
    for atom in sets.atoms:
        atoms.extend(_right_image_atom(atom, s))
    return canonicalize(SymSet(tuple(atoms)))


# --- products --------------------------------------------------------------------


def _semigroup_atoms(row: int, base: int, d1: int, d2: int, axis: int = 0) -> list:
    """Atoms for { b^row a^(base + v) : v in the semigroup generated by d1, d2 }.

    With g = gcd, the set g*<d1/g, d2/g> has a finite exceptional part below
    g * conductor and then every multiple of g; conductor is the coprime
    Frobenius bound (a-1)(b-1).  Axis 1 builds the transposed atoms, the
    tail last.
    """
    g = gcd(d1, d2)
    a, b = d1 // g, d2 // g
    conductor = (a - 1) * (b - 1)
    atoms = []
    reachable = {
        a * u + b * v
        for u in range(conductor // a + 1)
        for v in range((conductor - a * u) // b + 1 if conductor >= a * u else 0)
    }
    for s in sorted(v for v in reachable if v < conductor):
        atoms.append(_point(axis, row, base + g * s))
    atoms.append(_tail(axis, row, base + g * conductor, g))
    return atoms


def _product_row_row(x: RowTail, y: RowTail, axis: int = 0) -> list:
    """The atoms of x * y, transposed when axis is 1; the far tail is last."""
    atoms = []
    value = x.base
    while value < y.row:  # low members of x act by shifting into y's row copy
        atoms.append(_tail(axis, x.row - value + y.row, y.base, y.step))
        value += x.step
    if value == y.row:
        atoms.append(_tail(axis, x.row, y.base, y.step))
    high = _first_value_above(x.base, x.step, y.row)
    atoms.extend(_semigroup_atoms(x.row, high - y.row + y.base, x.step, y.step, axis))
    return atoms


def _product_row_col(x: RowTail, y: ColTail) -> list:
    # free exponents face each other; the difference sweeps a full residue
    # class of gcd(steps), one tail on each side of zero
    g = gcd(x.step, y.step)
    atoms = []
    forward = (y.base - x.base) % g
    atoms.append(ColTail(y.col, x.row + (forward if forward else g), g))
    if (y.base - x.base) % g == 0:
        atoms.append(Single(BicyclicElement(x.row, y.col)))
    backward = (x.base - y.base) % g
    atoms.append(RowTail(x.row, y.col + (backward if backward else g), g))
    return atoms


def product(a: SymSet, b: SymSet) -> SymSet:
    """The exact elementwise product { x * y : x in a, y in b }.

    Raises UnrepresentableProductError when a ColTail meets a RowTail in
    that order; see the module docstring.
    """
    atoms = []
    for x in a.atoms:
        for y in b.atoms:
            if isinstance(x, Single):
                atoms.extend(_left_image_atom(x.element, y))
            elif isinstance(y, Single):
                atoms.extend(_right_image_atom(x, y.element))
            elif isinstance(x, RowTail) and isinstance(y, RowTail):
                atoms.extend(_product_row_row(x, y))
            elif isinstance(x, RowTail) and isinstance(y, ColTail):
                atoms.extend(_product_row_col(x, y))
            elif isinstance(x, ColTail) and isinstance(y, ColTail):
                # x * y = inv(inv(y) * inv(x)), built transposed back (axis 1)
                atoms.extend(_product_row_row(_transpose_atom(y), _transpose_atom(x), 1))
            else:
                raise UnrepresentableProductError(
                    "ColTail * RowTail is a two-dimensional set and has no "
                    "finite representation in this atom vocabulary"
                )
    return canonicalize(SymSet(tuple(atoms)))


# --- text and record forms --------------------------------------------------------

_SINGLE_RE = re.compile(r"^\{\s*b\^(\d+)\s*a\^(\d+)\s*\}$")
_ROWTAIL_RE = re.compile(r"^\{\s*b\^(\d+)\s*a\^\(\s*(\d+)\s*\+\s*(\d+)\s*t\s*\)\s*\}$")
_COLTAIL_RE = re.compile(r"^\{\s*b\^\(\s*(\d+)\s*\+\s*(\d+)\s*t\s*\)\s*a\^(\d+)\s*\}$")


def _format_atom(atom: Atom) -> str:
    if isinstance(atom, Single):
        return f"{{b^{atom.element.k} a^{atom.element.l}}}"
    if isinstance(atom, RowTail):
        return f"{{b^{atom.row} a^({atom.base}+{atom.step}t)}}"
    return f"{{b^({atom.base}+{atom.step}t) a^{atom.col}}}"


def format_symset(s: SymSet) -> str:
    if not s.atoms:
        return "∅"
    return " ∪ ".join(_format_atom(a) for a in s.atoms)


def _parse_atom(text: str) -> Atom:
    text = text.strip()
    m = _SINGLE_RE.match(text)
    if m:
        return Single(BicyclicElement(int(m.group(1)), int(m.group(2))))
    m = _ROWTAIL_RE.match(text)
    if m:
        return RowTail(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _COLTAIL_RE.match(text)
    if m:
        return ColTail(int(m.group(3)), int(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse atom {text!r}")


def parse_symset(text: str) -> SymSet:
    """Parse the printed form; '∅' or '{}' denote the empty set, '∪' or '|' join atoms."""
    body = text.strip()
    if body in ("∅", "{}", ""):
        return EMPTY
    parts = re.split(r"[∪|]", body)
    return canonicalize(SymSet(tuple(_parse_atom(p) for p in parts)))


def symset_to_records(s: SymSet) -> list:
    records = []
    for atom in s.atoms:
        if isinstance(atom, Single):
            records.append({"type": "single", "k": atom.element.k, "l": atom.element.l})
        elif isinstance(atom, RowTail):
            records.append({"type": "row_tail", "row": atom.row, "base": atom.base, "step": atom.step})
        else:
            records.append({"type": "col_tail", "col": atom.col, "base": atom.base, "step": atom.step})
    return records


def symset_from_records(records: list) -> SymSet:
    atoms = []
    for rec in records:
        kind = rec.get("type")
        if kind == "single":
            atoms.append(Single(BicyclicElement(rec["k"], rec["l"])))
        elif kind == "row_tail":
            atoms.append(RowTail(rec["row"], rec["base"], rec["step"]))
        elif kind == "col_tail":
            atoms.append(ColTail(rec["col"], rec["base"], rec["step"]))
        else:
            raise ValueError(f"unknown atom record type {kind!r}")
    return canonicalize(SymSet(tuple(atoms)))
