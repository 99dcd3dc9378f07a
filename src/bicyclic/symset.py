"""Symbolic sets of monoid elements: finite unions of points and progression tails.

Three atom shapes cover everything the neighborhood calculus needs:

    Single(e)               the one-point set {e}
    RowTail(r, b, d)        { b^r a^(b + d*t) : t = 0, 1, 2, ... }
    ColTail(c, b, d)        { b^(b + d*t) a^c : t = 0, 1, 2, ... }

A tail is a line (r or c), a base b and a step d on an axis, 0 for a row
and 1 for a column; inversion swaps the two axes.

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
from math import gcd, inf, lcm
from typing import Iterable, Optional, Union

from .element import BicyclicElement, _record, invert, multiply

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
]


class UnrepresentableProductError(ValueError):
    """Raised when a product would need a two-dimensional progression."""


def _check_uint(value, name):
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@_record
class Single:
    element: BicyclicElement


@_record
class Tail:
    """A progression along `line` on its subclass's axis; a RowTail never equals a ColTail."""

    line: int
    base: int
    step: int

    def __post_init__(self):
        _check_uint(self.line, ("row", "col")[self.axis])
        _check_uint(self.base, "base")
        if not isinstance(self.step, int) or self.step < 1:
            raise ValueError(f"step must be a positive integer, got {self.step!r}")


class RowTail(Tail):
    """Fixed first exponent, second exponent running up an arithmetic progression."""

    axis = 0
    row = property(lambda self: self.line)


class ColTail(Tail):
    """Fixed second exponent, first exponent running up an arithmetic progression."""

    axis = 1
    col = property(lambda self: self.line)


_TAIL = (RowTail, ColTail)  # the tail class of each axis

Atom = Union[Single, RowTail, ColTail]


@_record
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
    line, value = (x.k, x.l) if atom.axis == 0 else (x.l, x.k)
    return line == atom.line and _on_progression(atom, value)


def member(s: SymSet, x: BicyclicElement) -> bool:
    return any(atom_member(a, x) for a in s.atoms)


def atom_members(atom: Atom, count: int) -> list:
    """The first `count` members in increasing progression order."""
    if isinstance(atom, Single):
        return [atom.element]
    return [_element(atom.axis, atom.line, atom.base + atom.step * t) for t in range(count)]


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
    return _TAIL[1 - atom.axis](atom.line, atom.base, atom.step)


def transpose(s: SymSet) -> SymSet:
    """Elementwise inversion of the whole set."""
    return SymSet(tuple(_transpose_atom(a) for a in s.atoms))


def _atom_key(atom: Atom):
    if isinstance(atom, Single):
        return (0, atom.element.k, atom.element.l, 0)
    return (1 + atom.axis, atom.line, atom.base, atom.step)


class _LineIndex:
    """The atoms of one set, looked up by the line they lie on.

    Built in O(atoms).  For each axis (0 for rows, 1 for columns),
    tails[axis] maps a line to the tails on it, and line_points[axis] maps
    a line to the free exponents of the points on it: l for a point on row
    k, k for a point on column l.  Points stay out of `tails`, so the tails
    of a line are all that membership ever scans.
    """

    __slots__ = ("points", "tails", "line_points")

    def __init__(self, atoms: Iterable[Atom]):
        points, row_points, col_points, tails = set(), {}, {}, ({}, {})
        for atom in atoms:
            if isinstance(atom, Single):
                k, l = atom.element.k, atom.element.l
                points.add((k, l))
                row_points.setdefault(k, []).append(l)
                col_points.setdefault(l, []).append(k)
            else:
                tails[atom.axis].setdefault(atom.line, []).append(atom)
        self.points = points
        self.tails = tails
        self.line_points = (row_points, col_points)

    def has(self, k: int, l: int) -> bool:
        """Membership of b^k a^l: a point, or a tail on row k or column l."""
        return (
            (k, l) in self.points
            or _any_on_progression(self.tails[0].get(k, ()), l)
            or _any_on_progression(self.tails[1].get(l, ()), k)
        )


def _on_progression(tail, value: int) -> bool:
    """Whether the tail's free exponent takes `value`."""
    return value >= tail.base and (value - tail.base) % tail.step == 0


def _any_on_progression(tails, value: int) -> bool:
    """Whether one of `tails` takes `value`; a plain loop, as membership runs it most."""
    for tail in tails:
        if value >= tail.base and (value - tail.base) % tail.step == 0:
            return True
    return False


def _tail_holds(outer, tail) -> bool:
    """Whether `outer`, a tail on the tail's own line, contains the whole tail.

    It does exactly when the tail's base is on outer's progression and the
    tail's step is a multiple of outer's step.
    """
    return (
        tail.step % outer.step == 0
        and tail.base >= outer.base
        and (tail.base - outer.base) % outer.step == 0
    )


def _any_holds_tail(tails, tail) -> bool:
    """Whether another of `tails`, all on the tail's line, contains the whole tail."""
    for other in tails:
        if other is not tail and _tail_holds(other, tail):
            return True
    return False


def _atoms_within(atoms, outer) -> bool:
    """Whether every one of `atoms` lies inside the single atom `outer`.

    A union lies inside one atom exactly when each of its atoms does.  A
    point does when outer has it as a member.  A tail is infinite, so it
    never fits in a point, and it meets a tail on another line in at most
    one element; so it fits only in a tail on its own line, which must hold
    it by `_tail_holds`.
    """
    for atom in atoms:
        if isinstance(atom, Single):
            if not atom_member(outer, atom.element):
                return False
        elif (
            isinstance(outer, Single)
            or atom.axis != outer.axis
            or atom.line != outer.line
            or not _tail_holds(outer, atom)
        ):
            return False
    return True


def canonicalize(s: SymSet) -> SymSet:
    """Deterministic normal form: dedupe, drop atoms absorbed by another, sort.

    Atoms are deduplicated by `_atom_key`, whose plain tuple hashes in C
    where the record hash is a Python method (two nested ones for a
    Single).  The
    key is injective: its first entry names the atom's kind and the other
    three are all of that kind's fields, so two atoms share a key exactly
    when they are equal.

    Only a tail can absorb an atom, and only a tail on one of the atom's own
    lines, so the distinct tails looked up by their line answer every test:
    a point b^k a^l is dropped when a tail on row k takes l or a tail on
    column l takes k, and a tail when another tail on its line holds it
    (`_tail_holds`).  The whole pass costs O(atoms + the tails on each
    atom's lines), however many points share a line.  The kept keys are
    sorted, which orders the atoms as sorting them by key would, without
    computing any key again.
    """
    by_key = {_atom_key(a): a for a in s.atoms}
    tails = ({}, {})  # row -> its RowTails, column -> its ColTails
    for (kind, line, _, _), atom in by_key.items():
        if kind:
            tails[kind - 1].setdefault(line, []).append(atom)
    rows, cols = tails
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
        elif _any_holds_tail(tails[kind - 1][line], atom):
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


@_record
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
    axis, line = tail.axis, tail.line
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
            return SubsetWitness(False, counterexample=_element(axis, line, value))
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
        if a.line != b.line:
            return True
        return (a.base - b.base) % gcd(a.step, b.step) != 0
    if isinstance(a, ColTail) and isinstance(b, ColTail):
        if a.line != b.line:
            return True
        return (a.base - b.base) % gcd(a.step, b.step) != 0
    row_tail, col_tail = (a, b) if isinstance(a, RowTail) else (b, a)
    # the only possible common element is (row, col)
    meet = BicyclicElement(row_tail.line, col_tail.line)
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
        axis, line = x.axis, x.line
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


def _element(axis: int, line: int, value: int) -> BicyclicElement:
    """The element on `line` of the axis whose free exponent is `value`."""
    return BicyclicElement(line, value) if axis == 0 else BicyclicElement(value, line)


def _left_image_atom(s: BicyclicElement, atom: Atom, axis: int = 0) -> list:
    """The atoms of { s * x : x in atom }, transposed when axis is 1.

    Axis 1 builds each output atom in its transposed orientation directly,
    which is what `_right_image_atom` needs, so no output atom is built
    twice.  The tail, when there is one, is the last atom.
    """
    if isinstance(atom, Single):
        z = multiply(s, atom.element)
        return [Single(z if axis == 0 else invert(z))]
    line = atom.line
    if atom.axis == 0:
        # the comparison s.l vs the row is the same for every member
        if s.l < line:
            return [_TAIL[axis](s.k - s.l + line, atom.base, atom.step)]
        if s.l == line:
            return [_TAIL[axis](s.k, atom.base, atom.step)]
        return [_TAIL[axis](s.k, s.l - line + atom.base, atom.step)]
    # a column: the comparison s.l vs the running first exponent splits the tail
    out = []
    value = atom.base
    while value < s.l:  # finitely many members below s.l collapse to points
        out.append(Single(_element(axis, s.k, s.l - value + line)))
        value += atom.step
    if value == s.l:
        out.append(Single(_element(axis, s.k, line)))
    high = _first_value_above(atom.base, atom.step, s.l)
    out.append(_TAIL[1 - axis](line, s.k - s.l + high, atom.step))
    return out


def left_image(s: BicyclicElement, sets: SymSet) -> SymSet:
    """The exact set { s * x : x in sets }, the product of the point {s} and the set."""
    return canonicalize(SymSet(tuple(_product_atoms(SymSet((Single(s),)), sets))))


def _right_image_atom(atom: Atom, s: BicyclicElement) -> list:
    # inversion is an anti-isomorphism, x * s = inv(inv(s) * inv(x)): the
    # right image is the left image by inv(s) of the transposed atom, built
    # transposed back (axis 1); only the input atom is transposed
    return _left_image_atom(invert(s), _transpose_atom(atom), 1)


def right_image(sets: SymSet, s: BicyclicElement) -> SymSet:
    """The exact set { x * s : x in sets }, the product of the set and the point {s}."""
    return canonicalize(SymSet(tuple(_product_atoms(sets, SymSet((Single(s),))))))


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
        atoms.append(Single(_element(axis, row, base + g * s)))
    atoms.append(_TAIL[axis](row, base + g * conductor, g))
    return atoms


def _product_row_row(x: RowTail, y: RowTail, axis: int = 0) -> list:
    """The atoms of x * y, transposed when axis is 1; the far tail is last."""
    atoms = []
    value = x.base
    while value < y.line:  # low members of x act by shifting into y's row copy
        atoms.append(_TAIL[axis](x.line - value + y.line, y.base, y.step))
        value += x.step
    if value == y.line:
        atoms.append(_TAIL[axis](x.line, y.base, y.step))
    high = _first_value_above(x.base, x.step, y.line)
    atoms.extend(_semigroup_atoms(x.line, high - y.line + y.base, x.step, y.step, axis))
    return atoms


def _product_row_col(x: RowTail, y: ColTail) -> list:
    # free exponents face each other; the difference sweeps a full residue
    # class of gcd(steps), one tail on each side of zero
    g = gcd(x.step, y.step)
    atoms = []
    forward = (y.base - x.base) % g
    atoms.append(ColTail(y.line, x.line + (forward if forward else g), g))
    if (y.base - x.base) % g == 0:
        atoms.append(Single(BicyclicElement(x.line, y.line)))
    backward = (x.base - y.base) % g
    atoms.append(RowTail(x.line, y.line + (backward if backward else g), g))
    return atoms


def product(a: SymSet, b: SymSet) -> SymSet:
    """The exact elementwise product { x * y : x in a, y in b }.

    Raises UnrepresentableProductError when a ColTail meets a RowTail in
    that order; see the module docstring.
    """
    return canonicalize(SymSet(tuple(_product_atoms(a, b))))


def _product_atoms(a: SymSet, b: SymSet) -> list:
    """The atoms of the product of a and b, before the canonical form."""
    atoms = []
    for x in a.atoms:
        for y in b.atoms:
            if isinstance(x, Single):
                atoms.extend(_left_image_atom(x.element, y))
            elif isinstance(y, Single):
                atoms.extend(_right_image_atom(x, y.element))
            elif x.axis == 0:
                atoms.extend(_product_row_row(x, y) if y.axis == 0 else _product_row_col(x, y))
            elif y.axis == 1:
                # x * y = inv(inv(y) * inv(x)), built transposed back (axis 1)
                atoms.extend(_product_row_row(_transpose_atom(y), _transpose_atom(x), 1))
            else:
                raise UnrepresentableProductError(
                    "ColTail * RowTail is a two-dimensional set and has no "
                    "finite representation in this atom vocabulary"
                )
    return atoms


# --- text and record forms --------------------------------------------------------

_SINGLE_RE = re.compile(r"^\{\s*b\^(\d+)\s*a\^(\d+)\s*\}$")
_ROWTAIL_RE = re.compile(r"^\{\s*b\^(\d+)\s*a\^\(\s*(\d+)\s*\+\s*(\d+)\s*t\s*\)\s*\}$")
_COLTAIL_RE = re.compile(r"^\{\s*b\^\(\s*(\d+)\s*\+\s*(\d+)\s*t\s*\)\s*a\^(\d+)\s*\}$")


def _format_atom(atom: Atom) -> str:
    if isinstance(atom, Single):
        return f"{{b^{atom.element.k} a^{atom.element.l}}}"
    run = f"({atom.base}+{atom.step}t)"
    return f"{{b^{atom.line} a^{run}}}" if atom.axis == 0 else f"{{b^{run} a^{atom.line}}}"


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
        else:
            name = ("row", "col")[atom.axis]
            records.append({"type": f"{name}_tail", name: atom.line, "base": atom.base, "step": atom.step})
    return records
