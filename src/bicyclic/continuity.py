"""Deciding continuity of shifts and of multiplication for the progression topologies.

A shift is one of the two translation maps by a fixed element s (left:
x -> s*x, right: x -> x*s).  Continuity of a shift at x against a target
index t asks for a source index k with

    image of (basic neighborhood of x at k)  inside  basic nbhd of shift(x) at t

and joint continuity at (x, y) asks the same for the elementwise product
of two basic neighborhoods against a neighborhood of x*y.  A shift is the
product with the point {s}, so one engine decides both kinds of cell.
Because basic neighborhoods only refine as the index grows (the base point
never moves, only the progression step changes), each question is
monotone in k.

The locus.  With z = x*y, the product law is

    z.k = x.k + y.k - min(x.l, y.k),    z.l = x.l + y.l - min(x.l, y.k).

A source neighborhood at index k is the point itself, when it is
isolated, or a tail of step q = p^k from it: along x's row (padic+,
window) or along its column (padic-).  A member b^x.k a^c of x's row tail
meets y at min(c, y.k).  Once c >= y.k the product is b^x.k a^(c-y.k+y.l),
so the tail's far members all lie on x's row; that is the target's row
z.k iff min(x.l, y.k) = y.k.  Put lo = x.l and hi = y.k: the far line is
the target's iff lo >= hi.  The mirror: a member b^c a^y.l of y's column
tail goes to column y.l once c >= x.l, the target's column z.l iff
lo = y.k >= hi = x.l.  _crossing names these two shapes, x's row tail
against a point or a row tail and y's column tail against a point or a
column tail, as (axis, lo, hi, point), and nothing else decides a cell.

Every other shape keeps the target's line.  y's row tail under x, or x's
column tail under y, meets the other factor at a fixed exponent, so each
member moves by the same translation as the cell's own point; no topology
mixes the two axes; and two points give the point z.  So a cell fails iff
its shape crosses with lo < hi:

  * right shift by s on padic+: x.l < s.k;
  * left shift by s on padic-: x.k < s.l;
  * joint on padic+: x.l < y.k;
  * joint on padic-: y.k < x.l;
  * window and discrete: never, since every tail point of window:p:m:n
    has l > n >= the k of every carrier point, and every discrete point
    is isolated.

A failing cell fails at every k: its moving tail is infinite at each
index, and a far member off the target's line lies outside the target.
In any other cell the product law is one translation on all members of
a source tail, which meet the other factor at a fixed exponent or at or
above its facing one: a source tail of step p^k goes to a progression of
step p^k from z along the target's line, and a second source tail adds
multiples of its own step.  So the
image fits at k = t and not below, where it holds a tail of step p^k that
a target of step p^t cannot hold; the modulus is t.  With two point
sources the image is the point z at every index, so the modulus is 1.
Lines and isolation do not depend on t, so neither does a cell's verdict
kind.  Nothing is searched, and no cell builds an atom, whatever its
verdict: only check_joint's equality flag builds the atoms of a
continuous joint cell.

The escapes.  In each failing shape, with q = p^k and
first_above(lo, q, hi) the least lo + q*j > hi (symset._first_value_above),
the escape at k is u*y or x*v for a named member u of x's k-th
neighborhood or v of y's, so it lies in the image by construction.  It is
the element that the canonical image and an exact subset test would name:
the first atom, in atom order, that the target does not hold, as the
point itself or the tail's least member.  The exponent c takes the first
case that applies; the first one applies when q divides hi - lo.

  * Right shift on padic+ (lo = x.l, hi = s.k): the members below hi go
    to points of column s.l on rows x.k + s.k - c, the first of them the
    target point; the member hi goes to b^x.k a^s.l, and those above to a
    tail on row x.k.  Points come first, by row, so the escape is u*s with
    u = b^x.k a^c, where c = hi; else the largest lo + q*j < hi, when it
    exceeds lo; else first_above(lo, q, hi), the tail's base.
  * Left shift on padic- (lo = x.k, hi = s.l): the mirror, s*v with
    v = b^c a^x.l and c chosen the same way.
  * Joint on padic+ (lo = x.l, hi = y.k): the members of x below hi go to
    whole tails on rows above x.k, so the first atom lies on row x.k and
    the escape is u*y with u = b^x.k a^c, where c = hi, else
    first_above(lo, q, hi).
  * Joint on padic- (lo = y.k, hi = x.l): the mirror, x*v with
    v = b^c a^y.l.

Every escape lies off the target's line, and _decide checks by arithmetic
that it lies outside the target tail.

The first failing pair.  find_discontinuity scans nothing.  Only the right
side of padic+ and the left side of padic- can fail, and on each the
first pair in order of total exponent size is (s, x) = (b^1a^1, b^0a^0).
A failing right shift on padic+ needs s.k > x.l >= 0, and s.l >= s.k in
the upper half, so s has total size at least 2; at size 2 that leaves
s = b^1a^1 and x = b^0a^0, which fails since 0 < 1.  The left side of
padic- mirrors it with s.l > x.k.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .element import BicyclicElement, _record, multiply, solve_left
from .families import _check_bound, enumerate_members
from .symset import SymSet, _pair_atoms, left_image, right_image, subset
from .topology import (
    CarrierError, TopologyDescriptor, WindowPAdic, _axis_of, _check_index, _nbhd_atom, _PAdic, carrier, is_isolated,
)

__all__ = [
    "ShiftSide",
    "ContinuousAt",
    "DiscontinuousAt",
    "RefutedUpToBound",
    "apply_shift",
    "shift_image",
    "check_shift_at",
    "ShiftCell",
    "ShiftReport",
    "check_shift",
    "check_joint_at",
    "JointCell",
    "JointReport",
    "check_joint",
    "window_joint_report",
    "DiscontinuityWitness",
    "find_discontinuity",
    "EquationReplay",
    "equation_replay",
]

DEFAULT_WITNESS_BOUND = 4


class ShiftSide(enum.Enum):
    LEFT = "left"    # x -> s * x
    RIGHT = "right"  # x -> x * s


@_record
class ContinuousAt:
    """Success: for each requested target index t, a working source index k."""

    modulus: tuple  # pairs (t, k)

    def modulus_for(self, t: int) -> int:
        return dict(self.modulus)[t]


# a dataclass: the benchmark's tests forge copies with dataclasses.replace
@dataclass(frozen=True)
class DiscontinuousAt:
    """Certified failure at target index t, for every source index.

    structural_reason explains why no source index can work;
    counterexamples holds pairs (k, element) with the element in the
    image of the k-th source neighborhood but outside the target.
    """

    target_index: int
    counterexamples: tuple
    structural_reason: str


@_record
class RefutedUpToBound:
    """No decider returns this; it stays exported for callers that still name the class."""

    probe_bound: int


def apply_shift(side: ShiftSide, s: BicyclicElement, x: BicyclicElement) -> BicyclicElement:
    return multiply(s, x) if side is ShiftSide.LEFT else multiply(x, s)


def shift_image(side: ShiftSide, s: BicyclicElement, sets: SymSet) -> SymSet:
    return left_image(s, sets) if side is ShiftSide.LEFT else right_image(sets, s)


# --- structural analysis ------------------------------------------------------


def _crossing(x, xa, y, ya) -> Optional[tuple]:
    """(axis, lo, hi, point) for the two shapes that can fail, or None for every other shape.

    xa and ya are the `_axis` of x and y (None for a point), and the
    cell fails iff lo < hi (see the module docstring).
    """
    if xa == 0 and ya in (None, 0):
        return 0, x.l, y.k, ya is None
    if ya == 1 and xa in (None, 1):
        return 1, y.k, x.l, xa is None
    return None


def _escapes(top, x, y, crossing) -> tuple:
    """The pairs (k, escape) of a failing cell for k = 1..DEFAULT_WITNESS_BOUND, in closed form.

    crossing is the cell's _crossing.  The moving tail's member has
    exponent c: hi when q divides hi - lo; else, against a point, the
    largest lo + q*j below hi when that exceeds lo; else the least one
    above hi.
    """
    axis, lo, hi, point = crossing
    out = []
    for k in range(1, DEFAULT_WITNESS_BOUND + 1):
        q = top.p**k
        j, r = divmod(hi - lo, q)
        c = hi if r == 0 else lo + q * (j if point and j else j + 1)
        u, v = (BicyclicElement(x.k, c), y) if axis == 0 else (x, BicyclicElement(c, y.l))
        out.append((k, multiply(u, v)))
    return tuple(out)


def _decide(top, t, z, za, x, xa, y, ya):
    """Decide whether the product of x's and y's neighborhoods fits z's, all at index t.

    This is the engine of every cell: z = x*y, and za, xa and ya are the
    three points' `_axis`.  _crossing decides, by exponents alone.  A
    continuous cell has modulus 1 when both sources are points, which are
    the same at every index, and t otherwise.  A failing cell's reason
    names the moving tail's line and the target's, and its escapes at
    k = 1..DEFAULT_WITNESS_BOUND come in closed form (_escapes), each
    checked to lie outside the target tail.  No cell builds an atom.

    A source tail never maps to an isolated point, a window point of
    second exponent at most n: a product's second exponent is at least its
    right factor's, and at least its left factor's when the right factor
    is a window point (first exponent at most n).  So a source tail against
    a point target is a fault; it raises RuntimeError rather than read as
    continuous.
    """
    points = xa is None and ya is None
    if za is None and not points:
        raise RuntimeError("a source tail meets an isolated target, which no supported topology allows")
    crossing = _crossing(x, xa, y, ya)
    if crossing is None or crossing[1] >= crossing[2]:
        return ContinuousAt(((t, 1 if points else t),))
    axis = crossing[0]
    name = ("row", "col")[axis]
    line, base = (z.k, z.l) if axis == 0 else (z.l, z.k)
    reason = (
        f"the image always contains a tail along {name} {y.l if axis else x.k}, "
        f"but target neighborhoods live along {name} {line}"
    )
    escapes = _escapes(top, x, y, crossing)
    for _, e in escapes:
        on, value = (e.k, e.l) if axis == 0 else (e.l, e.k)
        if on == line and value >= base and (value - base) % top.p**t == 0:
            raise RuntimeError("an escape lies inside the target, which its structural reason forbids")
    return DiscontinuousAt(t, escapes, reason)


# --- shift continuity ----------------------------------------------------------


def check_shift_at(top: TopologyDescriptor, side: ShiftSide, s: BicyclicElement, x: BicyclicElement, t: int):
    """Decide continuity of the shift by s at the point x for target index t.

    A shift is the product with the point s: the engine gets s, with no
    axis, as the fixed factor and x, with the axis of its neighborhood, as
    the other.  s is checked against the carrier first, then the index,
    the image point and x.
    """
    axis = _axis_of(top)
    try:
        axis(s)
    except CarrierError:
        raise ValueError(f"shift element {s} is outside the carrier") from None
    z = apply_shift(side, s, x)
    _check_index(t)
    za, xa = axis(z), axis(x)
    if side is ShiftSide.LEFT:
        return _decide(top, t, z, za, s, None, x, xa)
    return _decide(top, t, z, za, x, xa, s, None)


@_record
class ShiftCell:
    s: BicyclicElement
    x: BicyclicElement
    t: int
    verdict: object


class _Report:
    """The cells of a sweep that are not continuous, and whether there are none."""

    @property
    def failures(self) -> tuple:
        return tuple(c for c in self.cells if not isinstance(c.verdict, ContinuousAt))

    @property
    def all_continuous(self) -> bool:
        return not self.failures


@_record
class ShiftReport(_Report):
    topology: TopologyDescriptor
    side: ShiftSide
    cells: tuple


def check_shift(top: TopologyDescriptor, side: ShiftSide, bound: int, t_max: int = 3) -> ShiftReport:
    """Sweep shift continuity over all carrier pairs with exponents <= bound and t <= t_max.

    Cells are pure and independent; they are evaluated and reported in a
    fixed order so reports are reproducible.
    """
    points = enumerate_members(carrier(top), bound)
    cells = []
    for s in points:
        for x in points:
            for t in range(1, t_max + 1):
                cells.append(ShiftCell(s, x, t, check_shift_at(top, side, s, x, t)))
    return ShiftReport(top, side, tuple(cells))


# --- joint continuity ------------------------------------------------------------


def check_joint_at(top: TopologyDescriptor, x: BicyclicElement, y: BicyclicElement, t: int):
    """Decide joint continuity of multiplication at the pair (x, y).

    The index is validated first, then the product, x and y, and the
    engine decides the product of their neighborhoods at index t against
    that of x*y.
    """
    return _decide(top, t, *_joint_axes(top, x, y, t))


def _joint_axes(top, x, y, t) -> tuple:
    """(z, za, x, xa, y, ya) for z = x*y, each point with its `_axis`, after the index check."""
    z = multiply(x, y)
    _check_index(t)
    axis = _axis_of(top)
    return z, axis(z), x, axis(x), y, axis(y)


def _joint_with_equality(top, x, y, t):
    """check_joint_at's verdict and, when continuous, whether the image at the modulus equals the target.

    The image at the modulus is the product of the atoms built at t, and it
    lies inside the target, so it equals the target when the target is
    inside the union of its atoms, in whatever order they come.
    """
    z, za, x, xa, y, ya = _joint_axes(top, x, y, t)
    verdict = _decide(top, t, z, za, x, xa, y, ya)
    if not isinstance(verdict, ContinuousAt):
        return verdict, None
    target, ax, ay = (_nbhd_atom(top, w, t, axis) for w, axis in ((z, za), (x, xa), (y, ya)))
    return verdict, subset(SymSet((target,)), SymSet(tuple(_pair_atoms(ax, ay)))).holds


def _isolation_case(top, x, y) -> str:
    xi, yi = is_isolated(top, x), is_isolated(top, y)
    if xi and yi:
        return "both-isolated"
    if xi:
        return "left-isolated-only"
    if yi:
        return "right-isolated-only"
    return "neither-isolated"


@_record
class JointCell:
    x: BicyclicElement
    y: BicyclicElement
    t: int
    case: str
    verdict: object
    equality: Optional[bool]  # at the found modulus, did image = target exactly?


@_record
class JointReport(_Report):
    topology: TopologyDescriptor
    cells: tuple

    def cases(self) -> dict:
        out = {}
        for c in self.cells:
            out.setdefault(c.case, []).append(c)
        return out


def check_joint(top: TopologyDescriptor, bound: int, t_max: int = 3) -> JointReport:
    """Sweep multiplication continuity over all carrier pairs with exponents <= bound.

    Each cell is tagged by which of the two points are isolated, and a
    successful cell records whether the product of the two source
    neighborhoods at the found modulus equals the target exactly or sits
    strictly inside it.
    """
    points = enumerate_members(carrier(top), bound)
    cells = []
    for x in points:
        for y in points:
            for t in range(1, t_max + 1):
                verdict, equality = _joint_with_equality(top, x, y, t)
                cells.append(JointCell(x, y, t, _isolation_case(top, x, y), verdict, equality))
    return JointReport(top, tuple(cells))


def window_joint_report(p: int, m: int, n: int, bound: int, t_max: int = 3) -> JointReport:
    """Joint continuity sweep for the row-window topology with those parameters."""
    return check_joint(WindowPAdic(p, m, n), bound, t_max=t_max)


# --- first witness ------------------------------------------------------------------


@_record
class DiscontinuityWitness:
    s: BicyclicElement
    x: BicyclicElement
    t: int
    verdict: DiscontinuousAt


def find_discontinuity(
    top: TopologyDescriptor,
    side: ShiftSide,
    bound: int,
    t_max: Optional[int] = None,
) -> Optional[DiscontinuityWitness]:
    """First shift discontinuity within the bound, in order of total exponent size, at t = 1.

    Read off the locus, with no scan (see the module docstring): only the
    right side of padic+ and the left side of padic- have a cell that can
    fail, and on each the first failing pair is (b^1a^1, b^0a^0), which
    one check_shift_at certifies for every source index.  Every other
    side, and a bound of 0, answers None.  The carrier and the bound are
    checked first; a t_max below 1 also answers None.
    """
    _check_bound(carrier(top), bound)
    axis = 1 if side is ShiftSide.LEFT else 0  # the tail axis that crosses s on this side
    if (t_max is not None and t_max < 1) or bound < 1 or not (isinstance(top, _PAdic) and top.axis == axis):
        return None
    s, x = BicyclicElement(1, 1), BicyclicElement(0, 0)
    return DiscontinuityWitness(s, x, 1, check_shift_at(top, side, s, x, 1))


# --- solution-set replay --------------------------------------------------------------


@_record
class EquationReplay:
    """A verified instance of left division with a finite solution set.

    left_factor * distinguished = target holds by construction, and
    solutions is exactly { X : left_factor * X = target }, which always
    contains the distinguished point.
    """

    left_factor: BicyclicElement
    distinguished: BicyclicElement
    target: BicyclicElement
    solutions: frozenset


def equation_replay(x0: int, y0: int, i0: int, j0: int) -> EquationReplay:
    """Replay the division instance parameterized by (x0, y0, i0, j0).

    Requires y0 - j0 > x0 >= 0 and 0 <= i0 <= j0.  Under those constraints
    b^x0 a^(y0+i0-j0) * b^i0 a^j0 = b^x0 a^y0, and the full solution set of
    the corresponding equation is finite with cardinality
    1 + (y0 + i0 - j0).
    """
    for name, v in (("x0", x0), ("y0", y0), ("i0", i0), ("j0", j0)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    if not y0 - j0 > x0:
        raise ValueError(f"need y0 - j0 > x0, got y0={y0}, j0={j0}, x0={x0}")
    if not i0 <= j0:
        raise ValueError(f"need i0 <= j0, got i0={i0}, j0={j0}")
    a = BicyclicElement(x0, y0 + i0 - j0)
    point = BicyclicElement(i0, j0)
    c = BicyclicElement(x0, y0)
    if multiply(a, point) != c:
        raise RuntimeError("division identity failed, which the preconditions forbid")
    solutions = solve_left(a, c)
    if point not in solutions:
        raise RuntimeError("distinguished point missing from its own solution set")
    return EquationReplay(a, point, c, solutions)
