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

One criterion decides every cell: the far tails of the image.  The image
of a source tail ends in a far tail, the image of its high end, on a line
(the fixed exponent) that the image builders' own arithmetic gives without
k: a source tail that crosses the translation keeps its own line, and one
that runs along it ends on sk + max(0, line - sl), the row (or column) of
the product point.  With the topology's tail axis A, the left image by x
of y's tail ends on (1, y.l) when A = 1 and on (0, (x*y).k) when A = 0,
and the right image by y of x's tail on (0, x.k) when A = 0 and on
(1, (x*y).l) when A = 1.  If one runs along another line than the
target, no k can ever work, and the verdict carries one concrete escaping
element per small k.  If none does, the whole image fits at the least
index that can work, k0 (_structural_reason proves this), and the cell is
continuous with modulus k0.  A point atom does not depend on the index, so
when both source atoms are points (the cell has no far tail), k0 = 1.
Otherwise a source tail of step p^k has an image holding an infinite
slope-one tail of step p^k, which fits inside a target of step p^t only
when p^t divides p^k, so k0 = t.

Lines and isolation do not depend on t, so neither does a cell's verdict
kind.  Nothing is searched, and no cell builds an atom, whatever its
verdict: a failing cell names its escapes in closed form too, and only
check_joint's equality flag builds the atoms of a continuous joint cell.

The escapes.  A far tail leaves the target's line only where a source
tail crosses the other factor and starts below that factor's facing
exponent.  A shift along the tail's own axis keeps the target's line, and
no topology mixes the two axes.  On window:p:m:n every tail point has
l > n and every carrier point k <= n, so no tail starts below; on
discrete: every point is isolated.  Four shapes remain.  In each, with
q = p^k and first_above(lo, q, hi) the least lo + q*j > hi
(symset._first_value_above), the escape at k is u*y or x*v for a named
member u of x's k-th neighborhood or v of y's, so it lies in the image by
construction.  It is the element that the canonical image and an exact
subset test would name: the first atom, in atom order, that the target
does not hold, as the point itself or the tail's least member.  The
exponent c takes the first case that applies; the first one applies when
q divides hi - lo.

  * Right shift on padic+: x's row tail times the point s fails iff
    x.l < s.k.  Put lo = x.l, hi = s.k.  The members below hi go to
    points of column s.l on rows x.k + s.k - c, the first of them the
    target point; the member hi goes to b^x.k a^s.l, and those above to a
    tail on row x.k.  Points come first, by row, so the escape is u*s with
    u = b^x.k a^c, where c = hi; else the largest lo + q*j < hi, when it
    exceeds lo; else first_above(lo, q, hi), the tail's base.
  * Left shift on padic-: the mirror.  The point s times x's column tail
    fails iff x.k < s.l; with lo = x.k, hi = s.l and c chosen the same
    way, the escape is s*v with v = b^c a^x.l.
  * Joint on padic+: two row tails fail iff x.l < y.k.  The members of x
    below y.k go to whole tails on rows above x.k, so the first atom lies
    on row x.k and the escape is u*y with u = b^x.k a^c, where c = y.k,
    else first_above(x.l, q, y.k).
  * Joint on padic-: two column tails fail iff y.k < x.l; the escape is
    x*v with v = b^c a^y.l, where c = x.l, else first_above(y.k, q, x.l).

Every escape lies off the target's line.  _decide checks by arithmetic
that it lies outside the target tail, and a reason on any other shape
raises RuntimeError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .element import BicyclicElement, _record, multiply, solve_left
from .families import _check_bound, contains, enumerate_members
from .symset import SymSet, _pair_atoms, left_image, right_image, subset
from .topology import TopologyDescriptor, WindowPAdic, _nbhd_atom, _nbhd_axis, _PAdic, carrier, is_isolated

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


def _structural_reason(far_lines, target) -> Optional[str]:
    """A far tail off the line of the target's tail, which rules out every source index, or None.

    far_lines holds the (axis, line) of each far tail (_far_lines), and
    target the (axis, line) of the target's tail, or None when the target
    point is isolated.  None means that every atom `_pair_atoms` emits at
    k0 fits the target.  With no source tail, the image is the product
    point, which its neighborhood holds.  Else the builders read each
    source tail up from its base, the cell's own point, and the product law
    switches at one threshold, the other factor's facing exponent (a shift
    along the tail's axis compares the fixed line, so no member switches).
    Members below it make points or shifted copies off the far tail's line.
    They exist only when the base lies below it, and then the product point
    is made the same way, so the far tail leaves its line.  Otherwise every
    atom lies on the target's line: the member at the threshold gives the
    product point or a tail from it, and those above give tails based on
    its progression, of step p^t, since every source tail is built at index
    t and two of them flatten to that gcd step with no gaps.

    A tail source never maps to an isolated point, a window point of
    second exponent at most n: a product's second exponent is at least its
    right factor's, and at least its left factor's when the right factor
    is a window point (first exponent at most n).  So a far tail against a
    point target is a fault; it raises RuntimeError rather than read as
    continuous.
    """
    if far_lines and target is None:
        raise RuntimeError("a far tail meets an isolated target, which no supported topology allows")
    for axis, line in far_lines:
        if (axis, line) != target:
            return (
                f"the image always contains a tail along {('row', 'col')[axis]} {line}, "
                f"but target neighborhoods live along {('row', 'col')[target[0]]} {target[1]}"
            )
    return None


def _far_lines(x, xa, y, ya, z) -> list:
    """The (axis, line) of each far tail of x's neighborhood times y's, z = x*y, in closed form.

    xa and ya are their _nbhd_axis (None for a point).  The left image by x
    of y's tail comes first, then the right image by y of x's tail; a row x
    row or col x col product adds no line that these two do not give.
    """
    lines = []
    if ya is not None:
        lines.append((1, y.l) if ya else (0, z.k))
    if xa is not None:
        lines.append((1, z.l) if xa else (0, x.k))
    return lines


def _escapes(top, x, xa, y, ya) -> tuple:
    """The pairs (k, escape) of a failing cell for k = 1..DEFAULT_WITNESS_BOUND, in closed form.

    The four shapes of the module docstring: x's row tail against y, a
    point or a row tail, or y's column tail against x, a point or a column
    tail.  The moving tail's member has exponent c: hi when q divides
    hi - lo; else, against a point, the largest lo + q*j below hi when
    that exceeds lo; else the least one above hi.
    """
    if xa == 0 and ya in (None, 0):
        lo, hi, point = x.l, y.k, ya is None
        escape = lambda c: multiply(BicyclicElement(x.k, c), y)
    elif ya == 1 and xa in (None, 1):
        lo, hi, point = y.k, x.l, xa is None
        escape = lambda c: multiply(x, BicyclicElement(c, y.l))
    else:
        raise RuntimeError("a structural reason on a shape that cannot fail")
    out = []
    for k in range(1, DEFAULT_WITNESS_BOUND + 1):
        q = top.p**k
        j, r = divmod(hi - lo, q)
        c = hi if r == 0 else lo + q * (j if point and j else j + 1)
        out.append((k, escape(c)))
    return tuple(out)


def _decide(top, t, z, za, x, xa, y, ya):
    """Decide whether the product of x's and y's neighborhoods fits z's, all at index t.

    This is the engine of every cell: z = x*y, and za, xa and ya are the
    three points' _nbhd_axis.  The far tails decide (_structural_reason),
    by exponents alone.  Without a reason the cell is continuous at k0: 1
    when both sources are points, which are the same at every index, and t
    otherwise (see the module docstring).  A reason certifies a failure,
    with the escapes at k = 1..DEFAULT_WITNESS_BOUND in closed form
    (_escapes), each checked to lie outside the target tail.  No cell
    builds an atom.
    """
    lines = _far_lines(x, xa, y, ya, z)
    reason = _structural_reason(lines, None if za is None else (za, z.l if za else z.k))
    if reason is None:
        return ContinuousAt(((t, t if lines else 1),))
    escapes = _escapes(top, x, xa, y, ya)
    line, base = (z.l, z.k) if za else (z.k, z.l)
    for _, e in escapes:
        on, value = (e.l, e.k) if za else (e.k, e.l)
        if on == line and value >= base and (value - base) % top.p**t == 0:
            raise RuntimeError("an escape lies inside the target, which its structural reason forbids")
    return DiscontinuousAt(t, escapes, reason)


# --- shift continuity ----------------------------------------------------------


def check_shift_at(top: TopologyDescriptor, side: ShiftSide, s: BicyclicElement, x: BicyclicElement, t: int):
    """Decide continuity of the shift by s at the point x for target index t.

    A shift is the product with the point s: the engine gets s, with no
    axis, as the fixed factor and x, with the axis of its neighborhood, as
    the other.
    """
    if not contains(carrier(top), s):
        raise ValueError(f"shift element {s} is outside the carrier")
    z = apply_shift(side, s, x)
    za = _nbhd_axis(top, z, t)  # also validates the index and the image point
    xa = _nbhd_axis(top, x, t)  # also validates x
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

    The product is validated first, then x, then y, and the engine decides
    the product of their neighborhoods at index t against that of x*y.
    """
    z = multiply(x, y)
    return _decide(top, t, z, _nbhd_axis(top, z, t), x, _nbhd_axis(top, x, t), y, _nbhd_axis(top, y, t))


def _joint_with_equality(top, x, y, t):
    """check_joint_at's verdict and, when continuous, whether the image at the modulus equals the target.

    The image at the modulus is the product of the atoms built at t, and it
    lies inside the target, so it equals the target when the target is
    inside the union of its atoms, in whatever order they come.
    """
    z = multiply(x, y)
    za, xa, ya = (_nbhd_axis(top, w, t) for w in (z, x, y))
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


# --- witness scan ------------------------------------------------------------------


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
    """First shift discontinuity within the bound, always at target index t = 1.

    Scans pairs lazily by total exponent size, then lexicographically.  A
    cell's verdict kind does not depend on the target index (see the module
    docstring), so each pair is decided once, at t = 1; t_max (the bound
    when None) only gates the scan, which finds nothing below 1.  Every
    discontinuous verdict carries a structural reason, so a returned
    witness is certified for every source index.

    Only the right side of padic+ and the left side of padic- have a cell
    that can fail (the four shapes of the module docstring), so every
    other side answers None once the bound is checked, with no scan.
    """
    desc = carrier(top)
    _check_bound(desc, bound)
    crossing = 1 if side is ShiftSide.LEFT else 0  # the tail axis that crosses s on this side
    if (bound if t_max is None else t_max) < 1 or not (isinstance(top, _PAdic) and top.axis == crossing):
        return None
    points = enumerate_members(desc, bound)
    by_size = {}  # each total size pairs every s with the x that complete it
    for x in points:
        by_size.setdefault(x.k + x.l, []).append(x)
    for total in range(2 * max(by_size, default=0) + 1):
        for s in points:
            for x in by_size.get(total - s.k - s.l, ()):
                verdict = check_shift_at(top, side, s, x, 1)
                if isinstance(verdict, DiscontinuousAt):
                    return DiscontinuityWitness(s, x, 1, verdict)
    return None


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
