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

The least k that can work is known before any test.  A point's
neighborhoods do not depend on the index, so when every source
neighborhood is a point the candidate is k0 = 1.  When a source
neighborhood is a tail of step p^k, its image contains an infinite
slope-one tail of step p^k, which fits inside a target of step p^t only
when p^t divides p^k; so the candidate is k0 = t.  A cell is therefore
decided at k0, and when the image there fits, k0 is the minimal modulus.
The target is a basic neighborhood, a single atom, so the image fits
exactly when each atom that the image builders emit at k0 does: a point
that the target has as a member, or a tail on the target's line that the
target's progression holds.  No canonical form and no general subset test
is needed for that.

Failure is certified structurally, not by giving up: the image of a
progression tail contains a far tail, the image of its high end and the
last atom that _left_image_atom or _right_image_atom emits for it, whose
line (the fixed exponent) does not depend on k.  If it runs along another
line than the target, no k can ever work, and the verdict carries one
concrete escaping element per small k.  A far tail on the target's line
always fits (see _structural_reason), so every cell at every index ends
ContinuousAt or DiscontinuousAt; nothing is searched past k0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .element import BicyclicElement, _record, multiply, solve_left
from .families import contains, enumerate_members
from .symset import (
    Single,
    SymSet,
    _atoms_within,
    _left_image_atom,
    _product_atoms,
    _right_image_atom,
    left_image,
    product,
    right_image,
    subset,
)
from .topology import TopologyDescriptor, WindowPAdic, basic_nbhd, carrier, is_isolated

__all__ = [
    "ShiftSide",
    "ContinuousAt",
    "DiscontinuousAt",
    "RefutedUpToBound",
    "Verdict",
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


Verdict = object  # ContinuousAt or DiscontinuousAt


def apply_shift(side: ShiftSide, s: BicyclicElement, x: BicyclicElement) -> BicyclicElement:
    return multiply(s, x) if side is ShiftSide.LEFT else multiply(x, s)


def shift_image(side: ShiftSide, s: BicyclicElement, sets: SymSet) -> SymSet:
    return left_image(s, sets) if side is ShiftSide.LEFT else right_image(sets, s)


# --- structural analysis ------------------------------------------------------


def _structural_reason(far_tails, target: SymSet) -> Optional[str]:
    """A far tail off the target's line, which rules out every source index, or None.

    No other reason is needed on the supported topologies.  Along a tail,
    one argument of the min in the product law runs up with slope one;
    past the other argument the image moves along one line, and below it
    the image is off that line.  So a far tail on the shifted point's line
    continues the point's own progression, inside the target of the same
    step.  A tail source never maps to an isolated point, a window point of
    second exponent at most n: a product's second exponent is at least its
    right factor's, and at least its left factor's when the right factor
    is a window point (first exponent at most n).  So a cell whose image
    escapes the target at k0 always has a reason, and _decide raises
    RuntimeError if one does not.
    """
    watom = target.atoms[0]
    if isinstance(watom, Single):
        return None
    for tail in far_tails:
        if (tail.axis, tail.line) != (watom.axis, watom.line):
            return (
                f"the image always contains a tail along {('row', 'col')[tail.axis]} {tail.line}, "
                f"but target neighborhoods live along {('row', 'col')[watom.axis]} {watom.line}"
            )
    return None


def _far_tails(x, ax, y, ay) -> list:
    """The far tails of the product of atoms ax (holding x) and ay (holding y).

    A row x row product's own far tail lies on ax's row and a col x col
    product's on ay's column, lines that the two translates already give.
    """
    tails = []
    if not isinstance(ay, Single):
        tails.append(_left_image_atom(x, ay)[-1])
    if not isinstance(ax, Single):
        tails.append(_right_image_atom(ax, y)[-1])
    return tails


def _witnesses(images, target: SymSet, witness_bound: int) -> tuple:
    out = []
    for k in range(1, witness_bound + 1):
        w = subset(images(k), target)
        if w.holds:
            # a structural reason guarantees this cannot happen
            raise RuntimeError("structural certificate contradicted by an exact subset check")
        out.append((k, w.counterexample))
    return tuple(out)


def _decide(top, target, t, x, nx, y, ny, witness_bound):
    """Decide whether the product of nx (holding x) and ny (holding y) fits the target.

    This is the engine of every cell.  nx and ny are the source factors
    built at index t.  A point factor, the shifting element's {s} or an
    isolated point's neighborhood, is the same at every index, so k0 = 1
    when both factors are points and k0 = t otherwise (see the module
    docstring).  The atoms that `_product_atoms` emits at k0, each tested
    against the target's only atom (`_atoms_within`), decide exactly
    whether the image fits.  Returns the verdict and, for a continuous
    cell, those atoms.  Otherwise the structural reason certifies the
    failure, with witnesses read off the products at k = 1..witness_bound
    by exact subset tests.
    """
    ax, ay = nx.atoms[0], ny.atoms[0]
    image = _product_atoms(nx, ny)
    if _atoms_within(image, target.atoms[0]):
        k0 = 1 if isinstance(ax, Single) and isinstance(ay, Single) else t
        return ContinuousAt(((t, k0),)), image
    reason = _structural_reason(_far_tails(x, ax, y, ay), target)
    if reason is None:
        # the _structural_reason docstring proves that this cannot happen
        raise RuntimeError("the image escapes the target at k0 without a structural reason")

    def at(z, nz, k):  # a point factor is its own neighborhood at every index
        return nz if isinstance(nz.atoms[0], Single) else basic_nbhd(top, z, k)

    images = lambda k: product(at(x, nx, k), at(y, ny, k))
    return DiscontinuousAt(t, _witnesses(images, target, witness_bound), reason), None


# --- shift continuity ----------------------------------------------------------


def check_shift_at(
    top: TopologyDescriptor,
    side: ShiftSide,
    s: BicyclicElement,
    x: BicyclicElement,
    t: int,
    witness_bound: int = DEFAULT_WITNESS_BOUND,
):
    """Decide continuity of the shift by s at the point x for target index t.

    A shift is the product with the point {s}: the engine gets {s} as the
    fixed factor and the neighborhood of x, built at index t, as the other.
    """
    if not contains(carrier(top), s):
        raise ValueError(f"shift element {s} is outside the carrier")
    target = basic_nbhd(top, apply_shift(side, s, x), t)  # also validates the image point
    source = basic_nbhd(top, x, t)  # also validates x
    point = SymSet((Single(s),))
    if side is ShiftSide.LEFT:
        return _decide(top, target, t, s, point, x, source, witness_bound)[0]
    return _decide(top, target, t, x, source, s, point, witness_bound)[0]


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


def check_joint_at(
    top: TopologyDescriptor,
    x: BicyclicElement,
    y: BicyclicElement,
    t: int,
    witness_bound: int = DEFAULT_WITNESS_BOUND,
):
    """Decide joint continuity of multiplication at the pair (x, y).

    Both source neighborhoods are built once, at index t, and the engine
    decides their product against the neighborhood of x*y.
    """
    return _joint_decision(top, x, y, t, witness_bound)[0]


def _joint_decision(top, x, y, t, witness_bound):
    """check_joint_at's verdict, its target and the image's atoms at the modulus (None unless continuous)."""
    target = basic_nbhd(top, multiply(x, y), t)
    nx, ny = basic_nbhd(top, x, t), basic_nbhd(top, y, t)
    verdict, image = _decide(top, target, t, x, nx, y, ny, witness_bound)
    return verdict, target, image


def _joint_with_equality(top, x, y, t):
    """check_joint_at's verdict and, when continuous, whether the image at the modulus equals the target.

    The image is inside the target, so it equals the target when the target
    is inside the union of its atoms, in whatever order they come.
    """
    verdict, target, image = _joint_decision(top, x, y, t, DEFAULT_WITNESS_BOUND)
    return verdict, None if image is None else subset(target, SymSet(tuple(image))).holds


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
    """First shift discontinuity within the bound.

    Scans pairs by total exponent size, then lexicographically, with the
    target index innermost.  Every discontinuous verdict carries a
    structural reason, so a returned witness is certified for every source
    index.
    """
    t_top = t_max if t_max is not None else bound
    points = enumerate_members(carrier(top), bound)
    pairs = sorted(
        ((s, x) for s in points for x in points),
        key=lambda sx: (sx[0].k + sx[0].l + sx[1].k + sx[1].l, sx[0], sx[1]),
    )
    for s, x in pairs:
        for t in range(1, t_top + 1):
            verdict = check_shift_at(top, side, s, x, t)
            if isinstance(verdict, DiscontinuousAt):
                return DiscontinuityWitness(s, x, t, verdict)
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
