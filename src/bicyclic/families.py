"""Named subsemigroup families and the constructions that live on them.

Descriptors name subsets of the monoid that are closed under
multiplication: the whole monoid, the two halves cut out by the diagonal,
single rows and row windows of the upper half, the idempotent diagonal,
and bounded closures of finite generating sets.

On top of membership and enumeration this module builds three exact
constructions:

  * `idempotent_family`: from one strictly-upper and one strictly-lower
    element, an infinite diagonal progression of idempotents inside the
    generated subsemigroup, each member certified by explicit powers and
    products.
  * `finite_neighborhood`: the finite open block S minus (S*e union e*S)
    around x, for the least idempotent e = b^i0 a^i0 of S above x; by the
    product law it is S intersected with box(i0 - 1).
  * `idempotent_census`: count the diagonal inside a family up to a bound
    and classify the family's idempotent supply as finite, infinite, or
    merely bounded evidence.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .element import (
    BicyclicElement,
    Half,
    _record,
    half_membership,
    multiply,
    parse_element,
    power,
)

__all__ = [
    "SetDescriptor",
    "Full",
    "CPlus",
    "CMinus",
    "CPlusRow",
    "CPlusWindow",
    "IdempotentChain",
    "FinitelyGenerated",
    "BoundedMembership",
    "membership",
    "contains",
    "enumerate_members",
    "ClosureResult",
    "closure",
    "CensusVerdict",
    "CensusResult",
    "idempotent_census",
    "FamilyCheck",
    "IdempotentFamily",
    "idempotent_family",
    "Neighborhood",
    "NoIsolatingIdempotentError",
    "finite_neighborhood",
    "parse_descriptor",
    "format_descriptor",
]

DEFAULT_CLOSURE_BOUND = 16


class SetDescriptor:
    """Base marker for the family descriptors below.

    Each descriptor holds its membership test as `_member(x, bound)`, its
    defining inequality; only FinitelyGenerated reads the bound.
    """


@_record
class Full(SetDescriptor):
    """The whole monoid."""

    def _member(self, x, bound=None):
        return True


@_record
class CPlus(SetDescriptor):
    """Upper half k <= l: non-negative powers of a against matching b's."""

    def _member(self, x, bound=None):
        return x.k <= x.l


@_record
class CMinus(SetDescriptor):
    """Lower half k >= l."""

    def _member(self, x, bound=None):
        return x.k >= x.l


@_record
class CPlusRow(SetDescriptor):
    """Single row of the upper half: first exponent fixed at n."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("row index must be non-negative")

    def _member(self, x, bound=None):
        return x.k == self.n and x.l >= self.n


@_record
class CPlusWindow(SetDescriptor):
    """Rows m through n of the upper half."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"window needs 0 <= m <= n, got [{self.m}, {self.n}]")

    def _member(self, x, bound=None):
        return self.m <= x.k <= self.n and x.l >= x.k


@_record
class IdempotentChain(SetDescriptor):
    """The diagonal k = l."""

    def _member(self, x, bound=None):
        return x.k == x.l


@_record
class FinitelyGenerated(SetDescriptor):
    """Subsemigroup generated by a finite list, explored by bounded closure.

    The closure at each bound is computed once, as the bits of
    `_closure_box`, and kept on the descriptor until it is freed.
    Membership, census and neighborhood queries read that one box:
    membership tests a bit and a census counts and scans bits.  Elements
    are built only for the listings of `closure_at` and `enumerate_members`.
    """

    gens: tuple

    def __post_init__(self):
        if not self.gens:
            raise ValueError("generator list must be non-empty")
        for g in self.gens:
            if not isinstance(g, BicyclicElement):
                raise TypeError("generators must be monoid elements")
        # outside eq, hash and repr: the largest generator exponent, and bound -> (box, saturated)
        object.__setattr__(self, "_gen_max", max(max(g.k, g.l) for g in self.gens))
        object.__setattr__(self, "_views", {})

    def _box_at(self, bound: int) -> tuple:
        view = self._views.get(bound)
        if view is None:
            _require_cover(self._gen_max, bound)
            view = self._views[bound] = _closure_box(self.gens, bound)
        return view

    def _bit(self, x, bound) -> tuple:
        """(x's bit, saturated, B) in the box at B = max(bound or the default, the generators, x)."""
        used = max(DEFAULT_CLOSURE_BOUND if bound is None else bound, self._gen_max, x.k, x.l)
        box, saturated = self._box_at(used)
        return box >> x.k * (used + 1) + x.l & 1 == 1, saturated, used

    def _member(self, x, bound=None):
        return self._bit(x, bound)[0]

    def closure_at(self, bound: int) -> ClosureResult:
        """`closure(self.gens, bound)`, read from the box computed on the first call for this bound."""
        box, saturated = self._box_at(bound)
        return ClosureResult(frozenset(_elements(box, bound)), saturated)


# a dataclass: the benchmark's tests forge copies with dataclasses.replace
@dataclass(frozen=True)
class BoundedMembership:
    """Membership answer plus whether it is definite or only bound-limited."""

    member: bool
    definite: bool
    bound: int


# a dataclass: the benchmark's tests forge copies with dataclasses.replace
@dataclass(frozen=True)
class ClosureResult:
    members: frozenset
    saturated: bool


def _require_cover(gen_max: int, bound: int):
    if gen_max > bound:
        raise ValueError("closure bound must cover the generators")


def _diagonal(w: int) -> int:
    """Bits l*(w+1) for l < w: the diagonal k = l of a box of width w."""
    return ((1 << w * (w + 1)) - 1) // ((1 << w + 1) - 1)


def _elements(box: int, bound: int):
    """The members of a box, row by row and left to right (lexicographic order)."""
    w = bound + 1
    for k in range(w):
        row = box >> k * w & (1 << w) - 1
        while row:
            low = row & -row
            yield BicyclicElement(k, low.bit_length() - 1)
            row ^= low


def closure(gens, bound: int) -> ClosureResult:
    """The generated subsemigroup as far as it can be built inside box(bound).

    members is the least subset of box(bound) = {b^k a^l : k, l <= bound}
    that contains the generators and holds every product of two of its
    members that lands in the box.  saturated=True means no product of two
    members leaves the box, so members is the whole generated subsemigroup
    (which is then finite).

    The fixpoint (`_closure_box`) keeps the box in one int: with
    w = bound + 1, bit k*w + l is set when b^k a^l is a member.  For
    x = (a, b) and y = (c, d) the product law reads

        b <= c:  (c + (a - b), d)    x matters only through delta = a - b
        b >= c:  (a, b + (d - c))    y matters only through eps = d - c

    (at b = c both give (a, d)).  Let m[delta] be the least l of a member
    with k - l = delta, and n[eps] the least k of a member with l - k = eps.
    The least member on diagonal delta holds both m[delta] and n[-delta],
    and one AND with the main diagonal (every (w + 1)-th bit) shifted onto
    it, then one lowest-bit read, finds it.  Each law is then a masked
    whole-box shift, repeated on the bits it adds, so that it also forms
    the chains x*y*y*... along one difference:

      A. rows c >= m[delta], shifted by delta rows: the member at m[delta]
         times each member of row c lands in row c + delta;
      B. columns b >= n[eps], shifted by eps bits: each member of column b
         times the member at n[eps] lands in column b + eps.

    Both moves only form products of two members, so they are exact.  They
    are complete: for an ordered pair with b <= c, m[a - b] <= b <= c puts
    row c under move A for x's difference, and for b >= c, n[d - c] <= c <= b
    puts column b under move B for y's; a difference of 0 (an idempotent)
    maps every member to itself.  Rows shifted past row bound, and columns
    a shift would push past column bound (masked off first, so no bit wraps
    into the next row), are products leaving the box: saturated=False.
    Diagonals are visited in turn, each in O(1) big-int operations plus one
    per chain step, until each has been visited since a move last added a
    bit: those visits form every product of the final members, so the box
    is closed and the flag is exact.
    """
    gens = tuple(gens)
    _require_cover(max((max(g.k, g.l) for g in gens), default=0), bound)
    box, saturated = _closure_box(gens, bound)
    return ClosureResult(frozenset(_elements(box, bound)), saturated)


def _closure_box(gens, bound: int) -> tuple:
    """(box, saturated) of `closure(gens, bound)`: bit k*(bound + 1) + l is b^k a^l."""
    w = bound + 1
    full = (1 << w * w) - 1
    row_ones = full // ((1 << w) - 1)  # bit k*w of every row k
    diagonal = _diagonal(w)
    box = 0
    for g in gens:
        box |= 1 << g.k * w + g.l
    saturated = True
    quiet = 0  # diagonals visited since a move last added a bit
    for delta in itertools.cycle(range(-bound, bound + 1)):
        if quiet > 2 * bound:
            return box, saturated
        quiet += 1
        on = box & (diagonal << delta * w if delta >= 0 else diagonal << -delta)
        if not delta or not on:
            continue
        k, l = divmod((on & -on).bit_length() - 1, w)
        if k - l != delta:  # a bit of the shifted diagonal that wrapped past column bound
            continue
        before = box
        rows = box >> l * w << l * w  # move A: rows >= m[delta] = l, shifted by delta rows
        while rows:
            moved = rows << delta * w if delta > 0 else rows >> -delta * w
            if moved > full:
                saturated = False
                moved &= full
            added = moved & ~box
            box |= added
            rows = added >> l * w << l * w
        source = ((1 << w) - (1 << k)) * row_ones  # move B: columns >= n[-delta] = k, shifted by -delta
        edge = ((1 << w) - (1 << w + delta)) * row_ones if delta < 0 else 0  # columns pushed out
        cols = box & source
        while cols:
            if cols & edge:
                saturated = False
                cols &= ~edge
            added = (cols << -delta if delta < 0 else cols >> delta) & ~box
            box |= added
            cols = added & source
        if box != before:
            quiet = 0


def membership(desc: SetDescriptor, x: BicyclicElement, bound: Optional[int] = None) -> BoundedMembership:
    """Membership with an explicit definiteness flag.

    Closed-form families are always definite, with the answer of
    `contains`.  For FinitelyGenerated the answer is read from the family's
    bounded closure: a positive answer is definite, a negative one is
    definite only if the closure saturated.
    """
    if isinstance(desc, FinitelyGenerated):
        found, saturated, used = desc._bit(x, bound)
        return BoundedMembership(found, found or saturated, used)
    return BoundedMembership(contains(desc, x), True, 0)


def contains(desc: SetDescriptor, x: BicyclicElement, bound: Optional[int] = None) -> bool:
    """Whether x is a member, by the descriptor's own `_member`.

    A closed-form family answers by its defining inequality;
    FinitelyGenerated answers through `membership`, from its bounded
    closure.  Any other object raises TypeError.
    """
    try:
        member = desc._member
    except AttributeError:
        raise TypeError(f"unknown descriptor {desc!r}") from None
    return member(x, bound)


def _check_bound(desc: SetDescriptor, bound: int):
    """The checks that enumerate_members(desc, bound) makes before it lists anything."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if isinstance(desc, FinitelyGenerated):
        _require_cover(desc._gen_max, bound)


def enumerate_members(desc: SetDescriptor, bound: int) -> list:
    """Members with both exponents <= bound, lexicographically sorted.

    For FinitelyGenerated this lists the bounded closure, so elements
    reachable only through intermediates above the bound are absent unless
    the closure saturates.
    """
    _check_bound(desc, bound)
    if isinstance(desc, FinitelyGenerated):
        return list(_elements(desc._box_at(bound)[0], bound))
    box = (
        BicyclicElement(k, l)
        for k in range(bound + 1)
        for l in range(bound + 1)
    )
    return [x for x in box if contains(desc, x)]


# --- census ----------------------------------------------------------------


class CensusVerdict(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    BOUNDED_EVIDENCE = "bounded-evidence"


# a dataclass: the benchmark's tests forge copies with dataclasses.replace
@dataclass(frozen=True)
class CensusResult:
    count: int
    verdict: CensusVerdict
    witness: Optional[tuple] = None  # (plus-strict, minus-strict) pair when applicable
    note: str = ""


def idempotent_census(desc: SetDescriptor, bound: int) -> CensusResult:
    """Count idempotents with index <= bound and classify the full supply."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if isinstance(desc, (Full, CPlus, CMinus, IdempotentChain)):
        count = bound + 1  # every diagonal element b^n a^n with n <= bound
        witness = (BicyclicElement(0, 1), BicyclicElement(1, 0)) if isinstance(desc, Full) else None
        note = "diagonal membership is definitional" if witness is None else "strict pair generates an infinite diagonal family"
        return CensusResult(count, CensusVerdict.INFINITE, witness, note)
    if isinstance(desc, CPlusRow):
        return CensusResult(1 if desc.n <= bound else 0, CensusVerdict.FINITE, None, "single idempotent at the row index")
    if isinstance(desc, CPlusWindow):
        count = max(0, min(desc.n, bound) - desc.m + 1)
        return CensusResult(count, CensusVerdict.FINITE, None, "one idempotent per window row")
    if isinstance(desc, FinitelyGenerated):
        box, saturated = desc._box_at(bound)
        w = bound + 1
        count = (box & _diagonal(w)).bit_count()
        least = [None, None]  # least (k, l) with k < l and with k > l, by k + l and then k
        for k in range(w):
            row = box >> k * w & (1 << w) - 1
            for side, part in enumerate((row >> k + 1 << k + 1, row & (1 << k) - 1)):
                if part:
                    l = (part & -part).bit_length() - 1
                    if least[side] is None or k + l < sum(least[side]):
                        least[side] = (k, l)
        if None not in least:
            pair = tuple(BicyclicElement(k, l) for k, l in least)
            return CensusResult(count, CensusVerdict.INFINITE, pair, "strict pair generates an infinite diagonal family")
        if saturated:
            return CensusResult(count, CensusVerdict.FINITE, None, "closure saturated, count is exact")
        return CensusResult(count, CensusVerdict.BOUNDED_EVIDENCE, None, "closure truncated at the bound")
    raise TypeError(f"unknown descriptor {desc!r}")


# --- infinite idempotent family from a strict pair ---------------------------


@_record
class FamilyCheck:
    """One certified family member: the powers, both products, the member."""

    p: int
    u_power: BicyclicElement
    v_power: BicyclicElement
    product_uv: BicyclicElement
    product_vu: BicyclicElement
    member: BicyclicElement


@_record
class IdempotentFamily:
    """Diagonal progression b^(offset + step*p) a^(offset + step*p), p >= 1."""

    offset: int
    step: int
    checks: tuple

    def member(self, p: int) -> BicyclicElement:
        if p < 1:
            raise ValueError("family members are indexed from p = 1")
        d = self.offset + self.step * p
        return BicyclicElement(d, d)

    def first(self, count: int) -> list:
        return [self.member(p) for p in range(1, count + 1)]


def idempotent_family(u: BicyclicElement, v: BicyclicElement, prefix: int = 5) -> IdempotentFamily:
    """The infinite diagonal idempotent family generated by a strict pair.

    With u = b^i a^(i+k) strictly upper and v = b^(j+l) a^j strictly lower
    (k, l > 0), the powers u^(l*p) = b^i a^(i+klp) and v^(k*p) =
    b^(j+klp) a^j multiply to idempotents:

        u^(l*p) * v^(k*p) = the constant idempotent at max(i, j)
        v^(k*p) * u^(l*p) = the diagonal point at max(i, j) + klp

    so the second product walks an infinite arithmetic progression of
    idempotents, all inside the subsemigroup generated by {u, v}.  The
    first `prefix` members are re-derived here by explicit power and
    multiply calls and returned as checks.
    """
    if half_membership(u) is not Half.PLUS_STRICT:
        raise ValueError(f"u must be strictly upper (k < l), got {u}")
    if half_membership(v) is not Half.MINUS_STRICT:
        raise ValueError(f"v must be strictly lower (k > l), got {v}")
    i, k_exp = u.k, u.l - u.k
    j, l_exp = v.l, v.k - v.l
    top = max(i, j)
    step = k_exp * l_exp
    checks = []
    for p in range(1, prefix + 1):
        up = power(u, l_exp * p)
        vp = power(v, k_exp * p)
        prod_uv = multiply(up, vp)
        prod_vu = multiply(vp, up)
        expected_uv = BicyclicElement(top, top)
        expected_vu = BicyclicElement(top + step * p, top + step * p)
        if prod_uv != expected_uv or prod_vu != expected_vu:
            # unreachable for valid strict pairs; guards the closed forms
            raise RuntimeError(
                f"family product mismatch at p={p}: {prod_uv} vs {expected_uv}, {prod_vu} vs {expected_vu}"
            )
        checks.append(FamilyCheck(p, up, vp, prod_uv, prod_vu, prod_vu))
    return IdempotentFamily(top, step, tuple(checks))


# --- finite complement neighborhood -------------------------------------------


class NoIsolatingIdempotentError(ValueError):
    """No idempotent with a large enough index exists in the family within the bound."""


# a dataclass: the benchmark's tests forge copies with dataclasses.replace
@dataclass(frozen=True)
class Neighborhood:
    """The finite set S minus (S*e union e*S) for e = b^i0 a^i0."""

    i0: int
    elements: frozenset


def finite_neighborhood(desc: SetDescriptor, x: BicyclicElement, bound: int) -> Neighborhood:
    """The finite open block S minus (S*e union e*S) around x in the family S = desc.

    e = b^i0 a^i0 for the least i0 >= max(x.k, x.l) + 1 with e in S, searched
    up to bound.  The block is S intersected with box(i0 - 1), the members
    with both exponents below i0.  By the product law

        (b^k a^l) * e = b^(k - l + max(l, i0)) a^max(l, i0)
        e * (b^k a^l) = b^max(k, i0) a^(l - k + max(k, i0))

    every y*e has second exponent >= i0 and every e*y first exponent >= i0,
    while y = y*e when y.l >= i0 and y = e*y when y.k >= i0.  So S*e union
    e*S holds every member with an exponent >= i0 and no point of box(i0 - 1),
    and the block is S intersected with that box: for every S, the bounded
    closure of a generated family included (the translate argument of
    Eberhart and Selden, 1969).  x lies in it, as both its exponents are
    below i0.  The block takes i0^2 membership tests and no product, whatever
    the bound; a generated family reads each of them off its closure at
    bound, the box that already holds e.

    A generated family's bound must cover its generators, and then reach
    above x, before the membership test, which would build a closure at the
    largest of them and of x; so an unreachable bound wins over a non-member.
    """
    if isinstance(desc, FinitelyGenerated):
        _require_cover(desc._gen_max, bound)
    if bound < max(x.k, x.l) + 1:
        raise NoIsolatingIdempotentError(f"bound {bound} cannot reach an idempotent above {x}")
    if not contains(desc, x, bound):
        raise ValueError(f"{x} is not a member of {format_descriptor(desc)}")
    for i0 in range(max(x.k, x.l) + 1, bound + 1):
        if contains(desc, BicyclicElement(i0, i0), bound):
            break
    else:
        raise NoIsolatingIdempotentError(
            f"no idempotent b^n a^n with n >= {max(x.k, x.l) + 1} in "
            f"{format_descriptor(desc)} within bound {bound}"
        )
    box = (BicyclicElement(k, l) for k in range(i0) for l in range(i0))
    return Neighborhood(i0, frozenset(y for y in box if contains(desc, y, bound)))


# --- descriptor grammar ----------------------------------------------------------

_ROW_RE = re.compile(r"^cplus-row:(\d+)$")
_WINDOW_RE = re.compile(r"^cplus-window:(\d+):(\d+)$")
_GEN_RE = re.compile(r"^gen:(.+)$")


def parse_descriptor(text: str) -> SetDescriptor:
    """Parse the descriptor grammar used on the command line.

    full | cplus | cminus | idem | cplus-row:<n> | cplus-window:<m>:<n>
    | gen:<elem>,<elem>,...
    """
    body = text.strip()
    if body == "full":
        return Full()
    if body == "cplus":
        return CPlus()
    if body == "cminus":
        return CMinus()
    if body == "idem":
        return IdempotentChain()
    m = _ROW_RE.match(body)
    if m:
        return CPlusRow(int(m.group(1)))
    m = _WINDOW_RE.match(body)
    if m:
        return CPlusWindow(int(m.group(1)), int(m.group(2)))
    m = _GEN_RE.match(body)
    if m:
        gens = tuple(parse_element(part) for part in m.group(1).split(","))
        return FinitelyGenerated(gens)
    raise ValueError(f"cannot parse descriptor {text!r}")


def format_descriptor(desc: SetDescriptor) -> str:
    if isinstance(desc, Full):
        return "full"
    if isinstance(desc, CPlus):
        return "cplus"
    if isinstance(desc, CMinus):
        return "cminus"
    if isinstance(desc, IdempotentChain):
        return "idem"
    if isinstance(desc, CPlusRow):
        return f"cplus-row:{desc.n}"
    if isinstance(desc, CPlusWindow):
        return f"cplus-window:{desc.m}:{desc.n}"
    if isinstance(desc, FinitelyGenerated):
        return "gen:" + ",".join(str(g) for g in desc.gens)
    raise TypeError(f"unknown descriptor {desc!r}")
