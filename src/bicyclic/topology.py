"""Topology descriptors and their basic neighborhood filters.

Four descriptor shapes, each handing every carrier point a decreasing
chain of basic neighborhoods indexed by idx = 1, 2, 3, ...

  * Discrete over any family: every point isolated.
  * PAdicPlus(p) on the upper half: along each row, a point's
    neighborhoods are the arithmetic progressions of step p^idx through
    its column, so each row carries a copy of the p-adic style
    progression filter on the column index.
  * PAdicMinus(p) on the lower half: the image of PAdicPlus under the
    inversion anti-isomorphism, columns in place of rows.  The two share
    one class body and differ only in their axis, 0 (rows) or 1 (columns).
  * WindowPAdic(p, m, n) on rows m..n of the upper half: points with
    second exponent at most n are isolated, all others keep their row
    progressions.

Each topology class tests a point against its carrier in `_axis`, which
gives the axis of the point's tails or None when it is isolated; the
continuity cells decide from that alone.  `basic_nbhd` returns a
neighborhood as a one-atom SymSet, for callers and for `separation_index`.
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Optional

from .element import BicyclicElement, _record
from .families import (
    CMinus,
    CPlus,
    CPlusWindow,
    SetDescriptor,
    format_descriptor,
    parse_descriptor,
)
from .symset import _TAIL, Single, SymSet, intersection_empty

__all__ = [
    "TopologyDescriptor",
    "Discrete",
    "PAdicPlus",
    "PAdicMinus",
    "WindowPAdic",
    "CarrierError",
    "carrier",
    "is_isolated",
    "basic_nbhd",
    "separation_index",
    "parse_topology",
    "format_topology",
]


class CarrierError(ValueError):
    """A point (or index) fell outside what the topology descriptor covers."""


def _require_prime(p: int):
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"step parameter must be prime, got {p}")


class TopologyDescriptor:
    """Base marker for the topology descriptors below."""

    def _off_carrier(self, x) -> CarrierError:
        return CarrierError(f"{x} is not in the carrier {format_descriptor(self._carrier)}")


@_record
class Discrete(TopologyDescriptor):
    carrier_desc: SetDescriptor

    def __post_init__(self):
        object.__setattr__(self, "_carrier", self.carrier_desc)

    def _axis(self, x) -> None:
        if not self._carrier._member(x):
            raise self._off_carrier(x)


@_record
class _PAdic(TopologyDescriptor):
    """Progressions of step p^idx along the lines of the class's `axis`."""

    p: int

    def __post_init__(self):
        _require_prime(self.p)
        object.__setattr__(self, "_carrier", CMinus() if self.axis else CPlus())

    def _axis(self, x) -> int:
        if not self._carrier._member(x):
            raise self._off_carrier(x)
        return self.axis


class PAdicPlus(_PAdic):
    axis = 0  # rows of the upper half


class PAdicMinus(_PAdic):
    axis = 1  # columns of the lower half


@_record
class WindowPAdic(TopologyDescriptor):
    p: int
    m: int
    n: int

    axis = 0  # its tails run along rows

    def __post_init__(self):
        _require_prime(self.p)
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"window needs 0 <= m <= n, got [{self.m}, {self.n}]")
        object.__setattr__(self, "_carrier", CPlusWindow(self.m, self.n))

    def _axis(self, x) -> Optional[int]:
        if not self._carrier._member(x):
            raise self._off_carrier(x)
        return None if x.l <= self.n else 0


def carrier(top: TopologyDescriptor) -> SetDescriptor:
    """The family the topology lives on, built once per descriptor when it is made."""
    try:
        return top._carrier  # outside eq, hash and repr
    except AttributeError:
        raise TypeError(f"unknown topology {top!r}") from None


def _check_index(idx):
    if not isinstance(idx, int) or idx < 1:
        raise ValueError(f"neighborhood index must be a positive integer, got {idx!r}")


def _axis_of(top: TopologyDescriptor):
    """top's `_axis`: a point's tail axis, or None when isolated; CarrierError off the carrier."""
    try:
        return top._axis
    except AttributeError:
        raise TypeError(f"unknown topology {top!r}") from None


def _nbhd_atom(top: TopologyDescriptor, x: BicyclicElement, idx: int, axis: Optional[int]):
    """The one atom of the idx-th basic neighborhood of x, whose `_axis` is axis."""
    if axis is None:
        return Single(x)
    # the progression through x along its row, or its column for PAdicMinus
    line, base = (x.k, x.l) if axis == 0 else (x.l, x.k)
    return _TAIL[axis](line, base, top.p**idx)


def is_isolated(top: TopologyDescriptor, x: BicyclicElement) -> bool:
    """Whether the basic neighborhoods of x are the point itself."""
    return _axis_of(top)(x) is None


def basic_nbhd(top: TopologyDescriptor, x: BicyclicElement, idx: int) -> SymSet:
    """The idx-th basic neighborhood of x, as a one-atom SymSet; validates idx, then x."""
    _check_index(idx)
    return SymSet((_nbhd_atom(top, x, idx, _axis_of(top)(x)),))


def separation_index(
    top: TopologyDescriptor, x: BicyclicElement, y: BicyclicElement, idx_max: int
) -> Optional[int]:
    """Least idx <= idx_max whose basic neighborhoods of x and y are disjoint."""
    if x == y:
        raise ValueError("separation needs two distinct points")
    for idx in range(1, idx_max + 1):
        if intersection_empty(basic_nbhd(top, x, idx), basic_nbhd(top, y, idx)):
            return idx
    return None


# --- grammar ----------------------------------------------------------------

_PADIC_RE = re.compile(r"^padic([+-]):(\d+)$")
_WINDOW_RE = re.compile(r"^window:(\d+):(\d+):(\d+)$")
_DISCRETE_RE = re.compile(r"^discrete:(.+)$")


def _parameters(cap: Optional[int], *groups) -> list:
    """The integer parameters of a topology, each checked against the cap.

    A parameter with more digits than the cap fails on its digit count, so
    int() never reads a number longer than Python converts.
    """
    for g in groups:
        if cap is not None and (len(g.lstrip("0")) > len(str(cap)) or int(g) > cap):
            raise ValueError(f"topology parameter {g} exceeds the cap {cap}")
    return [int(g) for g in groups]


def parse_topology(text: str, cap: Optional[int] = None) -> TopologyDescriptor:
    """Parse discrete:<carrier> | padic+:<p> | padic-:<p> | window:<p>:<m>:<n>.

    With a cap, a p, m or n, or a number in a discrete carrier's family,
    above it raises ValueError before any descriptor is built, so a huge p
    never reaches the prime test.
    """
    body = text.strip()
    m = _PADIC_RE.match(body)
    if m:
        cls = PAdicPlus if m.group(1) == "+" else PAdicMinus
        return cls(*_parameters(cap, m.group(2)))
    m = _WINDOW_RE.match(body)
    if m:
        return WindowPAdic(*_parameters(cap, *m.groups()))
    m = _DISCRETE_RE.match(body)
    if m:
        _parameters(cap, *re.findall(r"\d+", m.group(1)))
        return Discrete(parse_descriptor(m.group(1)))
    raise ValueError(f"cannot parse topology {text!r}")


def format_topology(top: TopologyDescriptor) -> str:
    if isinstance(top, Discrete):
        return f"discrete:{format_descriptor(top.carrier_desc)}"
    if isinstance(top, _PAdic):
        return f"padic{'+-'[top.axis]}:{top.p}"
    if isinstance(top, WindowPAdic):
        return f"window:{top.p}:{top.m}:{top.n}"
    raise TypeError(f"unknown topology {top!r}")
