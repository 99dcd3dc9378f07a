"""Topology descriptors and their basic neighborhood filters.

Four descriptor shapes, each handing every carrier point a decreasing
chain of basic neighborhoods indexed by idx = 1, 2, 3, ...

  * Discrete over any family: every point isolated.
  * PAdicPlus(p) on the upper half: along each row, a point's
    neighborhoods are the arithmetic progressions of step p^idx through
    its column, so each row carries a copy of the p-adic style
    progression filter on the column index.
  * PAdicMinus(p) on the lower half: the image of PAdicPlus under the
    inversion anti-isomorphism, columns in place of rows.
  * WindowPAdic(p, m, n) on rows m..n of the upper half: points with
    second exponent at most n are isolated, all others keep their row
    progressions.

Neighborhoods are returned as SymSets so the continuity machinery can
push them through translations and products exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt
from typing import Optional

from .element import BicyclicElement
from .families import (
    CMinus,
    CPlus,
    CPlusWindow,
    SetDescriptor,
    contains,
    format_descriptor,
    parse_descriptor,
)
from .symset import ColTail, RowTail, Single, SymSet, intersection_empty

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


@dataclass(frozen=True)
class Discrete(TopologyDescriptor):
    carrier_desc: SetDescriptor


@dataclass(frozen=True)
class PAdicPlus(TopologyDescriptor):
    p: int

    def __post_init__(self):
        _require_prime(self.p)


@dataclass(frozen=True)
class PAdicMinus(TopologyDescriptor):
    p: int

    def __post_init__(self):
        _require_prime(self.p)


@dataclass(frozen=True)
class WindowPAdic(TopologyDescriptor):
    p: int
    m: int
    n: int

    def __post_init__(self):
        _require_prime(self.p)
        if self.m < 0 or self.n < self.m:
            raise ValueError(f"window needs 0 <= m <= n, got [{self.m}, {self.n}]")


def carrier(top: TopologyDescriptor) -> SetDescriptor:
    if isinstance(top, Discrete):
        return top.carrier_desc
    if isinstance(top, PAdicPlus):
        return CPlus()
    if isinstance(top, PAdicMinus):
        return CMinus()
    if isinstance(top, WindowPAdic):
        return CPlusWindow(top.m, top.n)
    raise TypeError(f"unknown topology {top!r}")


def _check_point(top: TopologyDescriptor, x: BicyclicElement):
    if not contains(carrier(top), x):
        raise CarrierError(
            f"{x} is not in the carrier {format_descriptor(carrier(top))}"
        )


def is_isolated(top: TopologyDescriptor, x: BicyclicElement) -> bool:
    _check_point(top, x)
    if isinstance(top, Discrete):
        return True
    if isinstance(top, WindowPAdic):
        return x.l <= top.n
    return False


def basic_nbhd(top: TopologyDescriptor, x: BicyclicElement, idx: int) -> SymSet:
    """The idx-th basic neighborhood of x, as a one-atom SymSet."""
    if not isinstance(idx, int) or idx < 1:
        raise ValueError(f"neighborhood index must be a positive integer, got {idx!r}")
    _check_point(top, x)
    if isinstance(top, Discrete):
        return SymSet((Single(x),))
    if isinstance(top, PAdicPlus):
        return SymSet((RowTail(x.k, x.l, top.p**idx),))
    if isinstance(top, PAdicMinus):
        # transport of the row filter through inversion: first exponent runs
        return SymSet((ColTail(x.l, x.k, top.p**idx),))
    if isinstance(top, WindowPAdic):
        if x.l <= top.n:
            return SymSet((Single(x),))
        return SymSet((RowTail(x.k, x.l, top.p**idx),))
    raise TypeError(f"unknown topology {top!r}")


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

    With a cap, a p, m or n above it raises ValueError before any
    descriptor is built, so a huge p never reaches the prime test.
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
        return Discrete(parse_descriptor(m.group(1)))
    raise ValueError(f"cannot parse topology {text!r}")


def format_topology(top: TopologyDescriptor) -> str:
    if isinstance(top, Discrete):
        return f"discrete:{format_descriptor(top.carrier_desc)}"
    if isinstance(top, PAdicPlus):
        return f"padic+:{top.p}"
    if isinstance(top, PAdicMinus):
        return f"padic-:{top.p}"
    if isinstance(top, WindowPAdic):
        return f"window:{top.p}:{top.m}:{top.n}"
    raise TypeError(f"unknown topology {top!r}")
