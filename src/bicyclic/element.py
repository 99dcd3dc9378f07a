"""Exact arithmetic in the bicyclic monoid.

The bicyclic monoid is generated by two letters a and b subject to the
single relation ab = 1 (ba does not reduce).  Every element has a unique
normal form b^k a^l, so the monoid is carried by pairs (k, l) of
non-negative integers and everything below is exact integer arithmetic:

    b^k a^l * b^m a^n = b^(k-l+m) a^n       if l < m
                        b^k a^n             if l = m
                        b^k a^(l-m+n)       if l > m

Two independent routes to the product are provided: the closed form above
(`multiply`) and plain word rewriting (`reduce_word`), which knows nothing
about the closed form and just deletes "ab" pairs until none remain.
"""

from __future__ import annotations

import enum
import re

__all__ = [
    "BicyclicElement",
    "IDENTITY",
    "Half",
    "multiply",
    "invert",
    "power",
    "is_idempotent",
    "half_membership",
    "natural_leq",
    "natural_leq_witness",
    "solve_left",
    "solve_right",
    "word_of",
    "parse_word",
    "reduce_word",
    "parse_element",
    "format_element",
]


def _record(cls=None, *, order=False):
    """Class decorator: a frozen record over the fields the class annotates.

    It writes the methods `@dataclass(frozen=True)` writes, with the same
    bodies, from one source string: an `__init__` that takes the fields by
    position or keyword (class attributes are defaults), sets them through
    `object.__setattr__` and calls `__post_init__` when the class has one;
    a `__repr__` by `__qualname__`; `__eq__` and `__hash__` over the tuple
    of fields, so hashes, set orders and reprs stay the dataclass ones;
    with `order=True` the four comparisons of those tuples; and an
    assignment and deletion that raise AttributeError.  Comparisons answer
    only for an instance of the very same class.  Left out: `__match_args__`,
    `__dataclass_fields__` and a generated `__doc__`.  It exists because
    `import dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`,
    and its decorator is slow, on every command's start.  Five results stay
    dataclasses (`ClosureResult`, `CensusResult`, `BoundedMembership`,
    `Neighborhood`, `DiscontinuousAt`): the benchmark's tests forge copies
    of them with `dataclasses.replace`.
    """
    if cls is None:
        return lambda cls: _record(cls, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
    this, that = ("(" + "".join(f"{side}.{n}," for n in names) + ")" for side in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    ops = {"__eq__": "==", **({"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="} if order else {})}
    source = [
        f"def __init__(self{params}):",
        *(f" _set(self, {n!r}, {n})" for n in names),
        " self.__post_init__()" if hasattr(cls, "__post_init__") else " pass",
        "def __repr__(self):",
        f" return self.__class__.__qualname__ + f'({shown})'",
        "def __hash__(self):",
        f" return hash({this})",
        *(
            f"def {name}(self, other):\n if other.__class__ is self.__class__:\n"
            f"  return {this}{op}{that}\n return NotImplemented"
            for name, op in ops.items()
        ),
        "def __setattr__(self, name, value):",
        " raise AttributeError(f'cannot assign to field {name!r}')",
        "def __delattr__(self, name):",
        " raise AttributeError(f'cannot delete field {name!r}')",
    ]
    namespace = {"_set": object.__setattr__, "_cls": cls}
    exec("\n".join(source), namespace)
    for name in ("__init__", "__repr__", "__hash__", *ops, "__setattr__", "__delattr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    return cls


@_record(order=True)
class BicyclicElement:
    """Normal form b^k a^l, stored as the exponent pair (k, l).

    Comparison operators give the lexicographic order on (k, l); that is a
    bookkeeping order used for deterministic listings, not the natural
    partial order of the monoid (see `natural_leq` for that).
    """

    k: int
    l: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and isinstance(self.l, int)):
            raise TypeError("exponents must be integers")
        if self.k < 0 or self.l < 0:
            raise ValueError(f"exponents must be non-negative, got ({self.k}, {self.l})")

    def __mul__(self, other: "BicyclicElement") -> "BicyclicElement":
        return multiply(self, other)

    def __pow__(self, n: int) -> "BicyclicElement":
        return power(self, n)

    def inverse(self) -> "BicyclicElement":
        return invert(self)

    @property
    def is_idempotent(self) -> bool:
        return self.k == self.l

    def __str__(self) -> str:
        return format_element(self)


IDENTITY = BicyclicElement(0, 0)


class Half(enum.Enum):
    """Which half of the monoid an element sits in, by sign of l - k."""

    PLUS_STRICT = "plus-strict"    # k < l, strictly below the diagonal
    DIAGONAL = "diagonal"          # k = l, an idempotent
    MINUS_STRICT = "minus-strict"  # k > l


def multiply(x: BicyclicElement, y: BicyclicElement) -> BicyclicElement:
    """Product in normal form, via the three-case cancellation law."""
    if x.l < y.k:
        return BicyclicElement(x.k - x.l + y.k, y.l)
    if x.l == y.k:
        return BicyclicElement(x.k, y.l)
    return BicyclicElement(x.k, x.l - y.k + y.l)


def invert(x: BicyclicElement) -> BicyclicElement:
    """The inverse in the inverse-semigroup sense: x * invert(x) * x = x."""
    return BicyclicElement(x.l, x.k)


def is_idempotent(x: BicyclicElement) -> bool:
    return x.k == x.l


def half_membership(x: BicyclicElement) -> Half:
    if x.k < x.l:
        return Half.PLUS_STRICT
    if x.k > x.l:
        return Half.MINUS_STRICT
    return Half.DIAGONAL


def power(x: BicyclicElement, n: int) -> BicyclicElement:
    """n-th power for n >= 1, in closed form.

    For k < l the powers march down the row: (b^k a^l)^n = b^k a^(k+n(l-k)).
    For k > l the mirror holds: (b^k a^l)^n = b^(l+n(k-l)) a^l.
    Idempotents are fixed.  Agreement with iterated `multiply` is part of
    the test suite, not assumed here.
    """
    if not isinstance(n, int):
        raise TypeError("exponent must be an integer")
    if n < 1:
        raise ValueError(f"power is defined for n >= 1, got {n}")
    if x.k < x.l:
        return BicyclicElement(x.k, x.k + n * (x.l - x.k))
    if x.k > x.l:
        return BicyclicElement(x.l + n * (x.k - x.l), x.l)
    return x


def natural_leq_witness(x: BicyclicElement, y: BicyclicElement):
    """Idempotent e with y * e = x when x lies below y, else None.

    x <= y in the natural partial order iff x = y * e for some idempotent
    e = b^n a^n; equivalently k - l = m - n and k >= m.  When the order
    holds, e = b^(x.l) a^(x.l) always works.
    """
    if x.k - x.l == y.k - y.l and x.k >= y.k:
        return BicyclicElement(x.l, x.l)
    return None


def natural_leq(x: BicyclicElement, y: BicyclicElement) -> bool:
    return natural_leq_witness(x, y) is not None


def solve_left(a: BicyclicElement, c: BicyclicElement) -> frozenset:
    """All X with a * X = c.  Always finite, may be empty.

    Case analysis on the product law: when c.k > a.k there is exactly one
    solution; when c.k == a.k the solutions are b^(a.l) a^(c.l) together
    with one solution for every m in [max(0, a.l - c.l), a.l); when
    c.k < a.k there are none.  The cardinality is therefore
    1 + min(a.l, c.l) in the middle case.
    """
    if c.k > a.k:
        return frozenset({BicyclicElement(a.l + c.k - a.k, c.l)})
    if c.k < a.k:
        return frozenset()
    sols = {BicyclicElement(a.l, c.l)}
    for m in range(max(0, a.l - c.l), a.l):
        sols.add(BicyclicElement(m, c.l - a.l + m))
    return frozenset(sols)


def solve_right(c: BicyclicElement, b: BicyclicElement) -> frozenset:
    """All X with X * b = c, mirrored through inversion.

    Inversion is an anti-isomorphism, so X * b = c exactly when
    invert(b) * invert(X) = invert(c).
    """
    return frozenset(invert(z) for z in solve_left(invert(b), invert(c)))


# --- word route ------------------------------------------------------------

_LETTER_ALIASES = {"a": "a", "p": "a", "b": "b", "q": "b"}


def parse_word(text: str) -> str:
    """Normalize a word over the generators to a string of 'a'/'b' letters.

    Accepts a/b and the p/q alias pair (p = a, q = b), any case, with
    whitespace ignored.
    """
    out = []
    for ch in text:
        if ch.isspace():
            continue
        try:
            out.append(_LETTER_ALIASES[ch.lower()])
        except KeyError:
            raise ValueError(f"invalid generator letter {ch!r} in word") from None
    return "".join(out)


def word_of(x: BicyclicElement) -> str:
    return "b" * x.k + "a" * x.l


def reduce_word(word: str) -> BicyclicElement:
    """Reduce a word to normal form by deleting "ab" pairs until none remain.

    This is deliberately naive string rewriting.  It serves as an
    independent oracle for `multiply`: concatenating two normal forms and
    reducing must give the same answer as the closed form.
    """
    s = parse_word(word)
    while "ab" in s:
        s = s.replace("ab", "")
    k = len(s) - len(s.lstrip("b"))
    l = len(s) - k
    if s != "b" * k + "a" * l:
        # unreachable: a word with no "ab" substring is all b's then all a's
        raise RuntimeError(f"rewriting stopped on a non-normal word {s!r}")
    return BicyclicElement(k, l)


# --- text form -------------------------------------------------------------

_ELEMENT_RE = re.compile(r"^\s*b\^(\d+)\s*a\^(\d+)\s*$")


def parse_element(text: str) -> BicyclicElement:
    """Parse "b^k a^l" (whitespace optional) or "1" for the identity."""
    if text.strip() == "1":
        return IDENTITY
    m = _ELEMENT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse element {text!r}, expected b^<uint>a^<uint> or 1")
    return BicyclicElement(int(m.group(1)), int(m.group(2)))


def format_element(x: BicyclicElement) -> str:
    return f"b^{x.k}a^{x.l}"
