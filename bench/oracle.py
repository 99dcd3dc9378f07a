"""The benchmark's own bicyclic arithmetic, written apart from the library.

Output checks compare library results against what is computed here.
Elements are plain (k, l) tuples; atoms of a symbolic set are tuples
("single", k, l), ("row", row, base, step) or ("col", col, base, step).
Nothing here imports `bicyclic`: library objects are only read by their
attribute names (`k`, `l`, `row`, `col`, `base`, `step`, `element`).
"""

from __future__ import annotations

from math import gcd


class CheckFailed(AssertionError):
    """An output check rejected a result."""


class KnownFault(Exception):
    """A result shows a known fault of the program, the same on every seed.

    The operation counts as failed rather than as a wrong answer, so a run
    stays correct while its `failed` count keeps the fault visible.
    """


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


# --- elements -------------------------------------------------------------------


def mul(x, y):
    """Product of b^x0 a^x1 and b^y0 a^y1: the a's of x cancel against the b's of y."""
    cancel = min(x[1], y[0])
    return (x[0] + y[0] - cancel, x[1] - cancel + y[1])


def mul_word(*elements):
    out = (0, 0)
    for e in elements:
        out = mul(out, e)
    return out


def power(x, n):
    out = x
    for _ in range(n - 1):
        out = mul(out, x)
    return out


def inv(x):
    return (x[1], x[0])


def reduce_letters(word: str):
    """Normal form of a word over a, b (p = a, q = b) by a counting scan."""
    k = l = 0
    for ch in word.lower().replace("p", "a").replace("q", "b"):
        if ch == "a":
            l += 1
        elif ch == "b":
            if l:
                l -= 1  # the pending a cancels this b
            else:
                k += 1
    return (k, l)


def solve_left(a, c):
    """All X with a*X = c, by scanning every X whose exponents can matter.

    a*X has first exponent a0 + max(0, X0 - a1) and second exponent
    X1 + max(0, a1 - X0), so X0 <= a1 + c0 and X1 <= c1 bound the scan.
    """
    return {
        (x0, x1)
        for x0 in range(a[1] + c[0] + 1)
        for x1 in range(c[1] + 1)
        if mul(a, (x0, x1)) == c
    }


def solve_right(c, b):
    return {inv(x) for x in solve_left(inv(b), inv(c))}


def natural_leq(x, y):
    """x <= y iff x = y*e for an idempotent e, scanned over e up to x's exponents."""
    return any(mul(y, (n, n)) == x for n in range(max(x) + max(y) + 1))


def is_plus_strict(e):
    return e[0] < e[1]


def is_minus_strict(e):
    return e[0] > e[1]


def has_strict_pair(elements) -> bool:
    return any(is_plus_strict(e) for e in elements) and any(is_minus_strict(e) for e in elements)


def element_of(obj):
    return (obj.k, obj.l)


def fmt(e) -> str:
    return f"b^{e[0]}a^{e[1]}"


# --- bounded closure -------------------------------------------------------------


def naive_closure(gens, bound: int):
    """All-pairs fixpoint: multiply every pair of the current set until nothing new.

    Returns (members, saturated); saturated means no product of two members
    leaves the box [0, bound]^2, so the fixpoint is the whole subsemigroup.
    """
    current = set(gens)
    while True:
        fresh = set()
        for x in current:
            for y in current:
                z = mul(x, y)
                if max(z) <= bound and z not in current:
                    fresh.add(z)
        if not fresh:
            break
        current |= fresh
    saturated = all(max(mul(x, y)) <= bound for x in current for y in current)
    return frozenset(current), saturated


# --- symbolic sets -----------------------------------------------------------------


def atom_of(obj):
    """Read a library atom into the tuple form, by its fields."""
    if hasattr(obj, "element"):
        return ("single", obj.element.k, obj.element.l)
    if hasattr(obj, "row"):
        return ("row", obj.row, obj.base, obj.step)
    return ("col", obj.col, obj.base, obj.step)


def atom_from_record(record):
    """Read an atom from the CLI's JSON record of it."""
    kind = record["type"]
    if kind == "single":
        return ("single", record["k"], record["l"])
    if kind == "row_tail":
        return ("row", record["row"], record["base"], record["step"])
    return ("col", record["col"], record["base"], record["step"])


def atoms_of(symset_obj):
    return [atom_of(a) for a in symset_obj.atoms]


def atom_has(atom, z) -> bool:
    if atom[0] == "single":
        return (atom[1], atom[2]) == z
    fixed, running = (z[0], z[1]) if atom[0] == "row" else (z[1], z[0])
    return fixed == atom[1] and running >= atom[2] and (running - atom[2]) % atom[3] == 0


def set_has(atoms, z) -> bool:
    return any(atom_has(a, z) for a in atoms)


def atom_member(atom, t: int):
    """The t-th member of an atom (t = 0 for a single)."""
    if atom[0] == "single":
        return (atom[1], atom[2])
    value = atom[2] + atom[3] * t
    return (atom[1], value) if atom[0] == "row" else (value, atom[1])


def atom_prefix(atom, count: int):
    if atom[0] == "single":
        return [atom_member(atom, 0)]
    return [atom_member(atom, t) for t in range(count)]


def atom_upto(atom, limit: int):
    """Members whose running exponent is at most limit, generated lazily."""
    if atom[0] == "single":
        return iter([atom_member(atom, 0)])
    return (atom_member(atom, t) for t in range(max(0, (limit - atom[2]) // atom[3] + 1)))


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def atoms_meet(a, b):
    """A common member of two atoms, or None, by a scan over one full period."""
    if a[0] == "single":
        return atom_member(a, 0) if atom_has(b, atom_member(a, 0)) else None
    if b[0] == "single":
        return atoms_meet(b, a)
    if a[0] != b[0]:
        meet = (a[1], b[1]) if a[0] == "row" else (b[1], a[1])
        return meet if atom_has(a, meet) and atom_has(b, meet) else None
    # same orientation: a common value exists iff one lies below max base + lcm
    limit = max(a[2], b[2]) + lcm(a[3], b[3])
    for z in atom_upto(a, limit):
        if atom_has(b, z):
            return z
    return None


# --- topologies ---------------------------------------------------------------------


def parse_topology(text: str):
    """('discrete',) | ('padic+', p) | ('padic-', p) | ('window', p, m, n)."""
    if text.startswith("discrete:"):
        return ("discrete",)
    if text.startswith("padic+:"):
        return ("padic+", int(text.split(":")[1]))
    if text.startswith("padic-:"):
        return ("padic-", int(text.split(":")[1]))
    _, p, m, n = text.split(":")
    return ("window", int(p), int(m), int(n))


def nbhd_atom(top, x, idx: int):
    """The idx-th basic neighborhood of x as one atom."""
    kind = top[0]
    if kind == "discrete" or (kind == "window" and x[1] <= top[3]):
        return ("single", x[0], x[1])
    step = top[1] ** idx
    if kind == "padic-":
        return ("col", x[1], x[0], step)
    return ("row", x[0], x[1], step)
