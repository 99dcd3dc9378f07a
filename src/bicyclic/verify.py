"""Verification suites behind `bicyclic verify <suite>`.

Each suite replays a bundle of exact checks against the library and
returns a list of (label, passed) pairs.  The brute-force division oracle
scans a fixed window of exponent pairs with its own copy of the product
law, independent of `multiply` and of the closed-form division in
`element`.
"""

from __future__ import annotations

from .continuity import (
    ContinuousAt,
    ShiftSide,
    check_joint,
    check_joint_at,
    check_shift_at,
    equation_replay,
)
from .element import (
    IDENTITY,
    BicyclicElement,
    format_element,
    invert,
    multiply,
    natural_leq_witness,
    power,
    reduce_word,
    solve_left,
    solve_right,
    word_of,
)
from .families import (
    CMinus,
    CPlus,
    CPlusWindow,
    FinitelyGenerated,
    Full,
    IdempotentChain,
    contains,
    enumerate_members,
    finite_neighborhood,
    format_descriptor,
    idempotent_family,
    membership,
)
from .symset import intersection_empty, member, members, subset
from .topology import (
    Discrete,
    PAdicMinus,
    PAdicPlus,
    WindowPAdic,
    basic_nbhd,
    carrier,
    is_isolated,
    separation_index,
)


def _brute_division(a, side, size, targets):
    """Brute-force division by `a` over the size x size window, one scan per factor.

    Maps each target c to the window elements X with a*X = c (side "left")
    or X*a = c (side "right").  The scan multiplies exponent pairs by its
    own copy of the three-case law, so it shares no code with `multiply`,
    and builds an element only for a hit.
    """
    found = {(c.k, c.l): set() for c in targets}
    for m in range(size):
        for n in range(size):
            # b^k a^l * b^p a^q with X = b^m a^n on the scanned side
            k, l, p, q = (a.k, a.l, m, n) if side == "left" else (m, n, a.k, a.l)
            if l < p:
                c = (k - l + p, q)
            elif l == p:
                c = (k, q)
            else:
                c = (k, l - p + q)
            hits = found.get(c)
            if hits is not None:
                hits.add(BicyclicElement(m, n))
    return {c: found[c.k, c.l] for c in targets}


def _suite_core_oracle(bound):
    E = BicyclicElement
    checks = []

    def ck(label, ok):
        checks.append((label, bool(ok)))

    ck("product b^2a^3 * b^5a^1 = b^4a^1", multiply(E(2, 3), E(5, 1)) == E(4, 1))
    ck("the word ab reduces to the identity", reduce_word("ab") == IDENTITY)
    ck("the word ba is already normal", reduce_word("ba") == E(1, 1))
    grid = [E(k, l) for k in range(4) for l in range(4)]
    ck(
        "closed-form product matches word rewriting on a 16x16 grid",
        all(multiply(x, y) == reduce_word(word_of(x) + word_of(y)) for x in grid for y in grid),
    )
    ok = True
    for x in grid:
        acc = x
        for n in range(2, 6):
            acc = multiply(acc, x)
            ok = ok and acc == power(x, n)
    ck("power closed form matches repeated products up to n=5", ok)
    ck(
        "inversion reverses products on the grid",
        all(invert(multiply(x, y)) == multiply(invert(y), invert(x)) for x in grid for y in grid),
    )
    ck(
        "left division by a at a: solutions {1, ba}",
        solve_left(E(0, 1), E(0, 1)) == frozenset({E(0, 0), E(1, 1)}),
    )
    ck(
        "left division a*X = b^5 has the single solution b^6",
        solve_left(E(0, 1), E(5, 0)) == frozenset({E(6, 0)}),
    )
    ck(
        "right division X*b = a^5 has the single solution a^6",
        solve_right(E(0, 5), E(1, 0)) == frozenset({E(0, 6)}),
    )

    small = [E(k, l) for k in range(3) for l in range(3)]
    ck(
        "left division matches a brute scan on a 9x9 grid of instances",
        all(
            solve_left(a, c) == found
            for a in small
            for c, found in _brute_division(a, "left", 12, small).items()
        ),
    )
    w = natural_leq_witness(E(5, 3), E(4, 2))
    ck(
        "natural order b^5a^3 <= b^4a^2 with idempotent witness b^3a^3",
        w == E(3, 3) and multiply(E(4, 2), w) == E(5, 3),
    )
    return checks


def _suite_prop1(bound):
    E = BicyclicElement
    checks = []
    samples = [(0, 1, 0, 1), (0, 1, 2, 1), (1, 2, 0, 3), (2, 1, 1, 1), (0, 2, 3, 2)]
    for i, k, j, l in samples:
        u, v = E(i, i + k), E(j + l, j)
        fam = idempotent_family(u, v, prefix=6)
        mem = fam.first(6)
        ok = (
            len(set(mem)) == 6
            and all(m.is_idempotent for m in mem)
            and all(c.product_vu == c.member for c in fam.checks)
            and len({c.product_uv for c in fam.checks}) == 1
        )
        gen_bound = max(24, fam.offset + 2 * fam.step + 2)
        ok = ok and membership(FinitelyGenerated((u, v)), fam.member(1), bound=gen_bound).member
        checks.append(
            (
                f"u={format_element(u)} v={format_element(v)}: distinct idempotent family "
                f"offset={fam.offset} step={fam.step} inside the generated subsemigroup",
                ok,
            )
        )
    return checks


def _products_inside(top, x, y, k, t):
    """Whether u*v lies in the t-th neighborhood of x*y for the first two
    members u, v of each k-th neighborhood of x and y."""
    target = basic_nbhd(top, multiply(x, y), t)
    xs = members(basic_nbhd(top, x, k), 2)
    ys = members(basic_nbhd(top, y, k), 2)
    return all(member(target, multiply(u, v)) for u in xs for v in ys)


def _suite_prop2(bound, p=2, m=0, n=2):
    """Joint continuity of multiplication in one row-window topology."""
    checks = []
    b = 6 if bound is None else bound
    top = WindowPAdic(p, m, n)
    label = f"window:{p}:{m}:{n} bound={b}"
    rep = check_joint(top, bound=b, t_max=3)
    checks.append((f"{label}: every cell of the joint sweep is continuous", rep.all_continuous))
    fourth = [c for c in rep.cells if c.case == "neither-isolated"]
    # pointwise, independent of the product and subset test behind the verdict:
    # products of the first members of both neighborhoods at the modulus
    ok = bool(fourth) and all(
        _products_inside(top, c.x, c.y, c.verdict.modulus_for(c.t), c.t)
        for c in fourth
        if isinstance(c.verdict, ContinuousAt)
    )
    checks.append(
        (f"{label}: fourth-case product sets sit inside the target neighborhood", ok)
    )
    # exact neighborhood equality holds except when two isolated points
    # multiply to a non-isolated one; there the image is the single
    # product point sitting inside the infinite target tail
    ok = all(
        c.equality == (not (c.case == "both-isolated" and not is_isolated(top, multiply(c.x, c.y))))
        for c in rep.cells
    )
    checks.append((f"{label}: neighborhood equality follows the isolation dichotomy", ok))
    wanted = {"both-isolated", "left-isolated-only", "right-isolated-only", "neither-isolated"}
    checks.append((f"{label}: all four isolation cases appear in the sweep", set(rep.cases()) == wanted))
    return checks


def _suite_thm1(bound):
    E = BicyclicElement
    b = 12 if bound is None else bound
    checks = []
    cases = [
        (Full(), E(1, 2)),
        (Full(), E(0, 0)),
        (CPlus(), E(1, 3)),
        (CMinus(), E(3, 1)),
        (IdempotentChain(), E(2, 2)),
    ]
    for desc, x in cases:
        # the translate complement over the window: members up to b that are neither z*e nor e*z
        nb = finite_neighborhood(desc, x, b)
        e, window = E(nb.i0, nb.i0), enumerate_members(desc, b)
        translates = {multiply(z, e) for z in window} | {multiply(e, z) for z in window}
        ok = x in nb.elements and nb.elements == frozenset(window) - translates
        checks.append(
            (
                f"{format_descriptor(desc)} at {format_element(x)}: finite block below index {nb.i0}",
                ok,
            )
        )
    nb = finite_neighborhood(Full(), E(2, 1), b)
    checks.append(("full-monoid block size is the square of its index", len(nb.elements) == nb.i0**2))
    return checks


def _suite_thm2(bound):
    """Division replays: finite, fully verified solution sets."""
    checks = []
    b = 8 if bound is None else bound
    if b < 0:
        raise ValueError("bound must be non-negative")
    tuples = [
        (x0, y0, i0, j0)
        for x0 in range(b + 1)
        for y0 in range(b + 1)
        for j0 in range(b + 1)
        for i0 in range(j0 + 1)
        if y0 - j0 > x0
    ]
    ok = True
    count = 0
    for x0, y0, i0, j0 in tuples:
        r = equation_replay(x0, y0, i0, j0)
        count += 1
        ok = ok and (
            r.distinguished in r.solutions
            and len(r.solutions) == 1 + (y0 + i0 - j0)
            and all(multiply(r.left_factor, X) == r.target for X in r.solutions)
        )
    checks.append(
        (f"all {count} division replays with parameters <= {b}: finite verified solution sets", ok)
    )
    E = BicyclicElement
    small = [E(k, l) for k in range(4) for l in range(4)]
    checks.append(
        (
            "left and right division match a brute scan over a 30x30 window",
            all(
                solve_left(a, c) == found
                for a in small
                for c, found in _brute_division(a, "left", 30, small).items()
            )
            and all(
                solve_right(c, a) == found
                for a in small
                for c, found in _brute_division(a, "right", 30, small).items()
            ),
        )
    )
    return checks


def _suite_hausdorff(bound):
    """Topology sanity: nesting, self-membership, separation, discrete continuity."""
    checks = []
    b = 3 if bound is None else bound
    grids = [
        ("padic+:2", PAdicPlus(2), enumerate_members(CPlus(), b)),
        ("padic+:3", PAdicPlus(3), enumerate_members(CPlus(), b)),
        ("padic-:2", PAdicMinus(2), enumerate_members(CMinus(), b)),
        ("padic-:3", PAdicMinus(3), enumerate_members(CMinus(), b)),
        ("window:2:0:2", WindowPAdic(2, 0, 2), enumerate_members(CPlusWindow(0, 2), b + 1)),
        ("window:3:1:3", WindowPAdic(3, 1, 3), enumerate_members(CPlusWindow(1, 3), b + 2)),
        ("discrete:full", Discrete(Full()), enumerate_members(Full(), 2)),
    ]
    for label, top, pts in grids:
        ok = all(
            member(basic_nbhd(top, x, idx), x) for x in pts for idx in range(1, 5)
        )
        checks.append((f"{label}: every basic neighborhood contains its own point", ok))
        ok = all(
            subset(basic_nbhd(top, x, idx + 1), basic_nbhd(top, x, idx)).holds
            for x in pts
            for idx in range(1, 4)
        )
        checks.append((f"{label}: the neighborhood chain is nested", ok))
        desc = carrier(top)
        ok = all(contains(desc, x) for x in pts) and all(
            contains(desc, multiply(x, y)) for x in pts for y in pts
        )
        checks.append((f"{label}: carrier holds the sample and its pairwise products", ok))
        ok = True
        for x in pts:
            for y in pts:
                if x == y:
                    continue
                idx = separation_index(top, x, y, 8)
                if idx is None:
                    ok = False
                    continue
                ok = ok and intersection_empty(basic_nbhd(top, x, idx), basic_nbhd(top, y, idx))
        checks.append((f"{label}: {len(pts)} sampled points are pairwise separated", ok))
    disc = Discrete(Full())
    pts = enumerate_members(Full(), 2)
    ok = all(
        isinstance(check_shift_at(disc, side, s, x, t), ContinuousAt)
        for side in (ShiftSide.LEFT, ShiftSide.RIGHT)
        for s in pts
        for x in pts
        for t in (1, 2)
    ) and all(
        isinstance(check_joint_at(disc, x, y, 1), ContinuousAt) for x in pts for y in pts
    )
    checks.append(("discrete:full: every shift and joint continuity check passes", ok))
    return checks


SUITES = {
    "core-oracle": _suite_core_oracle,
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "hausdorff": _suite_hausdorff,
}
