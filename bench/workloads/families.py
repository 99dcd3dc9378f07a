"""`families`: bounded closures, censuses, membership, finite blocks, discrete cells.

Generator sets come in four classes, because the cost of a closure is set
by how much of the box the generated family fills:

  dense   a strict pair with coprime differences (plus an optional third
          element); fills most of the box, census `infinite`
  sparse  a strict pair whose differences share the factor 2; about a
          quarter of the box, census `infinite`
  upper   two or three elements of the upper half k <= l, not all
          idempotent; never a strict pair, census `bounded-evidence`
  idem    two idempotents; saturates, census `finite`

Every generator set is moved by the diagonal shift x -> b^c x a^c, an
injective homomorphism, with c drawn from the seed, and half of them are
inverted (an anti-isomorphism).  The shifted closure at bound B + c is
the shifted closure at B, so each instance costs what its class costs
while its (generators, bound) key is new.  The fresh closures are
one-shot; the three query families get 24 membership queries each.
"""

from __future__ import annotations

from math import gcd

import bicyclic as bc

from oracle import (
    element_of,
    has_strict_pair,
    mul,
    naive_closure,
    require,
)

from . import Op, cli_in_process, rng_for

QUERIES_PER_FAMILY = 24
FRESH_SLOTS = (
    ("dense", 10), ("dense", 10), ("dense", 10), ("dense", 10),
    ("dense", 16),
    ("sparse", 16), ("sparse", 16), ("sparse", 16),
    ("upper", 16), ("upper", 16), ("upper", 16),
    ("idem", 12),
)
NAIVE_CHECKS_PER_ROUND = 3
# (class, generators, bound): the same few families, shifted per round
QUERY_FAMILIES = (
    ("dense", ((1, 2), (4, 1)), 14),
    ("sparse", ((1, 3), (2, 0)), 16),
    ("upper", ((1, 3), (3, 4)), 16),
)
BLOCK_FAMILIES = (
    ("dense", ((1, 2), (2, 1), (0, 3)), 6),
    ("sparse", ((1, 3), (2, 0)), 8),
)
# (generators, side or "joint") for cells of discrete:gen:... topologies
CELL_FAMILIES = (
    (((1, 2), (3, 0)), "left"),
    (((1, 3), (2, 0)), "right"),
    (((1, 3), (2, 0)), "left"),
    (((1, 3), (2, 0)), "joint"),
)


# --- generator classes -----------------------------------------------------------------


def _strict_pair(rng, ks, coprime: bool):
    k, l = rng.choice(ks), rng.choice(ks)
    while coprime and gcd(k, l) != 1:
        k, l = rng.choice(ks), rng.choice(ks)
    i, j = rng.randint(0, 2), rng.randint(0, 2)
    return [(i, i + k), (j + l, j)]


def class_gens(rng, cls: str):
    if cls == "dense":
        gens = _strict_pair(rng, (1, 2, 3), coprime=True)
        if rng.random() < 0.5:
            gens.append((rng.randint(0, 3), rng.randint(0, 3)))
    elif cls == "sparse":
        gens = _strict_pair(rng, (2, 4), coprime=False)
    elif cls == "upper":
        gens = []
        while len(set(gens)) < 2 or all(k == l for k, l in gens):
            gens = [(k, k + rng.randint(0, 3)) for k in rng.sample(range(4), rng.randint(2, 3))]
    else:
        gens = [(n, n) for n in rng.sample(range(1, 5), 2)]
    return gens


def place(rng, gens, shift=True):
    """Shift by a seeded c along the diagonal, maybe invert, shuffle; returns (gens, c)."""
    c = rng.randint(0, 3) if shift else 0
    flip = rng.random() < 0.5
    moved = [((l + c, k + c) if flip else (k + c, l + c)) for k, l in gens]
    rng.shuffle(moved)
    return moved, c


def E(pair):
    return bc.BicyclicElement(*pair)


# --- checks -----------------------------------------------------------------------------


class NaiveCache:
    """Naive closures computed during checks, shared by the checks of one round."""

    def __init__(self):
        self.table = {}

    def get(self, gens, bound):
        key = (tuple(sorted(gens)), bound)
        if key not in self.table:
            self.table[key] = naive_closure(gens, bound)
        return self.table[key]


def check_closure(gens, bound, result, naive=None):
    members = {element_of(e) for e in result.members}
    require(set(gens) <= members, "generators missing from their closure")
    require(all(max(e) <= bound for e in members), "closure member outside the bound")
    if naive is not None:
        expected, saturated = naive
        missing, extra = expected - members, members - expected
        require(not missing and not extra, f"closure differs from the naive fixpoint: missing {sorted(missing)[:3]} extra {sorted(extra)[:3]}")
        require(result.saturated == saturated, f"saturated={result.saturated}, naive fixpoint says {saturated}")


def check_census(closure_result, census):
    members = {element_of(e) for e in closure_result.members}
    verdict = census.verdict.value
    strict = has_strict_pair(members)
    require((verdict == "infinite") == strict, f"census verdict {verdict} but strict pair present={strict}")
    require(census.count == sum(1 for k, l in members if k == l), "census count differs from the idempotents of the closure")
    if verdict == "finite":
        require(closure_result.saturated, "finite verdict on a truncated closure")


def check_membership(x, naive, answer):
    members, saturated = naive
    found = x in members
    require(answer.member == found, f"membership of {x}: library {answer.member}, naive {found}")
    require(answer.definite == (found or saturated), f"definite flag of {x} is {answer.definite}")


def check_block(x, naive, nb):
    members, _ = naive
    i0 = next((n for n in range(max(x) + 1, 10**6) if (n, n) in members), None)
    require(nb.i0 == i0, f"i0={nb.i0}, least qualifying idempotent is {i0}")
    expected = {y for y in members if y[0] < i0 and y[1] < i0}
    got = {element_of(e) for e in nb.elements}
    require(got == expected, f"block differs from {{y in S : y.k, y.l < {i0}}}: {sorted(got ^ expected)[:4]}")
    require(x in got, "the point is missing from its own block")


def check_cell(t, verdict):
    """Every point of a discrete topology is isolated, so every cell is continuous."""
    require(type(verdict).__name__ == "ContinuousAt", f"discrete cell verdict {type(verdict).__name__}")
    require(len(verdict.modulus) == 1 and verdict.modulus[0][0] == t, f"modulus {verdict.modulus} is not for t={t}")
    require(verdict.modulus[0][1] >= 1, "modulus index must be positive")


def check_verify_output(result, suite):
    """A verify suite run through `cli.main`: exit 0 and only PASS lines."""
    code, text = result[:2]
    require(code == 0, f"verify {suite} exited {code}")
    lines = text.strip().splitlines()
    require(lines and lines[-1].startswith(f"suite {suite}:"), "missing suite summary line")
    require(all(line.startswith("PASS ") for line in lines[:-1]) and len(lines) > 1, "verify printed a non-PASS line")


# --- operations ---------------------------------------------------------------------------


def _desc(gens):
    return bc.FinitelyGenerated(tuple(E(g) for g in gens))


def _fresh_ops(rng, naive):
    """(closure, census) pairs; a census check reads its closure's result."""
    units = []
    # the naive fixpoint of a dense set at bound 16 takes seconds, so those are not sampled
    light = [i for i, (cls, b) in enumerate(FRESH_SLOTS) if b <= 12 or cls != "dense"]
    check_slots = set(rng.sample(light, NAIVE_CHECKS_PER_ROUND))
    for i, (cls, bound) in enumerate(FRESH_SLOTS):
        gens, c = place(rng, class_gens(rng, cls))
        b = bound + c
        elems = [E(g) for g in gens]
        key = f"closure{i}"

        def check_c(result, results, gens=gens, b=b, verify=i in check_slots):
            check_closure(gens, b, result, naive.get(gens, b) if verify else None)

        closure_op = Op("closure", lambda r, elems=elems, b=b: bc.closure(elems, b), check_c, key, f"{cls} {gens} bound={b}")
        desc = _desc(gens)
        census_op = Op(
            "census",
            lambda r, desc=desc, b=b: bc.idempotent_census(desc, b),
            lambda result, results, key=key: check_census(results[key], result),
            None,
            f"{cls} {gens} bound={b}",
        )
        units.append([closure_op, census_op])
    return units


def _query_ops(rng, naive):
    ops = []
    for cls, template, bound in QUERY_FAMILIES:
        gens, c = place(rng, template)
        b = bound + c
        desc = _desc(gens)
        for _ in range(QUERIES_PER_FAMILY):
            x = (rng.randint(0, b), rng.randint(0, b))
            ops.append(
                Op(
                    "membership",
                    lambda r, desc=desc, x=E(x), b=b: bc.membership(desc, x, b),
                    lambda result, results, gens=gens, b=b, x=x: check_membership(x, naive.get(gens, b), result),
                    None,
                    f"{cls} {gens} x={x} bound={b}",
                )
            )
    return ops


def _block_ops(rng, naive):
    ops = []
    for cls, template, bound in BLOCK_FAMILIES:
        gens, c = place(rng, template)
        b = bound + c
        x = min(gens, key=lambda g: (max(g), g))
        ops.append(
            Op(
                "finite_neighborhood",
                lambda r, desc=_desc(gens), x=E(x), b=b: bc.finite_neighborhood(desc, x, b),
                lambda result, results, gens=gens, b=b, x=x: check_block(x, naive.get(gens, b), result),
                None,
                f"{cls} {gens} x={x} bound={b}",
            )
        )
    return ops


def _cell_ops(rng):
    ops = []
    for template, side in CELL_FAMILIES:
        # no diagonal shift: carrier membership runs closures at a fixed bound
        gens, _ = place(rng, template, shift=False)
        top = bc.parse_topology("discrete:gen:" + ",".join(f"b^{k}a^{l}" for k, l in gens))
        pool = gens + [mul(a, b) for a in gens for b in gens if max(mul(a, b)) <= 8]
        s, x = rng.choice(pool), rng.choice(pool)
        while max(mul(s, x) if side != "right" else mul(x, s)) > 16:
            s, x = rng.choice(pool), rng.choice(pool)
        t = rng.randint(1, 3)
        if side == "joint":
            run = lambda r, top=top, s=E(s), x=E(x), t=t: bc.check_joint_at(top, s, x, t)
        else:
            shift = bc.ShiftSide(side)
            run = lambda r, top=top, shift=shift, s=E(s), x=E(x), t=t: bc.check_shift_at(top, shift, s, x, t)
        ops.append(
            Op(
                "discrete_cell",
                run,
                lambda result, results, t=t: check_cell(t, result),
                None,
                f"{side} {gens} s={s} x={x} t={t}",
            )
        )
    return ops


def build(seed: int, round_index: int, ctx):
    rng = rng_for("families", seed, round_index)
    naive = NaiveCache()
    units = _fresh_ops(rng, naive) + [[op] for op in _query_ops(rng, naive) + _block_ops(rng, naive) + _cell_ops(rng)]
    # interleaved: the first queries on a family run slower than the rest, and
    # grouping them would put that step into the latency quantiles
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]
    ops.append(
        Op(
            "verify_prop1",
            lambda r: cli_in_process(["verify", "prop1"]),
            lambda result, results: check_verify_output(result, "prop1"),
            None,
            "verify prop1",
        )
    )
    return ops


def warmup(seed: int, ctx):
    rng = rng_for("families", seed, "warmup")
    naive = NaiveCache()
    gens, c = place(rng, class_gens(rng, "dense"))
    b = 8 + c
    desc = _desc(gens)
    return [
        Op("closure", lambda r: bc.closure([E(g) for g in gens], b), lambda res, rs: check_closure(gens, b, res, naive.get(gens, b))),
        Op("census", lambda r: bc.idempotent_census(desc, b)),
        Op("membership", lambda r: bc.membership(desc, E(gens[0]), b)),
        Op("discrete_cell", lambda r: bc.check_shift_at(bc.Discrete(desc), bc.ShiftSide.LEFT, E(gens[0]), E(gens[1]), 1)),
    ]
