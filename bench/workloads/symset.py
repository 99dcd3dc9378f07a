"""`symset`: set algebra whose results have hundreds of atoms.

Each round builds, from the seed:

  * products of two row tails (and, mirrored, of two column tails) whose
    steps d1, d2 are coprime; the tail part of the product flattens
    through the numerical semigroup <d1, d2>, which has (d1-1)(d2-1)/2
    gaps, one point atom each;
  * left images of column tails and right images of row tails by an
    element whose exponent reaches SPLIT steps into the tail, so the low
    members collapse to SPLIT point atoms;
  * unions of two row products whose tails lie in different rows (product
    i has its tail in row i mod 4), `subset`
    of one of them in the union (true) and in the other (false), and
    `intersection_empty` of the two.

Right images go through `continuity.shift_image`, the public call for the
image of a set under a shift.  Two operations per round go through
`cli.main` in-process: a large left image, and a basic neighborhood of
padic-:3, as a user of the command line would ask for them.

The sizes are drawn from narrow ranges so every round costs about the
same.  Column tails are never multiplied on the left of row tails: that
product is documented as unrepresentable.
"""

from __future__ import annotations

import json
from math import gcd

import bicyclic as bc

from oracle import (
    atom_from_record,
    atom_has,
    atom_member,
    atom_prefix,
    atom_upto,
    atoms_meet,
    atoms_of,
    fmt,
    mul,
    nbhd_atom,
    parse_topology,
    require,
    set_has,
)

from . import Op, cli_in_process, rng_for

GAPS = (175, 205)  # gap count of <d1, d2> for products
SPLIT = (175, 205)  # point atoms split off a tail by an image
ROW_PRODUCTS = 10
COL_PRODUCTS = 4
LEFT_IMAGES = 8
RIGHT_IMAGES = 8
# the largest operations; 16 of 96 put the 90th percentile inside their group,
# where it is steadier than at the group's lower edge (as with 8 of 64)
UNIONS = 16
SAMPLES = 12
STEP_PAIRS = tuple(
    (d1, d2)
    for d1 in range(2, 60)
    for d2 in range(d1 + 1, 60)
    if gcd(d1, d2) == 1 and GAPS[0] <= (d1 - 1) * (d2 - 1) // 2 <= GAPS[1]
)


def _tail(kind: str, fixed: int, base: int, step: int):
    return bc.RowTail(fixed, base, step) if kind == "row" else bc.ColTail(fixed, base, step)


def _symset(*atoms):
    return bc.SymSet(tuple(atoms))


# --- checks ----------------------------------------------------------------------------------


def _members(atoms, rng, count):
    """A sample of members: every single, and early and random members of every tail."""
    out = []
    for atom in atoms:
        out.extend(atom_prefix(atom, 3))
        if atom[0] != "single":
            out.extend(atom_member(atom, rng.randint(3, 60)) for _ in range(2))
    return rng.sample(out, min(count, len(out)))


def _atom_right_factor(x, atom, z):
    """The y in the atom with x*y = z, solved by progression arithmetic, or None."""
    if atom[0] == "single":
        y = (atom[1], atom[2])
        return y if mul(x, y) == z else None
    if atom[0] == "row":
        r = atom[1]
        cancel = min(x[1], r)
        if x[0] + r - cancel != z[0]:
            return None
        y = (r, z[1] - x[1] + cancel)
    else:
        c = atom[1]
        if z[0] == x[0]:
            y = (x[1] + c - z[1], c)  # the b's of y all cancel
        else:
            y = (z[0] - x[0] + x[1], c)
        if y[0] < 0:
            return None
    return y if atom_has(atom, y) and mul(x, y) == z else None


def has_product_preimage(a_atoms, b_atoms, z) -> bool:
    """Is z = x*y with x in a and y in b?  Scans x; y follows by arithmetic.

    x*y keeps x's first exponent or raises it, and for row tails of b the
    second exponent of x exceeds z's by at most b's row, so members of a
    past that limit cannot take part.
    """
    limit = z[0] + z[1] + max(max(a[1:3]) for a in b_atoms) + 1
    return any(
        _atom_right_factor(x, b, z) is not None
        for a in a_atoms
        for x in atom_upto(a, limit)
        for b in b_atoms
    )


def has_image_preimage(side, s, atoms, z) -> bool:
    limit = z[0] + z[1] + s[0] + s[1]
    for atom in atoms:
        for m in atom_upto(atom, limit):
            if (mul(s, m) if side == "left" else mul(m, s)) == z:
                return True
    return False


def check_product(a, b, result, rng):
    a_atoms, b_atoms, out = atoms_of(a), atoms_of(b), atoms_of(result)
    xs, ys = _members(a_atoms, rng, SAMPLES), _members(b_atoms, rng, SAMPLES)
    for x, y in zip(xs, ys):
        require(set_has(out, mul(x, y)), f"product {x}*{y} missing from the result")
    for z in _members(out, rng, SAMPLES):
        require(has_product_preimage(a_atoms, b_atoms, z), f"result member {z} has no preimage")


def check_image(side, s, sets, result, rng):
    """`result` is a library set, or the atom list read off the CLI's JSON."""
    atoms = atoms_of(sets)
    out = result if isinstance(result, list) else atoms_of(result)
    for m in _members(atoms, rng, SAMPLES):
        z = mul(s, m) if side == "left" else mul(m, s)
        require(set_has(out, z), f"{side} image of {m} missing from the result")
    for z in _members(out, rng, SAMPLES):
        require(has_image_preimage(side, s, atoms, z), f"result member {z} has no preimage")


def check_union(parts, result, rng):
    out = atoms_of(result)
    inputs = [atoms_of(p) for p in parts]
    for atoms in inputs:
        for z in _members(atoms, rng, SAMPLES):
            require(set_has(out, z), f"union lost {z}")
    for z in _members(out, rng, SAMPLES):
        require(any(set_has(atoms, z) for atoms in inputs), f"union invented {z}")


def check_subset(a, b, witness, rng, expected=None):
    a_atoms, b_atoms = atoms_of(a), atoms_of(b)
    if expected is not None:
        require(witness.holds == expected, f"subset verdict {witness.holds}, expected {expected}")
    if witness.holds:
        bound = witness.covering_bound
        for atom in a_atoms:
            for z in atom_upto(atom, bound):
                require(set_has(b_atoms, z), f"certificate bound {bound} but {z} is missing")
        return
    z = (witness.counterexample.k, witness.counterexample.l)
    require(set_has(a_atoms, z) and not set_has(b_atoms, z), f"counterexample {z} does not separate the sets")


def cli_json(result):
    code, out = result[:2]
    require(code == 0, f"exit code {code}")
    return json.loads(out)


def check_cli_image(s, sets, result, rng):
    doc = cli_json(result)
    check_image("left", s, sets, [atom_from_record(r) for r in doc["set"]], rng)


def check_cli_nbhd(top, x, idx, result):
    doc = cli_json(result)
    got = [atom_from_record(r) for r in doc["set"]]
    require(got == [nbhd_atom(top, x, idx)], f"neighborhood {got} of {x} at {idx}")


def check_disjoint(a, b, verdict):
    meet = next(
        (m for x in atoms_of(a) for y in atoms_of(b) if (m := atoms_meet(x, y)) is not None), None
    )
    require(verdict == (meet is None), f"intersection_empty={verdict} but common member {meet}")


# --- operations -----------------------------------------------------------------------------------


def _product_inputs(rng, kind, row):
    d1, d2 = rng.choice(STEP_PAIRS)
    if rng.random() < 0.5:
        d1, d2 = d2, d1
    x = _tail(kind, row, rng.randint(0, 5), d1)
    y = _tail(kind, rng.randint(0, 3), rng.randint(0, 5), d2)
    # column tails multiply in the mirrored order, so both orders stay representable
    return (_symset(x), _symset(y)) if kind == "row" else (_symset(y), _symset(x))


def _image_inputs(rng, side):
    step, base, fixed = rng.randint(1, 3), rng.randint(0, 5), rng.randint(0, 4)
    reach = base + step * rng.randint(*SPLIT)
    other = rng.randint(0, 5)
    if side == "left":
        return (other, reach), _symset(_tail("col", fixed, base, step))
    return (reach, other), _symset(_tail("row", fixed, base, step))


def _cli_ops(rng, check_rng):
    s, sets = _image_inputs(rng, "left")
    (atom,) = sets.atoms
    set_text = f"{{b^({atom.base}+{atom.step}t) a^{atom.col}}}"
    image_argv = ["image", "--side", "left", fmt(s), set_text]
    top_text = "padic-:3"
    x = (rng.randint(0, 40), rng.randint(0, 40))
    x = (max(x), min(x))  # the carrier of padic- is k >= l
    idx = rng.randint(1, 6)
    nbhd_argv = ["nbhd", top_text, fmt(x), str(idx)]
    return [
        Op(
            "cli_image",
            lambda r: cli_in_process(image_argv + ["--format", "json"]),
            lambda result, results: check_cli_image(s, sets, result, check_rng),
            None,
            " ".join(image_argv),
        ),
        Op(
            "cli_nbhd",
            lambda r: cli_in_process(nbhd_argv + ["--format", "json"]),
            lambda result, results: check_cli_nbhd(parse_topology(top_text), x, idx, result),
            None,
            " ".join(nbhd_argv),
        ),
    ]


def build(seed: int, round_index: int, ctx):
    rng = rng_for("symset", seed, round_index)
    check_rng = rng_for("symset-check", seed, round_index)
    ops = []
    rows = {}  # key of a row product -> the row its tail part lies in
    for i in range(ROW_PRODUCTS + COL_PRODUCTS):
        kind = "row" if i < ROW_PRODUCTS else "col"
        row = i % 4
        a, b = _product_inputs(rng, kind, row)
        key = f"product{i}"
        if kind == "row":
            rows[key] = row
        ops.append(
            Op(
                "product",
                lambda r, a=a, b=b: bc.product(a, b),
                lambda result, results, a=a, b=b: check_product(a, b, result, check_rng),
                key,
                f"{kind} {a} {b}",
            )
        )
    for side, count in (("left", LEFT_IMAGES), ("right", RIGHT_IMAGES)):
        for _ in range(count):
            s, sets = _image_inputs(rng, side)
            S = bc.BicyclicElement(*s)
            run = (lambda r, S=S, sets=sets: bc.left_image(S, sets)) if side == "left" else (
                lambda r, S=S, sets=sets: bc.shift_image(bc.ShiftSide.RIGHT, S, sets)
            )
            ops.append(
                Op(
                    f"{side}_image",
                    run,
                    lambda result, results, side=side, s=s, sets=sets: check_image(side, s, sets, result, check_rng),
                    None,
                    f"{side} {s} {sets}",
                )
            )
    ops += _cli_ops(rng, check_rng)
    keys = sorted(rows)
    pairs = rng.sample([(p, q) for p in keys for q in keys if p < q and rows[p] != rows[q]], UNIONS)
    for i, (p, q) in enumerate(pairs):
        ops.append(
            Op(
                "union",
                lambda r, p=p, q=q: bc.union(r[p], r[q]),
                lambda result, results, p=p, q=q: check_union([results[p], results[q]], result, check_rng),
                f"union{i}",
                f"{p} {q}",
            )
        )
    for i, (p, q) in enumerate(pairs):
        ops.append(
            Op(
                "subset",
                lambda r, p=p, i=i: bc.subset(r[p], r[f"union{i}"]),
                lambda result, results, p=p, i=i: check_subset(results[p], results[f"union{i}"], result, check_rng, True),
                None,
                f"{p} in union{i}",
            )
        )
        ops.append(
            Op(
                "subset",
                lambda r, p=p, q=q: bc.subset(r[p], r[q]),
                lambda result, results, p=p, q=q: check_subset(results[p], results[q], result, check_rng),
                None,
                f"{p} in {q}",
            )
        )
        ops.append(
            Op(
                "intersection_empty",
                lambda r, p=p, q=q: bc.intersection_empty(r[p], r[q]),
                lambda result, results, p=p, q=q: check_disjoint(results[p], results[q], result),
                None,
                f"{p} meets {q}",
            )
        )
    return ops


def warmup(seed: int, ctx):
    rng = rng_for("symset", seed, "warmup")
    a, b = _product_inputs(rng, "row", 0)
    s, sets = _image_inputs(rng, "left")
    return [
        Op("product", lambda r: bc.product(a, b)),
        Op("left_image", lambda r: bc.left_image(bc.BicyclicElement(*s), sets)),
    ]
