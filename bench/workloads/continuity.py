"""`continuity`: shift and joint continuity cells over four progression topologies.

Each round draws, for each topology and each of the three kinds of cell
(left shift by s at x, right shift, product at (x, y)), PAIRS pairs of
carrier points with exponents up to BOUND, and decides the cell of every
pair for t = 1..T_MAX.  Pairs are drawn independently, so a round samples
the whole sweep rather than the sub-grid of a few points.
Each topology also gets one cell decided through `cli.main` in-process,
as a user of the command line would ask for it.  The round ends with
`find_discontinuity` on both sides of every topology.  One cell is one
operation.  Cells are cheap and many, so `continuity`,
`topology` and `symset` calls dominate; `families` only answers the
closed-form carrier tests.
"""

from __future__ import annotations

import json

import bicyclic as bc

from oracle import atom_has, atom_prefix, atom_upto, element_of, fmt, mul, nbhd_atom, parse_topology, require

from . import Op, cli_in_process, rng_for

TOPOLOGIES = ("padic+:2", "padic-:3", "window:2:0:2", "window:3:1:3")
BOUND = 6
PAIRS = 60
T_MAX = 4
FIND_BOUND = 3
FIND_T_MAX = 3
PREFIX = 8


def carrier_points(top, bound: int):
    """Carrier points with both exponents <= bound, computed from the topology's shape."""
    kind = top[0]
    box = [(k, l) for k in range(bound + 1) for l in range(bound + 1)]
    if kind == "padic+":
        return [e for e in box if e[0] <= e[1]]
    if kind == "padic-":
        return [e for e in box if e[0] >= e[1]]
    _, _, m, n = top
    return [e for e in box if m <= e[0] <= n and e[0] <= e[1]]


# --- checks -------------------------------------------------------------------------------


def _apply(kind, s, x):
    return mul(s, x) if kind == "left" else mul(x, s)


def _in_shift_image(top, kind, s, x, k, e) -> bool:
    """Is e = shift(m) for some m in the k-th neighborhood of x?  Brute scan.

    A shift never lowers the running exponent of m by more than the
    shifting element's exponents, so members beyond that limit cannot
    reach e.
    """
    limit = sum(e) + sum(s) + sum(x)
    return any(_apply(kind, s, m) == e for m in atom_upto(nbhd_atom(top, x, k), limit))


def _in_product_image(top, x, y, k, e) -> bool:
    limit = sum(e) + sum(x) + sum(y)
    ys = list(atom_upto(nbhd_atom(top, y, k), limit))
    return any(mul(m, n) == e for m in atom_upto(nbhd_atom(top, x, k), limit) for n in ys)


def verdict_of(verdict) -> dict:
    """A library verdict in the form of the CLI's JSON verdict."""
    name = type(verdict).__name__
    if name == "ContinuousAt":
        return {"kind": "continuous", "modulus": [list(pair) for pair in verdict.modulus]}
    if name == "DiscontinuousAt":
        return {
            "kind": "discontinuous",
            "target_index": verdict.target_index,
            "counterexamples": [[k, {"k": e.k, "l": e.l}] for k, e in verdict.counterexamples],
        }
    return {"kind": name}


def check_cell(top, kind, a, b, t, verdict):
    """Certificates of one cell.  For shifts (a, b) = (s, x); for joint, (x, y).

    `verdict` is a library verdict or the CLI's JSON form of one.  A
    discontinuity counterexample (k, e) must lie in the k-th source image
    and outside the target.  A modulus (t, k) must map a prefix of the k-th
    source neighborhood into the target.  Window topologies are continuous.
    """
    v = verdict if isinstance(verdict, dict) else verdict_of(verdict)
    require(v["kind"] in ("continuous", "discontinuous"), f"verdict {v['kind']}")
    image = mul(a, b) if kind == "joint" else _apply(kind, a, b)
    target = nbhd_atom(top, image, t)
    if v["kind"] == "discontinuous":
        require(top[0] != "window", "a window topology cell is discontinuous")
        require(v["target_index"] == t and v["counterexamples"], "discontinuity without counterexamples")
        for k, elem in v["counterexamples"]:
            e = (elem["k"], elem["l"])
            require(not atom_has(target, e), f"counterexample {e} lies in the target")
            inside = _in_product_image(top, a, b, k, e) if kind == "joint" else _in_shift_image(top, kind, a, b, k, e)
            require(inside, f"counterexample {e} is not in the image at k={k}")
        return
    ((mt, k),) = v["modulus"]
    require(mt == t and k >= 1, f"modulus {v['modulus']} for t={t}")
    if kind == "joint":
        xs, ys = atom_prefix(nbhd_atom(top, a, k), PREFIX), atom_prefix(nbhd_atom(top, b, k), PREFIX)
        images = [mul(m, n) for m in xs for n in ys]
    else:
        images = [_apply(kind, a, m) for m in atom_prefix(nbhd_atom(top, b, k), PREFIX)]
    require(all(atom_has(target, z) for z in images), f"modulus k={k} maps a source member outside the target")


def check_find(top, side, witness):
    if witness is None:
        return
    require(top[0] != "window", "a discontinuity was found in a window topology")
    check_cell(top, side, element_of(witness.s), element_of(witness.x), witness.t, witness.verdict)


def check_cli_cell(top, kind, a, b, t, result):
    """A cell decided through `cli.main`: exit 0, JSON output, certified verdict."""
    code, out = result[:2]
    require(code == 0, f"exit code {code}")
    check_cell(top, kind, a, b, t, json.loads(out)["verdict"])


# --- operations ----------------------------------------------------------------------------


def _cell_op(top_text, top_obj, top, kind, a, b, t):
    A, B = bc.BicyclicElement(*a), bc.BicyclicElement(*b)
    if kind == "joint":
        run = lambda r: bc.check_joint_at(top_obj, A, B, t)
    else:
        side = bc.ShiftSide(kind)
        run = lambda r: bc.check_shift_at(top_obj, side, A, B, t)
    return Op(
        f"{kind}_cell",
        run,
        lambda result, results: check_cell(top, kind, a, b, t, result),
        None,
        f"{top_text} {kind} {a} {b} t={t}",
    )


def _cli_cell_op(rng, top_text, top):
    """One cell through the command-line front end, in-process, as JSON."""
    points = carrier_points(top, BOUND)
    a, b, t = rng.choice(points), rng.choice(points), rng.randint(1, T_MAX)
    kind = rng.choice(("left", "right", "joint"))
    if kind == "joint":
        argv = ["check-joint", top_text, fmt(a), fmt(b), str(t)]
    else:
        argv = ["check-shift", top_text, "--side", kind, fmt(a), fmt(b), str(t)]
    argv += ["--format", "json"]
    return Op(
        "cli_cell",
        lambda r: cli_in_process(argv),
        lambda result, results: check_cli_cell(top, kind, a, b, t, result),
        None,
        " ".join(argv),
    )


def build(seed: int, round_index: int, ctx):
    """The round's operations, made one at a time: a round holds thousands."""
    rng = rng_for("continuity", seed, round_index)
    for top_text in TOPOLOGIES:
        top_obj, top = bc.parse_topology(top_text), parse_topology(top_text)
        points = carrier_points(top, BOUND)
        for kind in ("left", "right", "joint"):
            for _ in range(PAIRS):
                a, b = rng.choice(points), rng.choice(points)
                for t in range(1, T_MAX + 1):
                    yield _cell_op(top_text, top_obj, top, kind, a, b, t)
        yield _cli_cell_op(rng, top_text, top)
    for top_text in TOPOLOGIES:
        top_obj, top = bc.parse_topology(top_text), parse_topology(top_text)
        for side in ("left", "right"):
            shift = bc.ShiftSide(side)
            yield Op(
                "find_discontinuity",
                lambda r, top_obj=top_obj, shift=shift: bc.find_discontinuity(top_obj, shift, FIND_BOUND, t_max=FIND_T_MAX),
                lambda result, results, top=top, side=side: check_find(top, side, result),
                None,
                f"{top_text} {side}",
            )


def warmup(seed: int, ctx):
    rng = rng_for("continuity", seed, "warmup")
    ops = []
    for top_text in TOPOLOGIES:
        top_obj, top = bc.parse_topology(top_text), parse_topology(top_text)
        a, b = rng.sample(carrier_points(top, BOUND), 2)
        for kind in ("left", "right", "joint"):
            ops.append(_cell_op(top_text, top_obj, top, kind, a, b, 1))
    return ops
