"""Command line front end.

Every subcommand prints either a stable text form or, with --format json,
a JSON document with sorted keys, so repeated invocations on the same
input are byte-identical.  Exit codes: 0 for a successfully answered
query (even when the answer is "false" or "none"), 1 for a verification
suite that ran and failed, 2 for unusable input or violated
preconditions, and 141 (128 + SIGPIPE) when the reader of the output
closed the pipe before it was written.

Beyond `element`, each command imports the layers it uses inside its
handler, and `json` only for --format json, so a process compiles only
the modules its command needs: the element commands load no `symset`
and no `dataclasses`.  The verification suites live in `verify`.

`main` builds a command's parser on its first call in a process and
reuses it on later calls, so an in-process caller pays for argparse once
per command; a shell command still builds only its own subparser.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import lru_cache
from math import log10

from .element import (
    IDENTITY,
    BicyclicElement,
    format_element,
    invert,
    multiply,
    natural_leq_witness,
    parse_element,
    power,
    reduce_word,
    solve_left,
    solve_right,
    word_of,
)

DEFAULT_MAX_EXPONENT = 10**6
# a neighborhood's step p^t may have at most this many decimal digits, the
# most that Python converts to text by default
MAX_STEP_DIGITS = 4300


# --- input helpers -----------------------------------------------------------


def _check_digits(text: str, cap: int, what: str) -> str:
    """Reject a number in the text above the cap, one longer than the cap before int() reads it."""
    for run in re.findall(r"\d+", text):
        if len(run.lstrip("0")) > len(str(cap)) or int(run) > cap:
            raise ValueError(f"{what} {text!r} exceeds --max-exponent {cap}")
    return text


def _element_arg(text: str, cap: int) -> BicyclicElement:
    if text.strip() != "1":  # "1" names the identity, b^0a^0, not an exponent
        _check_digits(text, cap, "element")
    try:
        e = parse_element(text)
    except ValueError:
        e = reduce_word(text)
    if e.k > cap or e.l > cap:
        raise ValueError(f"element {text!r} exceeds --max-exponent {cap}")
    return e


def _symset_arg(text: str, cap: int):
    from .symset import parse_symset

    return parse_symset(_check_digits(text, cap, "set"))


def _descriptor_arg(text: str, cap: int):
    from .families import parse_descriptor

    return parse_descriptor(_check_digits(text, cap, "family"))


@lru_cache(maxsize=256)
def _largest_index(p: int) -> int:
    """The largest t with p^t below 10^MAX_STEP_DIGITS; no power above that is formed.

    Kept for the last 256 primes asked in a process, since it forms numbers
    of about 14,000 bits.
    """
    limit = 10**MAX_STEP_DIGITS
    t = int(MAX_STEP_DIGITS / log10(p))  # off by at most one, settled exactly below
    while p ** (t + 1) < limit:
        t += 1
    while t and p**t >= limit:
        t -= 1
    return t


def _index_arg(top, value, name: str):
    """Reject an index whose neighborhood step p^value would pass MAX_STEP_DIGITS digits."""
    p = getattr(top, "p", None)  # a discrete topology has no step
    if p is not None and value is not None and value > _largest_index(p):
        raise ValueError(
            f"{name} {value} is too large for p = {p}: the step p^{value} would have "
            f"more than {MAX_STEP_DIGITS} decimal digits"
        )
    return value


def _side_arg(text: str):
    from .continuity import ShiftSide

    return ShiftSide.LEFT if text == "left" else ShiftSide.RIGHT


# --- output helpers ----------------------------------------------------------


def _edict(e: BicyclicElement) -> dict:
    return {"k": e.k, "l": e.l, "text": format_element(e)}


def _set_result(s):
    from .symset import format_symset, symset_to_records

    text = format_symset(s)
    return {"set": symset_to_records(s), "text": text}, text, 0


def _verdict_dict(v) -> dict:
    from .continuity import ContinuousAt

    if isinstance(v, ContinuousAt):
        return {"kind": "continuous", "modulus": [[t, k] for t, k in v.modulus]}
    return {
        "kind": "discontinuous",
        "target_index": v.target_index,
        "structural_reason": v.structural_reason,
        "counterexamples": [[k, _edict(e)] for k, e in v.counterexamples],
    }


def _verdict_text(v) -> str:
    from .continuity import ContinuousAt

    if isinstance(v, ContinuousAt):
        pairs = " ".join(f"t={t} k={k}" for t, k in v.modulus)
        return f"continuous {pairs}"
    lines = [f"discontinuous t={v.target_index}", f"reason: {v.structural_reason}"]
    for k, e in v.counterexamples:
        lines.append(f"  k={k} escape={format_element(e)}")
    return "\n".join(lines)


# --- plain commands ----------------------------------------------------------


def _cmd_mul(args):
    acc = IDENTITY
    for text in args.elements:
        acc = multiply(acc, _element_arg(text, args.max_exponent))
    return {"result": _edict(acc)}, format_element(acc), 0


def _cmd_pow(args):
    if args.n > args.max_exponent:
        raise ValueError(f"exponent {args.n} exceeds --max-exponent {args.max_exponent}")
    r = power(_element_arg(args.element, args.max_exponent), args.n)
    return {"result": _edict(r)}, format_element(r), 0


def _cmd_inv(args):
    r = invert(_element_arg(args.element, args.max_exponent))
    return {"result": _edict(r)}, format_element(r), 0


def _cmd_leq(args):
    x = _element_arg(args.x, args.max_exponent)
    y = _element_arg(args.y, args.max_exponent)
    w = natural_leq_witness(x, y)
    payload = {"holds": w is not None, "witness": None if w is None else _edict(w)}
    text = "false" if w is None else f"true witness={format_element(w)}"
    return payload, text, 0


def _cmd_solve(args):
    s = _element_arg(args.factor, args.max_exponent)
    c = _element_arg(args.target, args.max_exponent)
    sols = sorted(solve_left(s, c) if args.side == "left" else solve_right(c, s))
    payload = {"count": len(sols), "solutions": [_edict(e) for e in sols]}
    text = "∅" if not sols else "{" + ", ".join(format_element(e) for e in sols) + "}"
    return payload, text, 0


def _cmd_reduce(args):
    r = reduce_word(args.word)
    if r.k > args.max_exponent or r.l > args.max_exponent:
        raise ValueError(f"reduced word exceeds --max-exponent {args.max_exponent}")
    return {"result": _edict(r), "word": word_of(r)}, format_element(r), 0


def _cmd_enumerate(args):
    from .families import enumerate_members, format_descriptor

    desc = _descriptor_arg(args.descriptor, args.max_exponent)
    mem = enumerate_members(desc, args.bound)
    payload = {
        "descriptor": format_descriptor(desc),
        "bound": args.bound,
        "count": len(mem),
        "members": [_edict(e) for e in mem],
    }
    return payload, "\n".join(format_element(e) for e in mem), 0


def _cmd_closure(args):
    from .families import closure

    gens = [_element_arg(t, args.max_exponent) for t in args.generators]
    result = closure(gens, args.bound)
    mem = sorted(result.members)
    payload = {
        "bound": args.bound,
        "saturated": result.saturated,
        "count": len(mem),
        "members": [_edict(e) for e in mem],
    }
    text = f"saturated={str(result.saturated).lower()} count={len(mem)}\n" + "\n".join(
        format_element(e) for e in mem
    )
    return payload, text, 0


def _cmd_census(args):
    from .families import format_descriptor, idempotent_census

    desc = _descriptor_arg(args.descriptor, args.max_exponent)
    r = idempotent_census(desc, args.bound)
    payload = {
        "descriptor": format_descriptor(desc),
        "bound": args.bound,
        "count": r.count,
        "verdict": r.verdict.value,
        "witness": None if r.witness is None else [_edict(e) for e in r.witness],
        "note": r.note,
    }
    text = f"count={r.count} verdict={r.verdict.value}"
    if r.witness is not None:
        text += f" witness={format_element(r.witness[0])},{format_element(r.witness[1])}"
    text += f" note={r.note}"
    return payload, text, 0


def _cmd_prop1_family(args):
    from .families import idempotent_family

    u = _element_arg(args.u, args.max_exponent)
    v = _element_arg(args.v, args.max_exponent)
    fam = idempotent_family(u, v, prefix=args.count)
    payload = {
        "offset": fam.offset,
        "step": fam.step,
        "members": [_edict(e) for e in fam.first(args.count)],
        "checks": [
            {
                "p": c.p,
                "u_power": _edict(c.u_power),
                "v_power": _edict(c.v_power),
                "product_uv": _edict(c.product_uv),
                "product_vu": _edict(c.product_vu),
                "member": _edict(c.member),
            }
            for c in fam.checks
        ],
    }
    lines = [f"offset={fam.offset} step={fam.step}"]
    for c in fam.checks:
        lines.append(
            f"p={c.p} u_power={format_element(c.u_power)} v_power={format_element(c.v_power)} "
            f"uv={format_element(c.product_uv)} vu={format_element(c.product_vu)} "
            f"member={format_element(c.member)}"
        )
    return payload, "\n".join(lines), 0


def _cmd_thm1_nbhd(args):
    from .families import finite_neighborhood, format_descriptor

    desc = _descriptor_arg(args.descriptor, args.max_exponent)
    x = _element_arg(args.element, args.max_exponent)
    nb = finite_neighborhood(desc, x, args.bound)
    elems = sorted(nb.elements)
    payload = {
        "descriptor": format_descriptor(desc),
        "i0": nb.i0,
        "size": len(elems),
        "elements": [_edict(e) for e in elems],
    }
    text = f"i0={nb.i0} size={len(elems)}\n" + " ".join(format_element(e) for e in elems)
    return payload, text, 0


def _cmd_nbhd(args):
    from .topology import basic_nbhd, parse_topology

    top = parse_topology(args.topology, cap=args.max_exponent)
    x = _element_arg(args.element, args.max_exponent)
    return _set_result(basic_nbhd(top, x, _index_arg(top, args.index, "index")))


def _cmd_image(args):
    from .symset import left_image, right_image

    s = _element_arg(args.element, args.max_exponent)
    sets = _symset_arg(args.set, args.max_exponent)
    return _set_result(left_image(s, sets) if args.side == "left" else right_image(sets, s))


def _cmd_product(args):
    from .symset import product

    a = _symset_arg(args.left, args.max_exponent)
    b = _symset_arg(args.right, args.max_exponent)
    return _set_result(product(a, b))


def _cmd_subset(args):
    from .symset import subset

    a = _symset_arg(args.left, args.max_exponent)
    b = _symset_arg(args.right, args.max_exponent)
    w = subset(a, b)
    payload = {
        "holds": w.holds,
        "counterexample": None if w.counterexample is None else _edict(w.counterexample),
        "covering_bound": w.covering_bound,
    }
    if w.holds:
        text = f"true covering_bound={w.covering_bound}"
    else:
        text = f"false counterexample={format_element(w.counterexample)}"
    return payload, text, 0


def _cmd_check_shift(args):
    from .continuity import check_shift_at
    from .topology import parse_topology

    top = parse_topology(args.topology, cap=args.max_exponent)
    s = _element_arg(args.shift, args.max_exponent)
    x = _element_arg(args.point, args.max_exponent)
    t = _index_arg(top, args.t, "t")
    v = check_shift_at(top, _side_arg(args.side), s, x, t)
    return {"verdict": _verdict_dict(v)}, _verdict_text(v), 0


def _cmd_check_joint(args):
    from .continuity import _joint_with_equality
    from .topology import parse_topology

    top = parse_topology(args.topology, cap=args.max_exponent)
    x = _element_arg(args.x, args.max_exponent)
    y = _element_arg(args.y, args.max_exponent)
    v, equal = _joint_with_equality(top, x, y, _index_arg(top, args.t, "t"))
    payload = {"verdict": _verdict_dict(v)}
    text = _verdict_text(v)
    if equal is not None:
        payload["equality"] = equal
        text += f" equality={str(equal).lower()}"
    return payload, text, 0


def _cmd_find_discontinuity(args):
    if args.t_max is not None and args.t_max < 1:
        raise ValueError(f"--t-max must be at least 1, got {args.t_max}")
    from .continuity import find_discontinuity
    from .topology import parse_topology

    top = parse_topology(args.topology, cap=args.max_exponent)
    t_max = _index_arg(top, args.t_max, "--t-max")
    w = find_discontinuity(top, _side_arg(args.side), args.bound, t_max=t_max)
    if w is None:
        return {"found": False, "witness": None}, "none", 0
    payload = {
        "found": True,
        "witness": {
            "s": _edict(w.s),
            "x": _edict(w.x),
            "t": w.t,
            "verdict": _verdict_dict(w.verdict),
        },
    }
    text = (
        f"found s={format_element(w.s)} x={format_element(w.x)} t={w.t}\n"
        f"reason: {w.verdict.structural_reason}"
    )
    return payload, text, 0


# --- verification suites -------------------------------------------------------

# the sorted keys of `verify.SUITES`, spelled out so that only `verify` loads the suites
SUITE_NAMES = ("core-oracle", "hausdorff", "prop1", "prop2", "thm1", "thm2")


def _cmd_verify(args):
    from .verify import SUITES

    if args.suite == "prop2":
        for name in ("p", "m", "n"):
            if getattr(args, name) > args.max_exponent:
                raise ValueError(f"--{name} exceeds --max-exponent {args.max_exponent}")
        checks = SUITES["prop2"](args.bound, p=args.p, m=args.m, n=args.n)
    else:
        checks = SUITES[args.suite](args.bound)
    passed = all(ok for _, ok in checks)
    lines = [("PASS " if ok else "FAIL ") + label for label, ok in checks]
    n_ok = sum(1 for _, ok in checks if ok)
    lines.append(f"suite {args.suite}: {n_ok}/{len(checks)} checks passed")
    payload = {
        "suite": args.suite,
        "passed": passed,
        "total": len(checks),
        "failed": len(checks) - n_ok,
        "checks": [{"label": label, "passed": ok} for label, ok in checks],
    }
    return payload, "\n".join(lines), 0 if passed else 1


# --- parser -------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


_SIDE = _arg("--side", choices=("left", "right"), required=True)

# name -> (help, handler, arguments), in the order the top-level help lists them
_COMMANDS = {
    "mul": (
        "multiply elements left to right",
        _cmd_mul,
        [_arg("elements", nargs="+", help="elements like b^2a^3, words like bba, or 1")],
    ),
    "pow": ("raise an element to a positive power", _cmd_pow, [_arg("element"), _arg("n", type=int)]),
    "inv": ("the inverse partner of an element", _cmd_inv, [_arg("element")]),
    "leq": ("natural partial order with witness", _cmd_leq, [_arg("x"), _arg("y")]),
    "solve": (
        "solution set of a one-sided equation",
        _cmd_solve,
        [
            _arg("--side", choices=("left", "right"), required=True,
                 help="left: factor*X = target, right: X*factor = target"),
            _arg("factor"),
            _arg("target"),
        ],
    ),
    "reduce": ("normal form of a generator word", _cmd_reduce, [_arg("word")]),
    "enumerate": (
        "members of a family up to a bound",
        _cmd_enumerate,
        [_arg("descriptor"), _arg("--bound", type=int, required=True)],
    ),
    "closure": (
        "bounded product closure of generators",
        _cmd_closure,
        [_arg("generators", nargs="+"), _arg("--bound", type=int, required=True)],
    ),
    "census": (
        "idempotent count and classification",
        _cmd_census,
        [_arg("descriptor"), _arg("--bound", type=int, default=8)],
    ),
    "prop1-family": (
        "idempotent family generated by a strict pair",
        _cmd_prop1_family,
        [
            _arg("u", help="strictly upper element, k < l"),
            _arg("v", help="strictly lower element, k > l"),
            _arg("--count", type=int, default=5),
        ],
    ),
    "thm1-nbhd": (
        "finite neighborhood block inside a family",
        _cmd_thm1_nbhd,
        [_arg("descriptor"), _arg("element"), _arg("--bound", type=int, default=12)],
    ),
    "nbhd": (
        "basic neighborhood in a topology",
        _cmd_nbhd,
        [_arg("topology"), _arg("element"), _arg("index", type=int)],
    ),
    "image": ("translate a set by an element", _cmd_image, [_SIDE, _arg("element"), _arg("set")]),
    "product": ("elementwise product of two sets", _cmd_product, [_arg("left"), _arg("right")]),
    "subset": ("exact subset test with witness", _cmd_subset, [_arg("left"), _arg("right")]),
    "check-shift": (
        "continuity of one shift at a point",
        _cmd_check_shift,
        [_arg("topology"), _SIDE, _arg("shift"), _arg("point"), _arg("t", type=int)],
    ),
    "check-joint": (
        "joint continuity of multiplication at a pair",
        _cmd_check_joint,
        [_arg("topology"), _arg("x"), _arg("y"), _arg("t", type=int)],
    ),
    "find-discontinuity": (
        "first certified shift discontinuity",
        _cmd_find_discontinuity,
        [
            _arg("topology"),
            _SIDE,
            _arg("--bound", type=int, required=True),
            _arg("--t-max", type=int, default=None),
        ],
    ),
    "verify": (
        "run a named verification suite",
        _cmd_verify,
        [
            _arg("suite", choices=SUITE_NAMES),
            _arg("--bound", type=int, default=None, help="read by hausdorff, prop2, thm1 and thm2 only"),
            _arg("--p", type=int, default=2, help="prime for the prop2 window sweep"),
            _arg("--m", type=int, default=0, help="first window row for prop2"),
            _arg("--n", type=int, default=2, help="last window row for prop2"),
        ],
    ),
}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with only `command`'s subparser when it names one, else with all.

    A process parses one command line, so a named command needs no other
    subparser; help, a missing command and an unknown one list them all.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output encoding"
    )
    common.add_argument(
        "--max-exponent",
        type=int,
        default=DEFAULT_MAX_EXPONENT,
        help="reject parsed elements with larger exponents",
    )

    parser = argparse.ArgumentParser(
        prog="bicyclic", description="exact computations in the bicyclic monoid"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


# a command name, or None for the parser with every subparser -> that parser
_PARSERS = {}


def _parser(command) -> argparse.ArgumentParser:
    """`_build_parser(command)`, built on the first call for that command in this process."""
    key = command if command in _COMMANDS else None
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = _build_parser(key)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv else None).parse_args(argv)
    try:
        payload, text, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json

        text = json.dumps(payload, sort_keys=True)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (say `| head`): send what is still buffered to
        # devnull, so the flush at shutdown stays quiet, and exit as a
        # process that SIGPIPE ended would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
