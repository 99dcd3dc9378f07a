"""`cli`: a corpus of `bicyclic` command lines, each in a fresh interpreter.

Every command runs twice, in text and with `--format json`.  The corpus
holds the README examples (pinned below with the output the README shows),
the verify suites core-oracle, thm1, thm2 and hausdorff (prop2 is a
README example), and seeded arithmetic, set, neighborhood, census and
continuity commands.  What a shell user pays per command is interpreter
start, import, argument parsing and output formatting; no in-process
workload sees those costs.

The untraced run starts `python3 -m bicyclic` per command, with `src/`
on PYTHONPATH.  The traced run calls `bicyclic.cli.main` in-process on the
same corpus, so the tracer sees inside it.
"""

from __future__ import annotations

import json
import subprocess
import sys

from oracle import (
    CheckFailed,
    KnownFault,
    fmt,
    inv,
    mul,
    mul_word,
    natural_leq,
    parse_topology,
    power,
    reduce_letters,
    require,
    solve_left,
    solve_right,
)

from . import Op, child_env, cli_in_process, rng_for
from .continuity import check_cell

RUNS_IN_CHILDREN = True


def expect_suite(doc):
    require(doc["passed"] and doc["failed"] == 0, f"verify {doc['suite']} failed")
    require(all(c["passed"] for c in doc["checks"]), f"verify {doc['suite']} has a FAIL line")


def expect_readme_cell(doc):
    """The README's check-shift example: every counterexample is certified."""
    check_cell(parse_topology("padic+:2"), "right", (1, 1), (0, 0), 1, doc["verdict"])


# (argv, text the README shows, check of the JSON answer); the JSON mul
# example is the only one the README shows in JSON
README = (
    (["mul", "b^2a^3", "b^5a^1"], "b^4a^1", None),
    (["solve", "--side", "left", "b^0a^2", "b^0a^2"], "{b^0a^0, b^1a^1, b^2a^2}", None),
    (["census", "full", "--bound", "6"],
     "count=7 verdict=infinite witness=b^0a^1,b^1a^0 note=strict pair generates an infinite diagonal family", None),
    (["thm1-nbhd", "full", "b^1a^2", "--bound", "10"],
     "i0=3 size=9\nb^0a^0 b^0a^1 b^0a^2 b^1a^0 b^1a^1 b^1a^2 b^2a^0 b^2a^1 b^2a^2", None),
    (["nbhd", "padic+:2", "b^1a^3", "2"], "{b^1 a^(3+4t)}", None),
    (["check-shift", "padic+:2", "--side", "right", "b^1a^1", "b^0a^0", "1"],
     "discontinuous t=1\n"
     "reason: the image always contains a tail along row 0, but target neighborhoods live along row 1\n"
     "  k=1 escape=b^0a^2\n"
     "  k=2 escape=b^0a^4",
     expect_readme_cell),
    (["verify", "prop2", "--p", "2", "--m", "0", "--n", "2", "--bound", "6"], None, expect_suite),
)
# the README shows k=1 and k=2; the command prints counterexamples for k = 1..4
ABRIDGED = "check-shift padic+:2 --side right b^1a^1 b^0a^0 1"
ABRIDGED_PRINTS = README[5][1] + "\n  k=3 escape=b^0a^8\n  k=4 escape=b^0a^16"
README_JSON_TEXT = '{"result": {"k": 4, "l": 1, "text": "b^4a^1"}}'  # mul b^2a^3 b^5a^1 --format json
SUITES = ("core-oracle", "thm1", "thm2", "hausdorff")


# --- running a command ---------------------------------------------------------------------


def runner(ctx):
    """A function argv -> (exit code, stdout, stderr) for this run's mode."""
    if ctx.traced:
        return cli_in_process
    env = child_env(ctx.root)

    def in_child(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "bicyclic", *argv], env=env, cwd=ctx.root, capture_output=True, text=True
        )
        return proc.returncode, proc.stdout, proc.stderr

    return in_child


# --- the text form, rendered from the JSON form ------------------------------------------------


def _verdict_text(v) -> str:
    if v["kind"] == "continuous":
        return "continuous " + " ".join(f"t={t} k={k}" for t, k in v["modulus"])
    lines = [f"discontinuous t={v['target_index']}", f"reason: {v['structural_reason']}"]
    lines += [f"  k={k} escape={e['text']}" for k, e in v["counterexamples"]]
    return "\n".join(lines)


def render_text(command: str, doc: dict) -> str:
    """The text a command prints, rebuilt from its JSON document."""
    texts = lambda items: [e["text"] for e in items]
    if command in ("mul", "pow", "inv", "reduce"):
        return doc["result"]["text"]
    if command == "leq":
        return f"true witness={doc['witness']['text']}" if doc["holds"] else "false"
    if command == "solve":
        return "{" + ", ".join(texts(doc["solutions"])) + "}" if doc["solutions"] else "∅"
    if command == "enumerate":
        return "\n".join(texts(doc["members"]))
    if command == "closure":
        return f"saturated={str(doc['saturated']).lower()} count={doc['count']}\n" + "\n".join(texts(doc["members"]))
    if command == "census":
        text = f"count={doc['count']} verdict={doc['verdict']}"
        if doc["witness"] is not None:
            text += " witness=" + ",".join(texts(doc["witness"]))
        return text + f" note={doc['note']}"
    if command == "prop1-family":
        lines = [f"offset={doc['offset']} step={doc['step']}"]
        for c in doc["checks"]:
            lines.append(
                f"p={c['p']} u_power={c['u_power']['text']} v_power={c['v_power']['text']} "
                f"uv={c['product_uv']['text']} vu={c['product_vu']['text']} member={c['member']['text']}"
            )
        return "\n".join(lines)
    if command == "thm1-nbhd":
        return f"i0={doc['i0']} size={doc['size']}\n" + " ".join(texts(doc["elements"]))
    if command in ("nbhd", "image", "product"):
        return doc["text"]
    if command == "subset":
        if doc["holds"]:
            return f"true covering_bound={doc['covering_bound']}"
        return f"false counterexample={doc['counterexample']['text']}"
    if command == "check-shift":
        return _verdict_text(doc["verdict"])
    if command == "check-joint":
        text = _verdict_text(doc["verdict"])
        if "equality" in doc:
            text += f" equality={str(doc['equality']).lower()}"
        return text
    if command == "find-discontinuity":
        if not doc["found"]:
            return "none"
        w = doc["witness"]
        return f"found s={w['s']['text']} x={w['x']['text']} t={w['t']}\nreason: {w['verdict']['structural_reason']}"
    if command == "verify":
        lines = [("PASS " if c["passed"] else "FAIL ") + c["label"] for c in doc["checks"]]
        return "\n".join(lines + [f"suite {doc['suite']}: {doc['total'] - doc['failed']}/{doc['total']} checks passed"])
    raise ValueError(f"no text form known for {command}")


# --- checks ---------------------------------------------------------------------------------------


def check_ran(result):
    code, out, err = result
    require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
    require(out.endswith("\n"), "output does not end with a newline")


def check_json(result) -> dict:
    check_ran(result)
    try:
        return json.loads(result[1])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def check_pair(argv, text_result, json_result, expect=None):
    """Text and JSON forms agree; `expect(doc)` checks the answer itself."""
    check_ran(text_result)
    doc = check_json(json_result)
    text = text_result[1].rstrip("\n")
    require(text == render_text(argv[0], doc), f"text and JSON forms of {argv} disagree")
    if expect is not None:
        expect(doc)


def expect_text(argv, text_result, expected):
    """A text run exits 0; a README example prints the README's text exactly,
    except that the known abridged example prints its four escape lines."""
    check_ran(text_result)
    if expected is None:
        return
    printed = text_result[1].rstrip("\n")
    if printed == expected:
        return
    if " ".join(argv) == ABRIDGED and printed == ABRIDGED_PRINTS:
        raise KnownFault("the README shows the first two escape lines of four")
    raise CheckFailed(f"{argv} does not print what the README shows")


def expect_readme_json(result):
    require(result[1].rstrip("\n") == README_JSON_TEXT, "mul --format json does not print what the README shows")


def _el(doc_element):
    return (doc_element["k"], doc_element["l"])


def _expect_element(value):
    def expect(doc):
        require(_el(doc["result"]) == value, f"result {doc['result']['text']}, expected {fmt(value)}")

    return expect


def _expect_solutions(values):
    def expect(doc):
        got = {_el(e) for e in doc["solutions"]}
        require(got == values and doc["count"] == len(values), f"solutions {sorted(got)}, expected {sorted(values)}")

    return expect


def _expect_leq(holds, x, y):
    def expect(doc):
        require(doc["holds"] == holds, f"leq {x} {y}: {doc['holds']}, expected {holds}")
        if holds:
            e = _el(doc["witness"])
            require(e[0] == e[1] and mul(y, e) == x, f"witness {e} does not give {x} = {y}*e")

    return expect


# --- the corpus ---------------------------------------------------------------------------------------


def _element(rng, top=6):
    return (rng.randint(0, top), rng.randint(0, top))


def _word(rng):
    return "".join(rng.choice("abpq") for _ in range(rng.randint(6, 14)))


def seeded_commands(rng):
    """(argv, expect) pairs whose arguments come from the seed."""
    x, y, z = _element(rng), _element(rng), _element(rng)
    base, n = _element(rng, 4), rng.randint(2, 9)
    a, hidden = _element(rng, 4), _element(rng, 4)
    c = mul(a, hidden)
    e = rng.randint(0, 5)
    leq_y = _element(rng)
    leq_x = mul(leq_y, (e, e)) if rng.random() < 0.5 else _element(rng)
    word = _word(rng)
    i, k, j, l = rng.randint(0, 2), rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3)
    u, v = (i, i + k), (j + l, j)
    gens = [_element(rng, 3) for _ in range(2)]
    col, cbase, cstep = rng.randint(0, 4), rng.randint(0, 3), rng.randint(1, 3)
    shift = (rng.randint(0, 4), cbase + cstep * rng.randint(2, 8))
    r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
    d1, d2 = rng.choice(((2, 3), (3, 4), (3, 5), (4, 5), (2, 5)))
    row, rbase = rng.randint(0, 3), rng.randint(0, 4)
    px, py = (rng.randint(0, 2), rng.randint(0, 6)), (rng.randint(0, 2), rng.randint(0, 6))
    px, py = (px[0], max(px)), (py[0], max(py))  # window:2:0:2 carrier: rows 0..2, k <= l
    fam = ",".join(fmt(g) for g in gens)
    return [
        (["mul", fmt(x), fmt(y), fmt(z)], _expect_element(mul_word(x, y, z))),
        (["pow", fmt(base), str(n)], _expect_element(power(base, n))),
        (["inv", fmt(x)], _expect_element(inv(x))),
        (["leq", fmt(leq_x), fmt(leq_y)], _expect_leq(natural_leq(leq_x, leq_y), leq_x, leq_y)),
        (["solve", "--side", "left", fmt(a), fmt(c)], _expect_solutions(solve_left(a, c))),
        (["solve", "--side", "right", fmt(hidden), fmt(c)], _expect_solutions(solve_right(c, hidden))),
        (["reduce", word], _expect_element(reduce_letters(word))),
        (["closure", *map(fmt, gens), "--bound", "8"], None),
        (["census", f"gen:{fam}", "--bound", "8"], None),
        (["prop1-family", fmt(u), fmt(v), "--count", "4"], None),
        (["image", "--side", "left", fmt(shift), f"{{b^({cbase}+{cstep}t) a^{col}}}"], None),
        (["product", f"{{b^{r1} a^(1+{d1}t)}}", f"{{b^{r2} a^(2+{d2}t)}}"], None),
        (["subset", f"{{b^{row} a^({rbase}+{2 * d1}t)}}", f"{{b^{row} a^({rbase}+{d1}t)}}"], None),
        (["check-joint", "window:2:0:2", fmt(px), fmt(py), str(rng.randint(1, 3))], None),
        (["find-discontinuity", rng.choice(("padic+:2", "padic-:3")), "--side", rng.choice(("left", "right")),
          "--bound", "3", "--t-max", "2"], None),
    ]


def _pair_ops(run, argv, expect=None, readme_text=None):
    """The text and JSON runs of one command; the JSON op checks both."""
    key = "text:" + " ".join(argv)
    text_op = Op(
        "cli_text",
        lambda r: run(argv),
        lambda result, results: expect_text(argv, result, readme_text),
        key,
        " ".join(argv),
    )
    json_argv = argv + ["--format", "json"]
    json_op = Op(
        "cli_json",
        lambda r: run(json_argv),
        lambda result, results: check_pair(argv, results[key], result, expect),
        None,
        " ".join(json_argv),
    )
    return [text_op, json_op]


def build(seed: int, round_index: int, ctx):
    rng = rng_for("cli", seed, round_index)
    run = runner(ctx)
    ops = []
    for argv, shown, expect in README:
        ops += _pair_ops(run, argv, expect, shown)
    first_json = ops[1]  # the README also shows the JSON form of its first example
    pair_check = first_json.check

    def check_first_json(result, results):
        pair_check(result, results)
        expect_readme_json(result)

    first_json.check = check_first_json
    for argv, expect in seeded_commands(rng):
        ops += _pair_ops(run, argv, expect)
    for suite in SUITES:
        ops += _pair_ops(run, ["verify", suite], expect_suite)
    return ops


def warmup(seed: int, ctx):
    return _pair_ops(runner(ctx), ["mul", "b^1a^2", "b^2a^1"], _expect_element((1, 1)))
