"""Every output check accepts the library's answer and rejects a wrong one.

Run with:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bicyclic as bc  # noqa: E402

import run as bench_run  # noqa: E402
from oracle import CheckFailed, KnownFault, naive_closure, parse_topology  # noqa: E402
from workloads import Context, Op, cli, continuity, families, symset  # noqa: E402

E = bc.BicyclicElement


def rejects(check, *args):
    with pytest.raises(CheckFailed):
        check(*args)


# --- families -----------------------------------------------------------------------------


GENS = [(1, 2), (3, 0)]  # a strict pair with coprime differences
DESC = bc.FinitelyGenerated(tuple(E(*g) for g in GENS))


def _closure(gens=GENS, bound=8):
    return bc.closure([E(*g) for g in gens], bound)


def test_closure_check_rejects_a_dropped_member():
    result = _closure()
    naive = naive_closure(GENS, 8)
    families.check_closure(GENS, 8, result, naive)
    dropped = sorted(result.members)[len(result.members) // 2]
    bad = dataclasses.replace(result, members=result.members - {dropped})
    rejects(families.check_closure, GENS, 8, bad, naive)


def test_closure_check_rejects_a_flipped_saturated_flag():
    result = _closure()
    bad = dataclasses.replace(result, saturated=not result.saturated)
    rejects(families.check_closure, GENS, 8, bad, naive_closure(GENS, 8))


def test_census_check_rejects_a_flipped_verdict():
    result = _closure()
    census = bc.idempotent_census(DESC, 8)
    families.check_census(result, census)
    bad = dataclasses.replace(census, verdict=bc.CensusVerdict.BOUNDED_EVIDENCE)
    rejects(families.check_census, result, bad)


def test_membership_check_rejects_a_flipped_answer():
    naive = naive_closure(GENS, 8)
    x = sorted(naive[0])[3]
    answer = bc.membership(DESC, E(*x), 8)
    families.check_membership(x, naive, answer)
    rejects(families.check_membership, x, naive, dataclasses.replace(answer, member=False))


def test_block_check_rejects_a_dropped_element_and_a_wrong_index():
    gens = [(1, 3), (2, 0)]
    desc = bc.FinitelyGenerated(tuple(E(*g) for g in gens))
    nb = bc.finite_neighborhood(desc, E(1, 3), 8)
    naive = naive_closure(gens, 8)
    families.check_block((1, 3), naive, nb)
    other = next(e for e in nb.elements if e != E(1, 3))
    rejects(families.check_block, (1, 3), naive, dataclasses.replace(nb, elements=nb.elements - {other}))
    rejects(families.check_block, (1, 3), naive, dataclasses.replace(nb, i0=nb.i0 + 1))


def test_discrete_cell_check_rejects_a_discontinuity():
    top = bc.parse_topology("discrete:gen:b^1a^3,b^2a^0")
    verdict = bc.check_shift_at(top, bc.ShiftSide.LEFT, E(1, 3), E(2, 0), 2)
    families.check_cell(2, verdict)
    rejects(families.check_cell, 1, verdict)
    rejects(families.check_cell, 2, bc.DiscontinuousAt(2, (), "made up"))


def test_verify_check_rejects_a_fail_line_and_a_nonzero_exit():
    good = (0, "PASS one\nPASS two\nsuite prop1: 2/2 checks passed\n")
    families.check_verify_output(good, "prop1")
    rejects(families.check_verify_output, (0, "PASS one\nFAIL two\nsuite prop1: 1/2 checks passed\n"), "prop1")
    rejects(families.check_verify_output, (1, good[1]), "prop1")


# --- continuity ------------------------------------------------------------------------------


PADIC = parse_topology("padic+:2")
PADIC_OBJ = bc.parse_topology("padic+:2")


def test_counterexample_check_rejects_an_element_inside_the_target():
    s, x = (1, 1), (0, 0)
    verdict = bc.check_shift_at(PADIC_OBJ, bc.ShiftSide.RIGHT, E(*s), E(*x), 1)
    assert type(verdict).__name__ == "DiscontinuousAt"
    continuity.check_cell(PADIC, "right", s, x, 1, verdict)
    y = bc.multiply(E(*x), E(*s))
    inside = ((1, y),) + verdict.counterexamples[1:]
    rejects(continuity.check_cell, PADIC, "right", s, x, 1, dataclasses.replace(verdict, counterexamples=inside))


def test_counterexample_check_rejects_an_element_outside_the_image():
    s, x = (1, 1), (0, 0)
    verdict = bc.check_shift_at(PADIC_OBJ, bc.ShiftSide.RIGHT, E(*s), E(*x), 1)
    outside = ((1, E(0, 3)),) + verdict.counterexamples[1:]  # odd second exponent: not in the k=1 image
    rejects(continuity.check_cell, PADIC, "right", s, x, 1, dataclasses.replace(verdict, counterexamples=outside))


def test_modulus_check_rejects_a_too_coarse_modulus():
    x, y = (0, 1), (1, 2)
    verdict = bc.check_joint_at(PADIC_OBJ, E(*x), E(*y), 3)
    assert type(verdict).__name__ == "ContinuousAt" and verdict.modulus_for(3) > 1
    continuity.check_cell(PADIC, "joint", x, y, 3, verdict)
    rejects(continuity.check_cell, PADIC, "joint", x, y, 3, bc.ContinuousAt(((3, 1),)))


def test_window_and_refuted_verdicts_are_rejected():
    window = parse_topology("window:2:0:2")
    rejects(continuity.check_cell, window, "left", (0, 1), (1, 4), 1, bc.DiscontinuousAt(1, ((1, E(0, 9)),), "made up"))
    rejects(continuity.check_cell, PADIC, "left", (0, 1), (1, 4), 1, bc.RefutedUpToBound(12))


# --- symset -----------------------------------------------------------------------------------


def _row(row, base, step):
    return bc.SymSet((bc.RowTail(row, base, step),))


def _drop(s, index):
    return bc.SymSet(s.atoms[:index] + s.atoms[index + 1:])


def test_product_check_rejects_a_dropped_atom_and_an_invented_point():
    a, b = _row(1, 2, 5), _row(0, 3, 7)
    result = bc.product(a, b)
    rng = random.Random(1)
    symset.check_product(a, b, result, random.Random(1))
    tail = len(result.atoms) - 1  # the gcd tail, which every sample of large products hits
    rejects(symset.check_product, a, b, _drop(result, tail), rng)
    invented = bc.SymSet(result.atoms + (bc.Single(E(1, 4)),))
    with pytest.raises(CheckFailed):
        for seed in range(40):  # some sample must land on the invented point
            symset.check_product(a, b, invented, random.Random(seed))


def test_image_check_rejects_a_dropped_atom():
    s, sets = (2, 30), bc.SymSet((bc.ColTail(1, 0, 2),))
    result = bc.left_image(E(*s), sets)
    symset.check_image("left", s, sets, result, random.Random(2))
    rejects(symset.check_image, "left", s, sets, _drop(result, len(result.atoms) - 1), random.Random(2))


def test_union_check_rejects_a_lost_part():
    a, b = _row(1, 0, 3), _row(2, 1, 4)
    result = bc.union(a, b)
    symset.check_union([a, b], result, random.Random(3))
    rejects(symset.check_union, [a, b], a, random.Random(3))


def test_subset_check_rejects_a_flipped_verdict_and_a_false_counterexample():
    a, b = _row(1, 0, 6), _row(1, 0, 3)
    witness = bc.subset(a, b)
    symset.check_subset(a, b, witness, random.Random(4), True)
    rejects(symset.check_subset, a, b, witness, random.Random(4), False)
    rejects(symset.check_subset, a, b, bc.SubsetWitness(False, counterexample=E(1, 6)), random.Random(4))
    rejects(symset.check_subset, b, a, bc.SubsetWitness(True, covering_bound=9), random.Random(4))


def test_disjointness_check_rejects_a_flipped_verdict():
    a, b = _row(1, 0, 4), _row(1, 2, 6)
    verdict = bc.intersection_empty(a, b)
    symset.check_disjoint(a, b, verdict)
    rejects(symset.check_disjoint, a, b, not verdict)


# --- cli ---------------------------------------------------------------------------------------------


def test_text_json_agreement_rejects_a_changed_text():
    argv = ["census", "full", "--bound", "6"]
    text = (0, "count=7 verdict=infinite witness=b^0a^1,b^1a^0 note=strict pair generates an infinite diagonal family\n", "")
    doc = (
        '{"bound": 6, "count": 7, "descriptor": "full", "note": "strict pair generates an infinite diagonal family", '
        '"verdict": "infinite", "witness": [{"k": 0, "l": 1, "text": "b^0a^1"}, {"k": 1, "l": 0, "text": "b^1a^0"}]}\n'
    )
    cli.check_pair(argv, text, (0, doc, ""))
    rejects(cli.check_pair, argv, (0, text[1].replace("count=7", "count=8"), ""), (0, doc, ""))


def test_arithmetic_check_rejects_a_wrong_product():
    expect = cli._expect_element((4, 1))
    expect({"result": {"k": 4, "l": 1, "text": "b^4a^1"}})
    rejects(expect, {"result": {"k": 4, "l": 2, "text": "b^4a^2"}})


def test_readme_check_rejects_other_output_and_flags_the_abridged_example():
    argv, shown, _ = cli.README[0]
    cli.expect_text(argv, (0, shown + "\n", ""), shown)
    rejects(cli.expect_text, argv, (0, "b^4a^2\n", ""), shown)
    argv, shown, _ = cli.README[5]
    with pytest.raises(KnownFault):
        cli.expect_text(argv, (0, cli.ABRIDGED_PRINTS + "\n", ""), shown)
    rejects(cli.expect_text, argv, (0, shown + "\n  k=3 escape=b^0a^6\n  k=4 escape=b^0a^16\n", ""), shown)
    rejects(cli.expect_text, argv, (0, cli.ABRIDGED_PRINTS + "\n  k=5 escape=b^0a^32\n", ""), shown)


def test_readme_cell_check_rejects_a_counterexample_outside_the_image():
    argv, _, expect = cli.README[5]
    code, out, _ = cli.cli_in_process(argv + ["--format", "json"])
    doc = json.loads(out)
    expect(doc)
    doc["verdict"]["counterexamples"][2][1] = {"k": 0, "l": 6, "text": "b^0a^6"}
    rejects(expect, doc)


def test_suite_check_rejects_a_failed_check():
    doc = {"suite": "thm1", "passed": True, "failed": 0, "total": 1, "checks": [{"label": "x", "passed": True}]}
    cli.expect_suite(doc)
    rejects(cli.expect_suite, dict(doc, passed=False, failed=1, checks=[{"label": "x", "passed": False}]))


def test_an_operation_that_raises_makes_the_run_incorrect():
    def boom(results):
        raise ZeroDivisionError("no answer")

    run = bench_run.Run(None, 1, Context(root=BENCH.parent))
    run.run_ops([Op("closure", boom), Op("closure", lambda r: 1)], timed=True)
    assert run.attempted == 2 and run.failed == 1
    assert len(run.check_failures) == 1 and "ZeroDivisionError" in run.check_failures[0]


def test_latencies_beyond_the_cap_are_a_sample_of_the_whole_run(monkeypatch):
    monkeypatch.setattr(bench_run, "LATENCY_CAP", 100)
    run = bench_run.Run(None, 1, Context(root=BENCH.parent))
    for i in range(1000):
        run._keep(float(i))
    assert len(run.latencies) == 100 and len(set(run.latencies)) == 100
    assert min(run.latencies) < 100 and max(run.latencies) >= 900
