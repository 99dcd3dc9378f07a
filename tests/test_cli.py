"""Command line behavior: output stability, JSON shape, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicyclic
from bicyclic.cli import main

# child interpreters import bicyclic from the same source tree as this process
_SRC = str(Path(bicyclic.__file__).resolve().parents[1])
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- element commands ------------------------------------------------------------


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "b^2a^3", "b^5a^1")
    assert code == 0 and out == "b^4a^1\n"


def test_mul_accepts_words_and_identity(capsys):
    code, out, _ = run(capsys, "mul", "bba", "1", "ab")
    assert code == 0 and out == "b^2a^1\n"


def test_pow(capsys):
    code, out, _ = run(capsys, "pow", "b^1a^3", "4")
    assert code == 0 and out == "b^1a^9\n"


def test_inv(capsys):
    code, out, _ = run(capsys, "inv", "b^2a^5")
    assert code == 0 and out == "b^5a^2\n"


def test_leq(capsys):
    code, out, _ = run(capsys, "leq", "b^5a^3", "b^4a^2")
    assert code == 0 and out == "true witness=b^3a^3\n"
    code, out, _ = run(capsys, "leq", "b^4a^2", "b^5a^3")
    assert code == 0 and out == "false\n"


def test_solve_both_sides(capsys):
    code, out, _ = run(capsys, "solve", "--side", "left", "b^0a^1", "b^5a^0")
    assert code == 0 and out == "{b^6a^0}\n"
    code, out, _ = run(capsys, "solve", "--side", "right", "b^1a^0", "b^0a^5")
    assert code == 0 and out == "{b^0a^6}\n"
    code, out, _ = run(capsys, "solve", "--side", "left", "b^2a^0", "b^1a^1")
    assert code == 0 and out == "∅\n"


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "bbabaa")
    assert code == 0 and out == "b^2a^2\n"


# --- set and family commands ----------------------------------------------------------


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "cplus-window:1:2", "--bound", "2")
    assert code == 0 and out == "b^1a^1\nb^1a^2\nb^2a^2\n"


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", "b^2a^2", "--bound", "4")
    assert code == 0 and out.startswith("saturated=true count=1\n")


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "full", "--bound", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6 and doc["verdict"] == "infinite"
    assert doc["witness"][0]["text"] == "b^0a^1"


def test_prop1_family(capsys):
    code, out, _ = run(capsys, "prop1-family", "b^1a^3", "b^3a^0", "--count", "2")
    assert code == 0
    assert out.splitlines()[0] == "offset=1 step=6"
    assert "member=b^7a^7" in out.splitlines()[1]


def test_prop1_family_rejects_bad_halves(capsys):
    code, _, err = run(capsys, "prop1-family", "b^3a^1", "b^1a^3")
    assert code == 2 and "error" in err


def test_thm1_nbhd(capsys):
    code, out, _ = run(capsys, "thm1-nbhd", "full", "b^1a^2", "--bound", "10")
    assert code == 0
    assert out.splitlines()[0] == "i0=3 size=9"


def test_thm1_nbhd_rejects_a_generator_above_the_bound(capsys):
    code, out, err = run(capsys, "thm1-nbhd", "gen:b^0a^1,b^500a^0", "b^0a^1")
    assert (code, out, err) == (2, "", "error: closure bound must cover the generators\n")


def test_thm1_nbhd_rejects_a_point_above_the_bound_before_any_closure(capsys, monkeypatch):
    # the reach check comes before membership, which would build the closure at 2,000
    from bicyclic import families

    descriptors, finite_neighborhood = [], families.finite_neighborhood

    def recording(desc, x, bound):
        descriptors.append(desc)
        return finite_neighborhood(desc, x, bound)

    monkeypatch.setattr(families, "finite_neighborhood", recording)
    code, out, err = run(capsys, "thm1-nbhd", "gen:b^0a^1,b^1a^0", "b^0a^2000", "--bound", "12")
    assert (code, out, err) == (2, "", "error: bound 12 cannot reach an idempotent above b^0a^2000\n")
    assert [desc._views for desc in descriptors] == [{}]


def test_thm1_nbhd_reach_is_checked_before_membership(capsys):
    # a non-member under an unreachable bound gets the reach message
    code, out, err = run(capsys, "thm1-nbhd", "cplus-row:3", "b^0a^5", "--bound", "2")
    assert (code, out, err) == (2, "", "error: bound 2 cannot reach an idempotent above b^0a^5\n")
    code, out, err = run(capsys, "thm1-nbhd", "cplus-row:3", "b^0a^5", "--bound", "6")
    assert (code, out, err) == (2, "", "error: b^0a^5 is not a member of cplus-row:3\n")


def test_nbhd(capsys):
    code, out, _ = run(capsys, "nbhd", "padic+:2", "b^1a^3", "2")
    assert code == 0 and out == "{b^1 a^(3+4t)}\n"
    code, out, _ = run(capsys, "nbhd", "window:2:0:2", "b^0a^1", "3")
    assert code == 0 and out == "{b^0 a^1}\n"


def test_image_and_product_and_subset(capsys):
    code, out, _ = run(capsys, "image", "--side", "left", "b^2a^1", "{b^3 a^(5+4t)}")
    assert code == 0 and out == "{b^4 a^(5+4t)}\n"
    code, out, _ = run(capsys, "product", "{b^0 a^(0+4t)}", "{b^0 a^(0+9t)}")
    assert code == 0 and "∪" in out
    code, out, _ = run(capsys, "subset", "{b^1 a^(4+8t)}", "{b^1 a^(0+2t)}")
    assert code == 0 and out.startswith("true covering_bound=")
    code, out, _ = run(capsys, "subset", "{b^1 a^(4+8t)}", "{b^1 a^(1+2t)}")
    assert code == 0 and out == "false counterexample=b^1a^4\n"


def test_product_unrepresentable_is_usage_error(capsys):
    code, _, err = run(capsys, "product", "{b^(0+2t) a^0}", "{b^0 a^(0+2t)}")
    assert code == 2 and "error" in err


# --- continuity commands ------------------------------------------------------------------


def test_check_shift(capsys):
    code, out, _ = run(capsys, "check-shift", "padic+:2", "--side", "left", "b^0a^1", "b^0a^0", "2")
    assert code == 0 and out.startswith("continuous t=2 k=")
    code, out, _ = run(capsys, "check-shift", "padic+:2", "--side", "right", "b^1a^1", "b^0a^0", "1")
    assert code == 0 and out.splitlines()[0] == "discontinuous t=1"


def test_check_joint(capsys):
    code, out, _ = run(capsys, "check-joint", "window:2:0:2", "b^0a^3", "b^1a^4", "1")
    assert code == 0 and out.startswith("continuous t=1 k=1 equality=true")


def test_find_discontinuity(capsys):
    code, out, _ = run(
        capsys, "find-discontinuity", "padic+:2", "--side", "right", "--bound", "3"
    )
    assert code == 0 and out.splitlines()[0] == "found s=b^1a^1 x=b^0a^0 t=1"
    code, out, _ = run(
        capsys, "find-discontinuity", "padic+:2", "--side", "left", "--bound", "2"
    )
    assert code == 0 and out == "none\n"


def test_continuity_commands_need_no_products_and_no_scan(capsys, monkeypatch):
    # far escapes come in closed form: the old path built 937,500 points in
    # four products for this cell; a side where no cell fails is not scanned;
    # and a side with a witness reads it off the locus, where listing the
    # 4.5 million points of the bound-3000 box ended in a MemoryError
    from bicyclic import continuity, families

    symset_module = importlib.import_module("bicyclic.symset")
    calls = []
    for name in ("product", "_product_atoms"):
        monkeypatch.setattr(symset_module, name, lambda *args, name=name: calls.append(name))
    argv = ["check-shift", "padic+:2", "--side", "right", "b^999999a^1000000", "b^0a^0", "1"]
    assert run(capsys, *argv) == (0, _CHECK_SHIFT_FAR_ESCAPES_TEXT, "")
    assert calls == []

    def scanned(*args):
        raise AssertionError(f"the side was scanned at {args}")

    monkeypatch.setattr(continuity, "check_shift_at", scanned)
    argv = ["find-discontinuity", "padic+:2", "--side", "left", "--bound", "200", "--t-max", "1"]
    assert run(capsys, *argv) == (0, "none\n", "")

    monkeypatch.undo()
    listed = []
    for module in (continuity, families):
        monkeypatch.setattr(module, "enumerate_members", lambda *args: listed.append(args) or [])
    argv = ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "3000", "--t-max", "1"]
    assert run(capsys, *argv) == (0, _FIND_DISCONTINUITY_FOUND_TEXT, "")
    assert listed == []


# --- verify ---------------------------------------------------------------------------------


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "core-oracle")
    assert code == 0
    assert all(line.startswith(("PASS", "suite")) for line in out.splitlines())


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failed"] == 0
    assert all(c["passed"] for c in doc["checks"])


def test_verify_prop2_window_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "prop2", "--p", "2", "--m", "0", "--n", "0", "--bound", "4"
    )
    assert code == 0


def test_verify_prop2_fourth_case_rejects_a_coarse_modulus(capsys, monkeypatch):
    from bicyclic import verify
    from bicyclic.continuity import ContinuousAt, JointCell, JointReport, check_joint

    def forged(top, bound, t_max):
        # every neither-isolated cell claims source index 1, too coarse for t >= 2
        rep = check_joint(top, bound=bound, t_max=t_max)
        cells = tuple(
            JointCell(c.x, c.y, c.t, c.case, ContinuousAt(((c.t, 1),)), c.equality)
            if c.case == "neither-isolated"
            else c
            for c in rep.cells
        )
        return JointReport(rep.topology, cells)

    monkeypatch.setattr(verify, "check_joint", forged)
    code, out, _ = run(capsys, "verify", "prop2")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [
        "FAIL window:2:0:2 bound=6: fourth-case product sets sit inside the target neighborhood"
    ]


@pytest.mark.parametrize("suite", ["thm2", "hausdorff", "prop2"])
def test_verify_rejects_a_negative_bound(capsys, suite):
    # a negative bound is a usage error, not an empty suite that passes
    assert run(capsys, "verify", suite, "--bound", "-1") == (2, "", "error: bound must be non-negative\n")


def test_brute_division_matches_a_scan_by_multiply():
    from bicyclic import BicyclicElement as E, multiply
    from bicyclic.verify import _brute_division

    small = [E(k, l) for k in range(4) for l in range(4)]
    window = [E(m, n) for m in range(12) for n in range(12)]
    for a in small:
        assert _brute_division(a, "left", 12, small) == {
            c: {x for x in window if multiply(a, x) == c} for c in small
        }
        assert _brute_division(a, "right", 12, small) == {
            c: {x for x in window if multiply(x, a) == c} for c in small
        }


def test_verify_thm2_names_a_division_that_disagrees_with_the_brute_scan(capsys, monkeypatch):
    from bicyclic import verify

    monkeypatch.setattr(verify, "solve_right", lambda c, a: frozenset())
    code, out, _ = run(capsys, "verify", "thm2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL left and right division match a brute scan over a 30x30 window"
    ]


_THM1_BLOCK_LABELS = [
    "FAIL full at b^1a^2: finite block below index 3",
    "FAIL full at b^0a^0: finite block below index 1",
    "FAIL cplus at b^1a^3: finite block below index 4",
    "FAIL cminus at b^3a^1: finite block below index 4",
    "FAIL idem at b^2a^2: finite block below index 3",
]


@pytest.mark.parametrize(
    "mutate",
    [
        # drop a member other than x, or x itself when it is alone
        lambda nb, x: nb.elements - {max(nb.elements - {x}, default=x)},
        # add e = b^i0 a^i0, a window point with an exponent >= i0
        lambda nb, x: nb.elements | {bicyclic.BicyclicElement(nb.i0, nb.i0)},
    ],
    ids=["drop-a-member", "add-a-point-at-i0"],
)
def test_verify_thm1_fails_on_a_wrong_block(capsys, monkeypatch, mutate):
    # the suite checks each block against the translate complement, not against the block's own rule
    from bicyclic import verify

    finite_neighborhood = verify.finite_neighborhood

    def wrong(desc, x, bound):
        nb = finite_neighborhood(desc, x, bound)
        return bicyclic.Neighborhood(nb.i0, frozenset(mutate(nb, x)))

    monkeypatch.setattr(verify, "finite_neighborhood", wrong)
    code, out, _ = run(capsys, "verify", "thm1")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed[: len(_THM1_BLOCK_LABELS)] == _THM1_BLOCK_LABELS


# --- precondition and usage errors -----------------------------------------------------------


def test_bad_element_is_usage_error(capsys):
    code, _, err = run(capsys, "mul", "b^2c^3", "1")
    assert code == 2 and "error" in err


def test_carrier_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "nbhd", "padic+:2", "b^3a^1", "1")
    assert code == 2 and "error" in err


def test_max_exponent_cap(capsys):
    code, _, err = run(capsys, "mul", "b^2000000a^1", "1")
    assert code == 2 and "max-exponent" in err
    code, out, _ = run(capsys, "mul", "--max-exponent", "3000000", "b^2000000a^1", "1")
    assert code == 0


@pytest.mark.parametrize(
    "argv, value",
    [
        (["nbhd", "padic+:1000000000000000003", "b^0a^0", "1"], "1000000000000000003"),
        (["nbhd", "padic-:" + str(10**401 + 1), "b^0a^0", "1"], str(10**401 + 1)),
        (["check-shift", "window:1000003:0:2", "--side", "left", "b^0a^0", "b^0a^0", "1"], "1000003"),
        (["check-joint", "window:2:0:1000001", "b^0a^0", "b^0a^0", "1"], "1000001"),
        (["find-discontinuity", "window:2:1000001:1000002", "--side", "left", "--bound", "2"], "1000001"),
    ],
)
def test_topology_parameters_obey_the_cap(capsys, monkeypatch, argv, value):
    # the cap is checked before any descriptor is built, so the prime test never runs
    def never(p):
        raise AssertionError(f"prime test reached with p = {p}")

    monkeypatch.setattr("bicyclic.topology._require_prime", never)
    assert run(capsys, *argv) == (2, "", f"error: topology parameter {value} exceeds the cap 1000000\n")


def test_raised_cap_admits_topology_parameters(capsys):
    argv = ["nbhd", "--max-exponent", "2000000", "window:2:0:2000000", "b^0a^1999999", "1"]
    assert run(capsys, *argv) == (0, "{b^0 a^1999999}\n", "")
    code, _, err = run(capsys, "verify", "prop2", "--p", "1000003")
    assert code == 2 and err == "error: --p exceeds --max-exponent 1000000\n"


def _step_error(name, value, p):
    return (
        f"error: {name} {value} is too large for p = {p}: the step p^{value} would have "
        "more than 4300 decimal digits\n"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["check-shift", "padic+:2", "--side", "left", "b^0a^0", "b^0a^1", "1000000000"],
            _step_error("t", 1000000000, 2),
        ),
        (["check-joint", "padic-:3", "b^1a^0", "b^2a^1", "100000000"], _step_error("t", 100000000, 3)),
        (["nbhd", "padic+:2", "b^1a^3", "100000"], _step_error("index", 100000, 2)),
        (["nbhd", "padic+:2", "b^1a^3", "14285"], _step_error("index", 14285, 2)),
        (["nbhd", "window:3:0:2", "b^1a^3", "9013"], _step_error("index", 9013, 3)),
        (
            ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "2", "--t-max", "14285"],
            _step_error("--t-max", 14285, 2),
        ),
    ],
)
def test_neighborhood_index_is_capped(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_index_cap_is_exact():
    from bicyclic.cli import MAX_STEP_DIGITS, _largest_index

    for p in (2, 3, 5, 7, 10007, 999983):
        t = _largest_index(p)
        assert p**t < 10**MAX_STEP_DIGITS <= p ** (t + 1), p
    assert _largest_index(2) == 14284


def test_steps_within_the_cap_are_answered(capsys):
    code, out, _ = run(capsys, "nbhd", "padic+:2", "b^1a^3", "14284")
    assert code == 0 and len(out.split("+")[1].split("t")[0]) == 4300
    # a discrete topology has no step, so any index stands
    argv = ["check-shift", "discrete:full", "--side", "left", "b^0a^0", "b^0a^1", "1000000000"]
    assert run(capsys, *argv) == (0, "continuous t=1000000000 k=1\n", "")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["check-shift", "padic+:2", "--side", "left", "b^0a^1", "b^0a^0", "0"],
            "error: neighborhood index must be a positive integer, got 0\n",
        ),
        (
            ["check-joint", "padic+:2", "b^0a^0", "b^1a^1", "0"],
            "error: neighborhood index must be a positive integer, got 0\n",
        ),
        (
            ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "2", "--t-max", "-2"],
            "error: --t-max must be at least 1, got -2\n",
        ),
        (
            ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "2", "--t-max", "0"],
            "error: --t-max must be at least 1, got 0\n",
        ),
    ],
)
def test_bad_bounds_are_usage_errors(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-shift", "padic+:2", "--side", "left", "b^0a^1", "b^0a^0", "1"],
        ["check-joint", "padic+:2", "b^0a^0", "b^1a^1", "1"],
        ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "2"],
    ],
)
def test_there_is_no_search_bound_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--k-max", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k-max 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check-shift", "padic+:2", "--side", "left", "b^0a^1", "b^1a^2", "13"], "continuous t=13 k=13\n"),
        (["check-joint", "padic+:2", "b^0a^1", "b^1a^2", "13"], "continuous t=13 k=13 equality=true\n"),
    ],
)
def test_cells_above_twelve_are_decided(capsys, argv, expected):
    # every index decides its cell at k0 = t; there is no bound to pass
    assert run(capsys, *argv) == (0, expected, "")


_LONG = "1" * 4301  # one digit more than Python converts to an int by default


@pytest.mark.parametrize(
    "argv, err",
    [
        (["mul", f"b^{_LONG}a^0"], f"error: element 'b^{_LONG}a^0' exceeds --max-exponent 1000000\n"),
        (["nbhd", f"padic+:{_LONG}", "b^0a^0", "1"], f"error: topology parameter {_LONG} exceeds the cap 1000000\n"),
        (
            ["image", "--side", "left", "b^0a^0", f"{{b^0a^{_LONG}}}"],
            f"error: set '{{b^0a^{_LONG}}}' exceeds --max-exponent 1000000\n",
        ),
        (
            ["enumerate", f"gen:b^{_LONG}a^0", "--bound", "2"],
            f"error: family 'gen:b^{_LONG}a^0' exceeds --max-exponent 1000000\n",
        ),
        (
            ["nbhd", f"discrete:gen:b^{_LONG}a^0", "b^0a^0", "1"],
            f"error: topology parameter {_LONG} exceeds the cap 1000000\n",
        ),
        (
            ["enumerate", "cplus-row:2000000", "--bound", "2"],
            "error: family 'cplus-row:2000000' exceeds --max-exponent 1000000\n",
        ),
        (
            ["census", "cplus-window:0:2000000"],
            "error: family 'cplus-window:0:2000000' exceeds --max-exponent 1000000\n",
        ),
        (
            ["thm1-nbhd", f"gen:b^0a^1,b^{_LONG}a^0", "b^0a^1"],
            f"error: family 'gen:b^0a^1,b^{_LONG}a^0' exceeds --max-exponent 1000000\n",
        ),
        (
            ["nbhd", "discrete:cplus-row:2000000", "b^0a^0", "1"],
            "error: topology parameter 2000000 exceeds the cap 1000000\n",
        ),
        (
            # the point lies on the tail, so the canonical form drops it
            ["image", "--side", "left", "b^0a^0", "{b^0 a^(0+1t)} | {b^0 a^2000000}"],
            "error: set '{b^0 a^(0+1t)} | {b^0 a^2000000}' exceeds --max-exponent 1000000\n",
        ),
    ],
    ids=[
        "mul",
        "nbhd",
        "image",
        "enumerate-gen",
        "nbhd-discrete-gen",
        "enumerate-row",
        "census-window",
        "thm1-nbhd",
        "nbhd-discrete-row",
        "image-absorbed",
    ],
)
def test_overlong_numbers_meet_the_cap(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- determinism happens at the byte level -----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "b^2a^3", "b^5a^1", "--format", "json"],
        ["solve", "--side", "left", "b^0a^2", "b^0a^2", "--format", "json"],
        ["census", "gen:b^0a^1,b^1a^0", "--bound", "6", "--format", "json"],
        ["nbhd", "padic-:3", "b^4a^1", "2", "--format", "json"],
        ["check-shift", "padic+:2", "--side", "right", "b^1a^1", "b^0a^0", "1", "--format", "json"],
        ["verify", "thm2", "--format", "json"],
    ],
)
def test_repeat_invocations_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert json.loads(first[1]) == json.loads(second[1])


# --- golden bytes of the closure-backed commands ---------------------------------------------

_CLOSURE_TEXT = (
    'saturated=false count=169\nb^0a^0\nb^0a^1\nb^0a^2\nb^0a^3\nb^0a^4\nb^0a^5\nb^0a^6\n'
    'b^0a^7\nb^0a^8\nb^0a^9\nb^0a^10\nb^0a^11\nb^0a^12\nb^1a^0\nb^1a^1\nb^1a^2\nb^1a^3\n'
    'b^1a^4\nb^1a^5\nb^1a^6\nb^1a^7\nb^1a^8\nb^1a^9\nb^1a^10\nb^1a^11\nb^1a^12\nb^2a^0\n'
    'b^2a^1\nb^2a^2\nb^2a^3\nb^2a^4\nb^2a^5\nb^2a^6\nb^2a^7\nb^2a^8\nb^2a^9\nb^2a^10\n'
    'b^2a^11\nb^2a^12\nb^3a^0\nb^3a^1\nb^3a^2\nb^3a^3\nb^3a^4\nb^3a^5\nb^3a^6\nb^3a^7\n'
    'b^3a^8\nb^3a^9\nb^3a^10\nb^3a^11\nb^3a^12\nb^4a^0\nb^4a^1\nb^4a^2\nb^4a^3\nb^4a^4\n'
    'b^4a^5\nb^4a^6\nb^4a^7\nb^4a^8\nb^4a^9\nb^4a^10\nb^4a^11\nb^4a^12\nb^5a^0\nb^5a^1\n'
    'b^5a^2\nb^5a^3\nb^5a^4\nb^5a^5\nb^5a^6\nb^5a^7\nb^5a^8\nb^5a^9\nb^5a^10\nb^5a^11\n'
    'b^5a^12\nb^6a^0\nb^6a^1\nb^6a^2\nb^6a^3\nb^6a^4\nb^6a^5\nb^6a^6\nb^6a^7\nb^6a^8\n'
    'b^6a^9\nb^6a^10\nb^6a^11\nb^6a^12\nb^7a^0\nb^7a^1\nb^7a^2\nb^7a^3\nb^7a^4\nb^7a^5\n'
    'b^7a^6\nb^7a^7\nb^7a^8\nb^7a^9\nb^7a^10\nb^7a^11\nb^7a^12\nb^8a^0\nb^8a^1\nb^8a^2\n'
    'b^8a^3\nb^8a^4\nb^8a^5\nb^8a^6\nb^8a^7\nb^8a^8\nb^8a^9\nb^8a^10\nb^8a^11\nb^8a^12\n'
    'b^9a^0\nb^9a^1\nb^9a^2\nb^9a^3\nb^9a^4\nb^9a^5\nb^9a^6\nb^9a^7\nb^9a^8\nb^9a^9\n'
    'b^9a^10\nb^9a^11\nb^9a^12\nb^10a^0\nb^10a^1\nb^10a^2\nb^10a^3\nb^10a^4\nb^10a^5\n'
    'b^10a^6\nb^10a^7\nb^10a^8\nb^10a^9\nb^10a^10\nb^10a^11\nb^10a^12\nb^11a^0\nb^11a^1\n'
    'b^11a^2\nb^11a^3\nb^11a^4\nb^11a^5\nb^11a^6\nb^11a^7\nb^11a^8\nb^11a^9\nb^11a^10\n'
    'b^11a^11\nb^11a^12\nb^12a^0\nb^12a^1\nb^12a^2\nb^12a^3\nb^12a^4\nb^12a^5\nb^12a^6\n'
    'b^12a^7\nb^12a^8\nb^12a^9\nb^12a^10\nb^12a^11\nb^12a^12\n'
)

_CLOSURE_JSON = (
    '{"bound": 12, "count": 169, "members": [{"k": 0, "l": 0, "text": "b^0a^0"}, {"k": 0, '
    '"l": 1, "text": "b^0a^1"}, {"k": 0, "l": 2, "text": "b^0a^2"}, {"k": 0, "l": 3, '
    '"text": "b^0a^3"}, {"k": 0, "l": 4, "text": "b^0a^4"}, {"k": 0, "l": 5, '
    '"text": "b^0a^5"}, {"k": 0, "l": 6, "text": "b^0a^6"}, {"k": 0, "l": 7, '
    '"text": "b^0a^7"}, {"k": 0, "l": 8, "text": "b^0a^8"}, {"k": 0, "l": 9, '
    '"text": "b^0a^9"}, {"k": 0, "l": 10, "text": "b^0a^10"}, {"k": 0, "l": 11, '
    '"text": "b^0a^11"}, {"k": 0, "l": 12, "text": "b^0a^12"}, {"k": 1, "l": 0, '
    '"text": "b^1a^0"}, {"k": 1, "l": 1, "text": "b^1a^1"}, {"k": 1, "l": 2, '
    '"text": "b^1a^2"}, {"k": 1, "l": 3, "text": "b^1a^3"}, {"k": 1, "l": 4, '
    '"text": "b^1a^4"}, {"k": 1, "l": 5, "text": "b^1a^5"}, {"k": 1, "l": 6, '
    '"text": "b^1a^6"}, {"k": 1, "l": 7, "text": "b^1a^7"}, {"k": 1, "l": 8, '
    '"text": "b^1a^8"}, {"k": 1, "l": 9, "text": "b^1a^9"}, {"k": 1, "l": 10, '
    '"text": "b^1a^10"}, {"k": 1, "l": 11, "text": "b^1a^11"}, {"k": 1, "l": 12, '
    '"text": "b^1a^12"}, {"k": 2, "l": 0, "text": "b^2a^0"}, {"k": 2, "l": 1, '
    '"text": "b^2a^1"}, {"k": 2, "l": 2, "text": "b^2a^2"}, {"k": 2, "l": 3, '
    '"text": "b^2a^3"}, {"k": 2, "l": 4, "text": "b^2a^4"}, {"k": 2, "l": 5, '
    '"text": "b^2a^5"}, {"k": 2, "l": 6, "text": "b^2a^6"}, {"k": 2, "l": 7, '
    '"text": "b^2a^7"}, {"k": 2, "l": 8, "text": "b^2a^8"}, {"k": 2, "l": 9, '
    '"text": "b^2a^9"}, {"k": 2, "l": 10, "text": "b^2a^10"}, {"k": 2, "l": 11, '
    '"text": "b^2a^11"}, {"k": 2, "l": 12, "text": "b^2a^12"}, {"k": 3, "l": 0, '
    '"text": "b^3a^0"}, {"k": 3, "l": 1, "text": "b^3a^1"}, {"k": 3, "l": 2, '
    '"text": "b^3a^2"}, {"k": 3, "l": 3, "text": "b^3a^3"}, {"k": 3, "l": 4, '
    '"text": "b^3a^4"}, {"k": 3, "l": 5, "text": "b^3a^5"}, {"k": 3, "l": 6, '
    '"text": "b^3a^6"}, {"k": 3, "l": 7, "text": "b^3a^7"}, {"k": 3, "l": 8, '
    '"text": "b^3a^8"}, {"k": 3, "l": 9, "text": "b^3a^9"}, {"k": 3, "l": 10, '
    '"text": "b^3a^10"}, {"k": 3, "l": 11, "text": "b^3a^11"}, {"k": 3, "l": 12, '
    '"text": "b^3a^12"}, {"k": 4, "l": 0, "text": "b^4a^0"}, {"k": 4, "l": 1, '
    '"text": "b^4a^1"}, {"k": 4, "l": 2, "text": "b^4a^2"}, {"k": 4, "l": 3, '
    '"text": "b^4a^3"}, {"k": 4, "l": 4, "text": "b^4a^4"}, {"k": 4, "l": 5, '
    '"text": "b^4a^5"}, {"k": 4, "l": 6, "text": "b^4a^6"}, {"k": 4, "l": 7, '
    '"text": "b^4a^7"}, {"k": 4, "l": 8, "text": "b^4a^8"}, {"k": 4, "l": 9, '
    '"text": "b^4a^9"}, {"k": 4, "l": 10, "text": "b^4a^10"}, {"k": 4, "l": 11, '
    '"text": "b^4a^11"}, {"k": 4, "l": 12, "text": "b^4a^12"}, {"k": 5, "l": 0, '
    '"text": "b^5a^0"}, {"k": 5, "l": 1, "text": "b^5a^1"}, {"k": 5, "l": 2, '
    '"text": "b^5a^2"}, {"k": 5, "l": 3, "text": "b^5a^3"}, {"k": 5, "l": 4, '
    '"text": "b^5a^4"}, {"k": 5, "l": 5, "text": "b^5a^5"}, {"k": 5, "l": 6, '
    '"text": "b^5a^6"}, {"k": 5, "l": 7, "text": "b^5a^7"}, {"k": 5, "l": 8, '
    '"text": "b^5a^8"}, {"k": 5, "l": 9, "text": "b^5a^9"}, {"k": 5, "l": 10, '
    '"text": "b^5a^10"}, {"k": 5, "l": 11, "text": "b^5a^11"}, {"k": 5, "l": 12, '
    '"text": "b^5a^12"}, {"k": 6, "l": 0, "text": "b^6a^0"}, {"k": 6, "l": 1, '
    '"text": "b^6a^1"}, {"k": 6, "l": 2, "text": "b^6a^2"}, {"k": 6, "l": 3, '
    '"text": "b^6a^3"}, {"k": 6, "l": 4, "text": "b^6a^4"}, {"k": 6, "l": 5, '
    '"text": "b^6a^5"}, {"k": 6, "l": 6, "text": "b^6a^6"}, {"k": 6, "l": 7, '
    '"text": "b^6a^7"}, {"k": 6, "l": 8, "text": "b^6a^8"}, {"k": 6, "l": 9, '
    '"text": "b^6a^9"}, {"k": 6, "l": 10, "text": "b^6a^10"}, {"k": 6, "l": 11, '
    '"text": "b^6a^11"}, {"k": 6, "l": 12, "text": "b^6a^12"}, {"k": 7, "l": 0, '
    '"text": "b^7a^0"}, {"k": 7, "l": 1, "text": "b^7a^1"}, {"k": 7, "l": 2, '
    '"text": "b^7a^2"}, {"k": 7, "l": 3, "text": "b^7a^3"}, {"k": 7, "l": 4, '
    '"text": "b^7a^4"}, {"k": 7, "l": 5, "text": "b^7a^5"}, {"k": 7, "l": 6, '
    '"text": "b^7a^6"}, {"k": 7, "l": 7, "text": "b^7a^7"}, {"k": 7, "l": 8, '
    '"text": "b^7a^8"}, {"k": 7, "l": 9, "text": "b^7a^9"}, {"k": 7, "l": 10, '
    '"text": "b^7a^10"}, {"k": 7, "l": 11, "text": "b^7a^11"}, {"k": 7, "l": 12, '
    '"text": "b^7a^12"}, {"k": 8, "l": 0, "text": "b^8a^0"}, {"k": 8, "l": 1, '
    '"text": "b^8a^1"}, {"k": 8, "l": 2, "text": "b^8a^2"}, {"k": 8, "l": 3, '
    '"text": "b^8a^3"}, {"k": 8, "l": 4, "text": "b^8a^4"}, {"k": 8, "l": 5, '
    '"text": "b^8a^5"}, {"k": 8, "l": 6, "text": "b^8a^6"}, {"k": 8, "l": 7, '
    '"text": "b^8a^7"}, {"k": 8, "l": 8, "text": "b^8a^8"}, {"k": 8, "l": 9, '
    '"text": "b^8a^9"}, {"k": 8, "l": 10, "text": "b^8a^10"}, {"k": 8, "l": 11, '
    '"text": "b^8a^11"}, {"k": 8, "l": 12, "text": "b^8a^12"}, {"k": 9, "l": 0, '
    '"text": "b^9a^0"}, {"k": 9, "l": 1, "text": "b^9a^1"}, {"k": 9, "l": 2, '
    '"text": "b^9a^2"}, {"k": 9, "l": 3, "text": "b^9a^3"}, {"k": 9, "l": 4, '
    '"text": "b^9a^4"}, {"k": 9, "l": 5, "text": "b^9a^5"}, {"k": 9, "l": 6, '
    '"text": "b^9a^6"}, {"k": 9, "l": 7, "text": "b^9a^7"}, {"k": 9, "l": 8, '
    '"text": "b^9a^8"}, {"k": 9, "l": 9, "text": "b^9a^9"}, {"k": 9, "l": 10, '
    '"text": "b^9a^10"}, {"k": 9, "l": 11, "text": "b^9a^11"}, {"k": 9, "l": 12, '
    '"text": "b^9a^12"}, {"k": 10, "l": 0, "text": "b^10a^0"}, {"k": 10, "l": 1, '
    '"text": "b^10a^1"}, {"k": 10, "l": 2, "text": "b^10a^2"}, {"k": 10, "l": 3, '
    '"text": "b^10a^3"}, {"k": 10, "l": 4, "text": "b^10a^4"}, {"k": 10, "l": 5, '
    '"text": "b^10a^5"}, {"k": 10, "l": 6, "text": "b^10a^6"}, {"k": 10, "l": 7, '
    '"text": "b^10a^7"}, {"k": 10, "l": 8, "text": "b^10a^8"}, {"k": 10, "l": 9, '
    '"text": "b^10a^9"}, {"k": 10, "l": 10, "text": "b^10a^10"}, {"k": 10, "l": 11, '
    '"text": "b^10a^11"}, {"k": 10, "l": 12, "text": "b^10a^12"}, {"k": 11, "l": 0, '
    '"text": "b^11a^0"}, {"k": 11, "l": 1, "text": "b^11a^1"}, {"k": 11, "l": 2, '
    '"text": "b^11a^2"}, {"k": 11, "l": 3, "text": "b^11a^3"}, {"k": 11, "l": 4, '
    '"text": "b^11a^4"}, {"k": 11, "l": 5, "text": "b^11a^5"}, {"k": 11, "l": 6, '
    '"text": "b^11a^6"}, {"k": 11, "l": 7, "text": "b^11a^7"}, {"k": 11, "l": 8, '
    '"text": "b^11a^8"}, {"k": 11, "l": 9, "text": "b^11a^9"}, {"k": 11, "l": 10, '
    '"text": "b^11a^10"}, {"k": 11, "l": 11, "text": "b^11a^11"}, {"k": 11, "l": 12, '
    '"text": "b^11a^12"}, {"k": 12, "l": 0, "text": "b^12a^0"}, {"k": 12, "l": 1, '
    '"text": "b^12a^1"}, {"k": 12, "l": 2, "text": "b^12a^2"}, {"k": 12, "l": 3, '
    '"text": "b^12a^3"}, {"k": 12, "l": 4, "text": "b^12a^4"}, {"k": 12, "l": 5, '
    '"text": "b^12a^5"}, {"k": 12, "l": 6, "text": "b^12a^6"}, {"k": 12, "l": 7, '
    '"text": "b^12a^7"}, {"k": 12, "l": 8, "text": "b^12a^8"}, {"k": 12, "l": 9, '
    '"text": "b^12a^9"}, {"k": 12, "l": 10, "text": "b^12a^10"}, {"k": 12, "l": 11, '
    '"text": "b^12a^11"}, {"k": 12, "l": 12, "text": "b^12a^12"}], "saturated": false}\n'
)

_CENSUS_TEXT = (
    'count=1 verdict=bounded-evidence note=closure truncated at the bound\n'
)

_CENSUS_JSON = (
    '{"bound": 10, "count": 1, "descriptor": "gen:b^0a^2,b^1a^1", '
    '"note": "closure truncated at the bound", "verdict": "bounded-evidence", '
    '"witness": null}\n'
)

_THM1_NBHD_TEXT = (
    'i0=3 size=9\nb^0a^0 b^0a^1 b^0a^2 b^1a^0 b^1a^1 b^1a^2 b^2a^0 b^2a^1 b^2a^2\n'
)

_THM1_NBHD_JSON = (
    '{"descriptor": "gen:b^0a^1,b^2a^0", "elements": [{"k": 0, "l": 0, "text": "b^0a^0"}, '
    '{"k": 0, "l": 1, "text": "b^0a^1"}, {"k": 0, "l": 2, "text": "b^0a^2"}, {"k": 1, '
    '"l": 0, "text": "b^1a^0"}, {"k": 1, "l": 1, "text": "b^1a^1"}, {"k": 1, "l": 2, '
    '"text": "b^1a^2"}, {"k": 2, "l": 0, "text": "b^2a^0"}, {"k": 2, "l": 1, '
    '"text": "b^2a^1"}, {"k": 2, "l": 2, "text": "b^2a^2"}], "i0": 3, "size": 9}\n'
)

_VERIFY_PROP1_TEXT = (
    'PASS u=b^0a^1 v=b^1a^0: distinct idempotent family offset=0 step=1 inside the generated subsemigroup\n'
    'PASS u=b^0a^1 v=b^3a^2: distinct idempotent family offset=2 step=1 inside the generated subsemigroup\n'
    'PASS u=b^1a^3 v=b^3a^0: distinct idempotent family offset=1 step=6 inside the generated subsemigroup\n'
    'PASS u=b^2a^3 v=b^2a^1: distinct idempotent family offset=2 step=1 inside the generated subsemigroup\n'
    'PASS u=b^0a^2 v=b^5a^3: distinct idempotent family offset=3 step=4 inside the generated subsemigroup\n'
    'suite prop1: 5/5 checks passed\n'
)

_VERIFY_PROP1_JSON = (
    '{"checks": [{"label": "u=b^0a^1 v=b^1a^0: distinct idempotent family offset=0 step=1 inside the generated subsemigroup", '
    '"passed": true}, '
    '{"label": "u=b^0a^1 v=b^3a^2: distinct idempotent family offset=2 step=1 inside the generated subsemigroup", '
    '"passed": true}, '
    '{"label": "u=b^1a^3 v=b^3a^0: distinct idempotent family offset=1 step=6 inside the generated subsemigroup", '
    '"passed": true}, '
    '{"label": "u=b^2a^3 v=b^2a^1: distinct idempotent family offset=2 step=1 inside the generated subsemigroup", '
    '"passed": true}, '
    '{"label": "u=b^0a^2 v=b^5a^3: distinct idempotent family offset=3 step=4 inside the generated subsemigroup", '
    '"passed": true}], "failed": 0, "passed": true, "suite": "prop1", "total": 5}\n'
)

_IMAGE_LEFT_TEXT = (
    '{b^2 a^3} ∪ {b^2 a^4} ∪ {b^2 a^5} ∪ {b^2 a^6} ∪ {b^2 a^7} ∪ {b^2 a^8} ∪ {b^2 a^9} ∪'
    ' {b^2 a^10} ∪ {b^2 a^11} ∪ {b^2 a^12} ∪ {b^2 a^13} ∪ {b^2 a^14} ∪ {b^2 a^15} ∪ {b^2'
    ' a^16} ∪ {b^2 a^17} ∪ {b^2 a^18} ∪ {b^2 a^19} ∪ {b^2 a^20} ∪ {b^2 a^21} ∪ {b^2 a^22}'
    ' ∪ {b^2 a^23} ∪ {b^2 a^24} ∪ {b^2 a^25} ∪ {b^2 a^26} ∪ {b^2 a^27} ∪ {b^2 a^28} ∪'
    ' {b^2 a^29} ∪ {b^2 a^30} ∪ {b^2 a^31} ∪ {b^2 a^33} ∪ {b^2 a^35} ∪ {b^2 a^(32+2t)} ∪'
    ' {b^(3+1t) a^3}\n'
)

_IMAGE_LEFT_JSON = (
    '{"set": [{"k": 2, "l": 3, "type": "single"}, {"k": 2, "l": 4, "type": "single"},'
    ' {"k": 2, "l": 5, "type": "single"}, {"k": 2, "l": 6, "type": "single"}, {"k": 2,'
    ' "l": 7, "type": "single"}, {"k": 2, "l": 8, "type": "single"}, {"k": 2, "l": 9,'
    ' "type": "single"}, {"k": 2, "l": 10, "type": "single"}, {"k": 2, "l": 11, "type":'
    ' "single"}, {"k": 2, "l": 12, "type": "single"}, {"k": 2, "l": 13, "type":'
    ' "single"}, {"k": 2, "l": 14, "type": "single"}, {"k": 2, "l": 15, "type":'
    ' "single"}, {"k": 2, "l": 16, "type": "single"}, {"k": 2, "l": 17, "type":'
    ' "single"}, {"k": 2, "l": 18, "type": "single"}, {"k": 2, "l": 19, "type":'
    ' "single"}, {"k": 2, "l": 20, "type": "single"}, {"k": 2, "l": 21, "type":'
    ' "single"}, {"k": 2, "l": 22, "type": "single"}, {"k": 2, "l": 23, "type":'
    ' "single"}, {"k": 2, "l": 24, "type": "single"}, {"k": 2, "l": 25, "type":'
    ' "single"}, {"k": 2, "l": 26, "type": "single"}, {"k": 2, "l": 27, "type":'
    ' "single"}, {"k": 2, "l": 28, "type": "single"}, {"k": 2, "l": 29, "type":'
    ' "single"}, {"k": 2, "l": 30, "type": "single"}, {"k": 2, "l": 31, "type":'
    ' "single"}, {"k": 2, "l": 33, "type": "single"}, {"k": 2, "l": 35, "type":'
    ' "single"}, {"base": 32, "row": 2, "step": 2, "type": "row_tail"}, {"base": 3,'
    ' "col": 3, "step": 1, "type": "col_tail"}], "text": "{b^2 a^3} \\u222a {b^2 a^4}'
    ' \\u222a {b^2 a^5} \\u222a {b^2 a^6} \\u222a {b^2 a^7} \\u222a {b^2 a^8} \\u222a {b^2'
    ' a^9} \\u222a {b^2 a^10} \\u222a {b^2 a^11} \\u222a {b^2 a^12} \\u222a {b^2 a^13} \\u222a'
    ' {b^2 a^14} \\u222a {b^2 a^15} \\u222a {b^2 a^16} \\u222a {b^2 a^17} \\u222a {b^2 a^18}'
    ' \\u222a {b^2 a^19} \\u222a {b^2 a^20} \\u222a {b^2 a^21} \\u222a {b^2 a^22} \\u222a {b^2'
    ' a^23} \\u222a {b^2 a^24} \\u222a {b^2 a^25} \\u222a {b^2 a^26} \\u222a {b^2 a^27}'
    ' \\u222a {b^2 a^28} \\u222a {b^2 a^29} \\u222a {b^2 a^30} \\u222a {b^2 a^31} \\u222a {b^2'
    ' a^33} \\u222a {b^2 a^35} \\u222a {b^2 a^(32+2t)} \\u222a {b^(3+1t) a^3}"}\n'
)

_IMAGE_RIGHT_TEXT = (
    '{b^2 a^1} ∪ {b^5 a^1} ∪ {b^2 a^(4+3t)} ∪ {b^(6+2t) a^1}\n'
)

_IMAGE_RIGHT_JSON = (
    '{"set": [{"k": 2, "l": 1, "type": "single"}, {"k": 5, "l": 1, "type": "single"},'
    ' {"base": 4, "row": 2, "step": 3, "type": "row_tail"}, {"base": 6, "col": 1, "step":'
    ' 2, "type": "col_tail"}], "text": "{b^2 a^1} \\u222a {b^5 a^1} \\u222a {b^2 a^(4+3t)}'
    ' \\u222a {b^(6+2t) a^1}"}\n'
)

_PRODUCT_TEXT = (
    '{b^0 a^3} ∪ {b^0 a^7} ∪ {b^0 a^11} ∪ {b^0 a^12} ∪ {b^0 a^15} ∪ {b^0 a^16} ∪ {b^0'
    ' a^19} ∪ {b^0 a^20} ∪ {b^0 a^21} ∪ {b^0 a^23} ∪ {b^0 a^24} ∪ {b^0 a^25} ∪ {b^0'
    ' a^(27+1t)} ∪ {b^1 a^(0+9t)}\n'
)

_PRODUCT_JSON = (
    '{"set": [{"k": 0, "l": 3, "type": "single"}, {"k": 0, "l": 7, "type": "single"},'
    ' {"k": 0, "l": 11, "type": "single"}, {"k": 0, "l": 12, "type": "single"}, {"k": 0,'
    ' "l": 15, "type": "single"}, {"k": 0, "l": 16, "type": "single"}, {"k": 0, "l": 19,'
    ' "type": "single"}, {"k": 0, "l": 20, "type": "single"}, {"k": 0, "l": 21, "type":'
    ' "single"}, {"k": 0, "l": 23, "type": "single"}, {"k": 0, "l": 24, "type":'
    ' "single"}, {"k": 0, "l": 25, "type": "single"}, {"base": 27, "row": 0, "step": 1,'
    ' "type": "row_tail"}, {"base": 0, "row": 1, "step": 9, "type": "row_tail"}], "text":'
    ' "{b^0 a^3} \\u222a {b^0 a^7} \\u222a {b^0 a^11} \\u222a {b^0 a^12} \\u222a {b^0 a^15}'
    ' \\u222a {b^0 a^16} \\u222a {b^0 a^19} \\u222a {b^0 a^20} \\u222a {b^0 a^21} \\u222a {b^0'
    ' a^23} \\u222a {b^0 a^24} \\u222a {b^0 a^25} \\u222a {b^0 a^(27+1t)} \\u222a {b^1'
    ' a^(0+9t)}"}\n'
)

_SUBSET_TRUE_TEXT = (
    'true covering_bound=7\n'
)

_SUBSET_TRUE_JSON = (
    '{"counterexample": null, "covering_bound": 7, "holds": true}\n'
)

_SUBSET_FALSE_TEXT = (
    'false counterexample=b^9a^2\n'
)

_SUBSET_FALSE_JSON = (
    '{"counterexample": {"k": 9, "l": 2, "text": "b^9a^2"}, "covering_bound": null,'
    ' "holds": false}\n'
)

# a crossing tail far out on the row: the scan decides the row tail in one
# period, and the bound still reaches one period past the crossing point
_SUBSET_FAR_CROSSER_TEXT = 'true covering_bound=1000001\n'
_SUBSET_FAR_CROSSER_JSON = '{"counterexample": null, "covering_bound": 1000001, "holds": true}\n'

_NBHD_TEXT = (
    '{b^(5+9t) a^2}\n'
)

_NBHD_JSON = (
    '{"set": [{"base": 5, "col": 2, "step": 9, "type": "col_tail"}], "text": "{b^(5+9t)'
    ' a^2}"}\n'
)

_VERIFY_CORE_ORACLE_TEXT = (
    'PASS product b^2a^3 * b^5a^1 = b^4a^1\n'
    'PASS the word ab reduces to the identity\n'
    'PASS the word ba is already normal\n'
    'PASS closed-form product matches word rewriting on a 16x16 grid\n'
    'PASS power closed form matches repeated products up to n=5\n'
    'PASS inversion reverses products on the grid\n'
    'PASS left division by a at a: solutions {1, ba}\n'
    'PASS left division a*X = b^5 has the single solution b^6\n'
    'PASS right division X*b = a^5 has the single solution a^6\n'
    'PASS left division matches a brute scan on a 9x9 grid of instances\n'
    'PASS natural order b^5a^3 <= b^4a^2 with idempotent witness b^3a^3\n'
    'suite core-oracle: 11/11 checks passed\n'
)

_VERIFY_CORE_ORACLE_JSON = (
    '{"checks": [{"label": "product b^2a^3 * b^5a^1 = b^4a^1", "passed": true}, '
    '{"label": "the word ab reduces to the identity", "passed": true}, '
    '{"label": "the word ba is already normal", "passed": true}, '
    '{"label": "closed-form product matches word rewriting on a 16x16 grid", "passed": true}, '
    '{"label": "power closed form matches repeated products up to n=5", "passed": true}, '
    '{"label": "inversion reverses products on the grid", "passed": true}, '
    '{"label": "left division by a at a: solutions {1, ba}", "passed": true}, '
    '{"label": "left division a*X = b^5 has the single solution b^6", "passed": true}, '
    '{"label": "right division X*b = a^5 has the single solution a^6", "passed": true}, '
    '{"label": "left division matches a brute scan on a 9x9 grid of instances", "passed": true}, '
    '{"label": "natural order b^5a^3 <= b^4a^2 with idempotent witness b^3a^3", "passed": true}], "failed": 0, "passed": true, "suite": "core-oracle", "total": 11}\n'
)

_VERIFY_THM1_TEXT = (
    'PASS full at b^1a^2: finite block below index 3\n'
    'PASS full at b^0a^0: finite block below index 1\n'
    'PASS cplus at b^1a^3: finite block below index 4\n'
    'PASS cminus at b^3a^1: finite block below index 4\n'
    'PASS idem at b^2a^2: finite block below index 3\n'
    'PASS full-monoid block size is the square of its index\n'
    'suite thm1: 6/6 checks passed\n'
)

_VERIFY_THM1_JSON = (
    '{"checks": [{"label": "full at b^1a^2: finite block below index 3", "passed": true}, '
    '{"label": "full at b^0a^0: finite block below index 1", "passed": true}, '
    '{"label": "cplus at b^1a^3: finite block below index 4", "passed": true}, '
    '{"label": "cminus at b^3a^1: finite block below index 4", "passed": true}, '
    '{"label": "idem at b^2a^2: finite block below index 3", "passed": true}, '
    '{"label": "full-monoid block size is the square of its index", "passed": true}], "failed": 0, "passed": true, "suite": "thm1", "total": 6}\n'
)

_VERIFY_THM2_TEXT = (
    'PASS all 330 division replays with parameters <= 8: finite verified solution sets\n'
    'PASS left and right division match a brute scan over a 30x30 window\n'
    'suite thm2: 2/2 checks passed\n'
)

_VERIFY_THM2_JSON = (
    '{"checks": [{"label": "all 330 division replays with parameters <= 8: finite verified solution sets", "passed": true}, '
    '{"label": "left and right division match a brute scan over a 30x30 window", "passed": true}], "failed": 0, "passed": true, "suite": "thm2", "total": 2}\n'
)

_VERIFY_HAUSDORFF_TEXT = (
    'PASS padic+:2: every basic neighborhood contains its own point\n'
    'PASS padic+:2: the neighborhood chain is nested\n'
    'PASS padic+:2: carrier holds the sample and its pairwise products\n'
    'PASS padic+:2: 10 sampled points are pairwise separated\n'
    'PASS padic+:3: every basic neighborhood contains its own point\n'
    'PASS padic+:3: the neighborhood chain is nested\n'
    'PASS padic+:3: carrier holds the sample and its pairwise products\n'
    'PASS padic+:3: 10 sampled points are pairwise separated\n'
    'PASS padic-:2: every basic neighborhood contains its own point\n'
    'PASS padic-:2: the neighborhood chain is nested\n'
    'PASS padic-:2: carrier holds the sample and its pairwise products\n'
    'PASS padic-:2: 10 sampled points are pairwise separated\n'
    'PASS padic-:3: every basic neighborhood contains its own point\n'
    'PASS padic-:3: the neighborhood chain is nested\n'
    'PASS padic-:3: carrier holds the sample and its pairwise products\n'
    'PASS padic-:3: 10 sampled points are pairwise separated\n'
    'PASS window:2:0:2: every basic neighborhood contains its own point\n'
    'PASS window:2:0:2: the neighborhood chain is nested\n'
    'PASS window:2:0:2: carrier holds the sample and its pairwise products\n'
    'PASS window:2:0:2: 12 sampled points are pairwise separated\n'
    'PASS window:3:1:3: every basic neighborhood contains its own point\n'
    'PASS window:3:1:3: the neighborhood chain is nested\n'
    'PASS window:3:1:3: carrier holds the sample and its pairwise products\n'
    'PASS window:3:1:3: 12 sampled points are pairwise separated\n'
    'PASS discrete:full: every basic neighborhood contains its own point\n'
    'PASS discrete:full: the neighborhood chain is nested\n'
    'PASS discrete:full: carrier holds the sample and its pairwise products\n'
    'PASS discrete:full: 9 sampled points are pairwise separated\n'
    'PASS discrete:full: every shift and joint continuity check passes\n'
    'suite hausdorff: 29/29 checks passed\n'
)

_VERIFY_HAUSDORFF_JSON = (
    '{"checks": [{"label": "padic+:2: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "padic+:2: the neighborhood chain is nested", "passed": true}, '
    '{"label": "padic+:2: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "padic+:2: 10 sampled points are pairwise separated", "passed": true}, '
    '{"label": "padic+:3: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "padic+:3: the neighborhood chain is nested", "passed": true}, '
    '{"label": "padic+:3: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "padic+:3: 10 sampled points are pairwise separated", "passed": true}, '
    '{"label": "padic-:2: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "padic-:2: the neighborhood chain is nested", "passed": true}, '
    '{"label": "padic-:2: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "padic-:2: 10 sampled points are pairwise separated", "passed": true}, '
    '{"label": "padic-:3: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "padic-:3: the neighborhood chain is nested", "passed": true}, '
    '{"label": "padic-:3: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "padic-:3: 10 sampled points are pairwise separated", "passed": true}, '
    '{"label": "window:2:0:2: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "window:2:0:2: the neighborhood chain is nested", "passed": true}, '
    '{"label": "window:2:0:2: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "window:2:0:2: 12 sampled points are pairwise separated", "passed": true}, '
    '{"label": "window:3:1:3: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "window:3:1:3: the neighborhood chain is nested", "passed": true}, '
    '{"label": "window:3:1:3: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "window:3:1:3: 12 sampled points are pairwise separated", "passed": true}, '
    '{"label": "discrete:full: every basic neighborhood contains its own point", "passed": true}, '
    '{"label": "discrete:full: the neighborhood chain is nested", "passed": true}, '
    '{"label": "discrete:full: carrier holds the sample and its pairwise products", "passed": true}, '
    '{"label": "discrete:full: 9 sampled points are pairwise separated", "passed": true}, '
    '{"label": "discrete:full: every shift and joint continuity check passes", "passed": true}], "failed": 0, "passed": true, "suite": "hausdorff", "total": 29}\n'
)

_VERIFY_PROP2_TEXT = (
    'PASS window:2:0:2 bound=6: every cell of the joint sweep is continuous\n'
    'PASS window:2:0:2 bound=6: fourth-case product sets sit inside the target neighborhood\n'
    'PASS window:2:0:2 bound=6: neighborhood equality follows the isolation dichotomy\n'
    'PASS window:2:0:2 bound=6: all four isolation cases appear in the sweep\n'
    'suite prop2: 4/4 checks passed\n'
)

_VERIFY_PROP2_JSON = (
    '{"checks": [{"label": "window:2:0:2 bound=6: every cell of the joint sweep is continuous", "passed": true}, '
    '{"label": "window:2:0:2 bound=6: fourth-case product sets sit inside the target neighborhood", "passed": true}, '
    '{"label": "window:2:0:2 bound=6: neighborhood equality follows the isolation dichotomy", "passed": true}, '
    '{"label": "window:2:0:2 bound=6: all four isolation cases appear in the sweep", "passed": true}], "failed": 0, "passed": true, "suite": "prop2", "total": 4}\n'
)

_CHECK_SHIFT_ESCAPES_TEXT = (
    'discontinuous t=1\n'
    'reason: the image always contains a tail along row 0, but target neighborhoods live along row 1\n'
    '  k=1 escape=b^0a^2\n  k=2 escape=b^0a^4\n  k=3 escape=b^0a^8\n  k=4 escape=b^0a^16\n'
)
_CHECK_SHIFT_ESCAPES_JSON = (
    '{"verdict": {"counterexamples": [[1, {"k": 0, "l": 2, "text": "b^0a^2"}], '
    '[2, {"k": 0, "l": 4, "text": "b^0a^4"}], [3, {"k": 0, "l": 8, "text": "b^0a^8"}], '
    '[4, {"k": 0, "l": 16, "text": "b^0a^16"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along row 0, but target neighborhoods live along row 1", '
    '"target_index": 1}}\n'
)

_CHECK_SHIFT_FAR_ESCAPES_TEXT = (
    'discontinuous t=1\n'
    'reason: the image always contains a tail along row 0, but target neighborhoods live along row 999999\n'
    '  k=1 escape=b^1a^1000000\n  k=2 escape=b^3a^1000000\n  k=3 escape=b^7a^1000000\n'
    '  k=4 escape=b^15a^1000000\n'
)
_CHECK_SHIFT_FAR_ESCAPES_JSON = (
    '{"verdict": {"counterexamples": [[1, {"k": 1, "l": 1000000, "text": "b^1a^1000000"}], '
    '[2, {"k": 3, "l": 1000000, "text": "b^3a^1000000"}], [3, {"k": 7, "l": 1000000, "text": "b^7a^1000000"}], '
    '[4, {"k": 15, "l": 1000000, "text": "b^15a^1000000"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along row 0, but target neighborhoods live along row 999999", '
    '"target_index": 1}}\n'
)

_CHECK_SHIFT_TAIL_MODULUS_TEXT = 'continuous t=3 k=3\n'
_CHECK_SHIFT_TAIL_MODULUS_JSON = '{"verdict": {"kind": "continuous", "modulus": [[3, 3]]}}\n'

_CHECK_JOINT_EQUALITY_TEXT = 'continuous t=2 k=2 equality=true\n'
_CHECK_JOINT_EQUALITY_JSON = '{"equality": true, "verdict": {"kind": "continuous", "modulus": [[2, 2]]}}\n'

_CHECK_JOINT_DISCONTINUOUS_TEXT = (
    'discontinuous t=1\n'
    'reason: the image always contains a tail along row 0, but target neighborhoods live along row 3\n'
    '  k=1 escape=b^0a^4\n  k=2 escape=b^0a^4\n  k=3 escape=b^0a^8\n  k=4 escape=b^0a^16\n'
)
_CHECK_JOINT_DISCONTINUOUS_JSON = (
    '{"verdict": {"counterexamples": [[1, {"k": 0, "l": 4, "text": "b^0a^4"}], '
    '[2, {"k": 0, "l": 4, "text": "b^0a^4"}], [3, {"k": 0, "l": 8, "text": "b^0a^8"}], '
    '[4, {"k": 0, "l": 16, "text": "b^0a^16"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along row 0, but target neighborhoods live along row 3", '
    '"target_index": 1}}\n'
)

_CHECK_SHIFT_COLUMN_TEXT = (
    'discontinuous t=1\n'
    'reason: the image always contains a tail along col 0, but target neighborhoods live along col 1\n'
    '  k=1 escape=b^2a^0\n  k=2 escape=b^4a^0\n  k=3 escape=b^8a^0\n  k=4 escape=b^16a^0\n'
)
_CHECK_SHIFT_COLUMN_JSON = (
    '{"verdict": {"counterexamples": [[1, {"k": 2, "l": 0, "text": "b^2a^0"}], '
    '[2, {"k": 4, "l": 0, "text": "b^4a^0"}], [3, {"k": 8, "l": 0, "text": "b^8a^0"}], '
    '[4, {"k": 16, "l": 0, "text": "b^16a^0"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along col 0, but target neighborhoods live along col 1", '
    '"target_index": 1}}\n'
)

_CHECK_JOINT_COLUMN_TEXT = (
    'discontinuous t=1\n'
    'reason: the image always contains a tail along col 0, but target neighborhoods live along col 3\n'
    '  k=1 escape=b^4a^0\n  k=2 escape=b^4a^0\n  k=3 escape=b^8a^0\n  k=4 escape=b^16a^0\n'
)
_CHECK_JOINT_COLUMN_JSON = (
    '{"verdict": {"counterexamples": [[1, {"k": 4, "l": 0, "text": "b^4a^0"}], '
    '[2, {"k": 4, "l": 0, "text": "b^4a^0"}], [3, {"k": 8, "l": 0, "text": "b^8a^0"}], '
    '[4, {"k": 16, "l": 0, "text": "b^16a^0"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along col 0, but target neighborhoods live along col 3", '
    '"target_index": 1}}\n'
)

_FIND_DISCONTINUITY_FOUND_TEXT = (
    'found s=b^1a^1 x=b^0a^0 t=1\n'
    'reason: the image always contains a tail along row 0, but target neighborhoods live along row 1\n'
)
_FIND_DISCONTINUITY_FOUND_JSON = (
    '{"found": true, "witness": {"s": {"k": 1, "l": 1, "text": "b^1a^1"}, "t": 1, '
    '"verdict": {"counterexamples": [[1, {"k": 0, "l": 2, "text": "b^0a^2"}], '
    '[2, {"k": 0, "l": 4, "text": "b^0a^4"}], [3, {"k": 0, "l": 8, "text": "b^0a^8"}], '
    '[4, {"k": 0, "l": 16, "text": "b^0a^16"}]], "kind": "discontinuous", '
    '"structural_reason": "the image always contains a tail along row 0, but target neighborhoods live along row 1", '
    '"target_index": 1}, "x": {"k": 0, "l": 0, "text": "b^0a^0"}}}\n'
)

_FIND_DISCONTINUITY_NONE_TEXT = 'none\n'
_FIND_DISCONTINUITY_NONE_JSON = '{"found": false, "witness": null}\n'

_CLOSURE_BOUND30_TEXT = (
    'saturated=false count=240\nb^1a^1\nb^1a^3\nb^1a^5\nb^1a^7\nb^1a^9\nb^1a^11\n'
    'b^1a^13\nb^1a^15\nb^1a^17\nb^1a^19\nb^1a^21\nb^1a^23\nb^1a^25\nb^1a^27\nb^1a^29\n'
    'b^2a^0\nb^3a^1\nb^3a^3\nb^3a^5\nb^3a^7\nb^3a^9\nb^3a^11\nb^3a^13\nb^3a^15\n'
    'b^3a^17\nb^3a^19\nb^3a^21\nb^3a^23\nb^3a^25\nb^3a^27\nb^3a^29\nb^4a^0\nb^5a^1\n'
    'b^5a^3\nb^5a^5\nb^5a^7\nb^5a^9\nb^5a^11\nb^5a^13\nb^5a^15\nb^5a^17\nb^5a^19\n'
    'b^5a^21\nb^5a^23\nb^5a^25\nb^5a^27\nb^5a^29\nb^6a^0\nb^7a^1\nb^7a^3\nb^7a^5\n'
    'b^7a^7\nb^7a^9\nb^7a^11\nb^7a^13\nb^7a^15\nb^7a^17\nb^7a^19\nb^7a^21\nb^7a^23\n'
    'b^7a^25\nb^7a^27\nb^7a^29\nb^8a^0\nb^9a^1\nb^9a^3\nb^9a^5\nb^9a^7\nb^9a^9\n'
    'b^9a^11\nb^9a^13\nb^9a^15\nb^9a^17\nb^9a^19\nb^9a^21\nb^9a^23\nb^9a^25\nb^9a^27\n'
    'b^9a^29\nb^10a^0\nb^11a^1\nb^11a^3\nb^11a^5\nb^11a^7\nb^11a^9\nb^11a^11\n'
    'b^11a^13\nb^11a^15\nb^11a^17\nb^11a^19\nb^11a^21\nb^11a^23\nb^11a^25\nb^11a^27\n'
    'b^11a^29\nb^12a^0\nb^13a^1\nb^13a^3\nb^13a^5\nb^13a^7\nb^13a^9\nb^13a^11\n'
    'b^13a^13\nb^13a^15\nb^13a^17\nb^13a^19\nb^13a^21\nb^13a^23\nb^13a^25\nb^13a^27\n'
    'b^13a^29\nb^14a^0\nb^15a^1\nb^15a^3\nb^15a^5\nb^15a^7\nb^15a^9\nb^15a^11\n'
    'b^15a^13\nb^15a^15\nb^15a^17\nb^15a^19\nb^15a^21\nb^15a^23\nb^15a^25\nb^15a^27\n'
    'b^15a^29\nb^16a^0\nb^17a^1\nb^17a^3\nb^17a^5\nb^17a^7\nb^17a^9\nb^17a^11\n'
    'b^17a^13\nb^17a^15\nb^17a^17\nb^17a^19\nb^17a^21\nb^17a^23\nb^17a^25\nb^17a^27\n'
    'b^17a^29\nb^18a^0\nb^19a^1\nb^19a^3\nb^19a^5\nb^19a^7\nb^19a^9\nb^19a^11\n'
    'b^19a^13\nb^19a^15\nb^19a^17\nb^19a^19\nb^19a^21\nb^19a^23\nb^19a^25\nb^19a^27\n'
    'b^19a^29\nb^20a^0\nb^21a^1\nb^21a^3\nb^21a^5\nb^21a^7\nb^21a^9\nb^21a^11\n'
    'b^21a^13\nb^21a^15\nb^21a^17\nb^21a^19\nb^21a^21\nb^21a^23\nb^21a^25\nb^21a^27\n'
    'b^21a^29\nb^22a^0\nb^23a^1\nb^23a^3\nb^23a^5\nb^23a^7\nb^23a^9\nb^23a^11\n'
    'b^23a^13\nb^23a^15\nb^23a^17\nb^23a^19\nb^23a^21\nb^23a^23\nb^23a^25\nb^23a^27\n'
    'b^23a^29\nb^24a^0\nb^25a^1\nb^25a^3\nb^25a^5\nb^25a^7\nb^25a^9\nb^25a^11\n'
    'b^25a^13\nb^25a^15\nb^25a^17\nb^25a^19\nb^25a^21\nb^25a^23\nb^25a^25\nb^25a^27\n'
    'b^25a^29\nb^26a^0\nb^27a^1\nb^27a^3\nb^27a^5\nb^27a^7\nb^27a^9\nb^27a^11\n'
    'b^27a^13\nb^27a^15\nb^27a^17\nb^27a^19\nb^27a^21\nb^27a^23\nb^27a^25\nb^27a^27\n'
    'b^27a^29\nb^28a^0\nb^29a^1\nb^29a^3\nb^29a^5\nb^29a^7\nb^29a^9\nb^29a^11\n'
    'b^29a^13\nb^29a^15\nb^29a^17\nb^29a^19\nb^29a^21\nb^29a^23\nb^29a^25\nb^29a^27\n'
    'b^29a^29\nb^30a^0\n'
)

_CLOSURE_BOUND30_JSON = (
    '{"bound": 30, "count": 240, "members": [{"k": 1, "l": 1, "text": "b^1a^1"}, '
    '{"k": 1, "l": 3, "text": "b^1a^3"}, {"k": 1, "l": 5, "text": "b^1a^5"}, {"k": 1, '
    '"l": 7, "text": "b^1a^7"}, {"k": 1, "l": 9, "text": "b^1a^9"}, {"k": 1, "l": 11, '
    '"text": "b^1a^11"}, {"k": 1, "l": 13, "text": "b^1a^13"}, {"k": 1, "l": 15, '
    '"text": "b^1a^15"}, {"k": 1, "l": 17, "text": "b^1a^17"}, {"k": 1, "l": 19, '
    '"text": "b^1a^19"}, {"k": 1, "l": 21, "text": "b^1a^21"}, {"k": 1, "l": 23, '
    '"text": "b^1a^23"}, {"k": 1, "l": 25, "text": "b^1a^25"}, {"k": 1, "l": 27, '
    '"text": "b^1a^27"}, {"k": 1, "l": 29, "text": "b^1a^29"}, {"k": 2, "l": 0, '
    '"text": "b^2a^0"}, {"k": 3, "l": 1, "text": "b^3a^1"}, {"k": 3, "l": 3, '
    '"text": "b^3a^3"}, {"k": 3, "l": 5, "text": "b^3a^5"}, {"k": 3, "l": 7, '
    '"text": "b^3a^7"}, {"k": 3, "l": 9, "text": "b^3a^9"}, {"k": 3, "l": 11, '
    '"text": "b^3a^11"}, {"k": 3, "l": 13, "text": "b^3a^13"}, {"k": 3, "l": 15, '
    '"text": "b^3a^15"}, {"k": 3, "l": 17, "text": "b^3a^17"}, {"k": 3, "l": 19, '
    '"text": "b^3a^19"}, {"k": 3, "l": 21, "text": "b^3a^21"}, {"k": 3, "l": 23, '
    '"text": "b^3a^23"}, {"k": 3, "l": 25, "text": "b^3a^25"}, {"k": 3, "l": 27, '
    '"text": "b^3a^27"}, {"k": 3, "l": 29, "text": "b^3a^29"}, {"k": 4, "l": 0, '
    '"text": "b^4a^0"}, {"k": 5, "l": 1, "text": "b^5a^1"}, {"k": 5, "l": 3, '
    '"text": "b^5a^3"}, {"k": 5, "l": 5, "text": "b^5a^5"}, {"k": 5, "l": 7, '
    '"text": "b^5a^7"}, {"k": 5, "l": 9, "text": "b^5a^9"}, {"k": 5, "l": 11, '
    '"text": "b^5a^11"}, {"k": 5, "l": 13, "text": "b^5a^13"}, {"k": 5, "l": 15, '
    '"text": "b^5a^15"}, {"k": 5, "l": 17, "text": "b^5a^17"}, {"k": 5, "l": 19, '
    '"text": "b^5a^19"}, {"k": 5, "l": 21, "text": "b^5a^21"}, {"k": 5, "l": 23, '
    '"text": "b^5a^23"}, {"k": 5, "l": 25, "text": "b^5a^25"}, {"k": 5, "l": 27, '
    '"text": "b^5a^27"}, {"k": 5, "l": 29, "text": "b^5a^29"}, {"k": 6, "l": 0, '
    '"text": "b^6a^0"}, {"k": 7, "l": 1, "text": "b^7a^1"}, {"k": 7, "l": 3, '
    '"text": "b^7a^3"}, {"k": 7, "l": 5, "text": "b^7a^5"}, {"k": 7, "l": 7, '
    '"text": "b^7a^7"}, {"k": 7, "l": 9, "text": "b^7a^9"}, {"k": 7, "l": 11, '
    '"text": "b^7a^11"}, {"k": 7, "l": 13, "text": "b^7a^13"}, {"k": 7, "l": 15, '
    '"text": "b^7a^15"}, {"k": 7, "l": 17, "text": "b^7a^17"}, {"k": 7, "l": 19, '
    '"text": "b^7a^19"}, {"k": 7, "l": 21, "text": "b^7a^21"}, {"k": 7, "l": 23, '
    '"text": "b^7a^23"}, {"k": 7, "l": 25, "text": "b^7a^25"}, {"k": 7, "l": 27, '
    '"text": "b^7a^27"}, {"k": 7, "l": 29, "text": "b^7a^29"}, {"k": 8, "l": 0, '
    '"text": "b^8a^0"}, {"k": 9, "l": 1, "text": "b^9a^1"}, {"k": 9, "l": 3, '
    '"text": "b^9a^3"}, {"k": 9, "l": 5, "text": "b^9a^5"}, {"k": 9, "l": 7, '
    '"text": "b^9a^7"}, {"k": 9, "l": 9, "text": "b^9a^9"}, {"k": 9, "l": 11, '
    '"text": "b^9a^11"}, {"k": 9, "l": 13, "text": "b^9a^13"}, {"k": 9, "l": 15, '
    '"text": "b^9a^15"}, {"k": 9, "l": 17, "text": "b^9a^17"}, {"k": 9, "l": 19, '
    '"text": "b^9a^19"}, {"k": 9, "l": 21, "text": "b^9a^21"}, {"k": 9, "l": 23, '
    '"text": "b^9a^23"}, {"k": 9, "l": 25, "text": "b^9a^25"}, {"k": 9, "l": 27, '
    '"text": "b^9a^27"}, {"k": 9, "l": 29, "text": "b^9a^29"}, {"k": 10, "l": 0, '
    '"text": "b^10a^0"}, {"k": 11, "l": 1, "text": "b^11a^1"}, {"k": 11, "l": 3, '
    '"text": "b^11a^3"}, {"k": 11, "l": 5, "text": "b^11a^5"}, {"k": 11, "l": 7, '
    '"text": "b^11a^7"}, {"k": 11, "l": 9, "text": "b^11a^9"}, {"k": 11, "l": 11, '
    '"text": "b^11a^11"}, {"k": 11, "l": 13, "text": "b^11a^13"}, {"k": 11, "l": 15, '
    '"text": "b^11a^15"}, {"k": 11, "l": 17, "text": "b^11a^17"}, {"k": 11, "l": 19, '
    '"text": "b^11a^19"}, {"k": 11, "l": 21, "text": "b^11a^21"}, {"k": 11, "l": 23, '
    '"text": "b^11a^23"}, {"k": 11, "l": 25, "text": "b^11a^25"}, {"k": 11, "l": 27, '
    '"text": "b^11a^27"}, {"k": 11, "l": 29, "text": "b^11a^29"}, {"k": 12, "l": 0, '
    '"text": "b^12a^0"}, {"k": 13, "l": 1, "text": "b^13a^1"}, {"k": 13, "l": 3, '
    '"text": "b^13a^3"}, {"k": 13, "l": 5, "text": "b^13a^5"}, {"k": 13, "l": 7, '
    '"text": "b^13a^7"}, {"k": 13, "l": 9, "text": "b^13a^9"}, {"k": 13, "l": 11, '
    '"text": "b^13a^11"}, {"k": 13, "l": 13, "text": "b^13a^13"}, {"k": 13, "l": 15, '
    '"text": "b^13a^15"}, {"k": 13, "l": 17, "text": "b^13a^17"}, {"k": 13, "l": 19, '
    '"text": "b^13a^19"}, {"k": 13, "l": 21, "text": "b^13a^21"}, {"k": 13, "l": 23, '
    '"text": "b^13a^23"}, {"k": 13, "l": 25, "text": "b^13a^25"}, {"k": 13, "l": 27, '
    '"text": "b^13a^27"}, {"k": 13, "l": 29, "text": "b^13a^29"}, {"k": 14, "l": 0, '
    '"text": "b^14a^0"}, {"k": 15, "l": 1, "text": "b^15a^1"}, {"k": 15, "l": 3, '
    '"text": "b^15a^3"}, {"k": 15, "l": 5, "text": "b^15a^5"}, {"k": 15, "l": 7, '
    '"text": "b^15a^7"}, {"k": 15, "l": 9, "text": "b^15a^9"}, {"k": 15, "l": 11, '
    '"text": "b^15a^11"}, {"k": 15, "l": 13, "text": "b^15a^13"}, {"k": 15, "l": 15, '
    '"text": "b^15a^15"}, {"k": 15, "l": 17, "text": "b^15a^17"}, {"k": 15, "l": 19, '
    '"text": "b^15a^19"}, {"k": 15, "l": 21, "text": "b^15a^21"}, {"k": 15, "l": 23, '
    '"text": "b^15a^23"}, {"k": 15, "l": 25, "text": "b^15a^25"}, {"k": 15, "l": 27, '
    '"text": "b^15a^27"}, {"k": 15, "l": 29, "text": "b^15a^29"}, {"k": 16, "l": 0, '
    '"text": "b^16a^0"}, {"k": 17, "l": 1, "text": "b^17a^1"}, {"k": 17, "l": 3, '
    '"text": "b^17a^3"}, {"k": 17, "l": 5, "text": "b^17a^5"}, {"k": 17, "l": 7, '
    '"text": "b^17a^7"}, {"k": 17, "l": 9, "text": "b^17a^9"}, {"k": 17, "l": 11, '
    '"text": "b^17a^11"}, {"k": 17, "l": 13, "text": "b^17a^13"}, {"k": 17, "l": 15, '
    '"text": "b^17a^15"}, {"k": 17, "l": 17, "text": "b^17a^17"}, {"k": 17, "l": 19, '
    '"text": "b^17a^19"}, {"k": 17, "l": 21, "text": "b^17a^21"}, {"k": 17, "l": 23, '
    '"text": "b^17a^23"}, {"k": 17, "l": 25, "text": "b^17a^25"}, {"k": 17, "l": 27, '
    '"text": "b^17a^27"}, {"k": 17, "l": 29, "text": "b^17a^29"}, {"k": 18, "l": 0, '
    '"text": "b^18a^0"}, {"k": 19, "l": 1, "text": "b^19a^1"}, {"k": 19, "l": 3, '
    '"text": "b^19a^3"}, {"k": 19, "l": 5, "text": "b^19a^5"}, {"k": 19, "l": 7, '
    '"text": "b^19a^7"}, {"k": 19, "l": 9, "text": "b^19a^9"}, {"k": 19, "l": 11, '
    '"text": "b^19a^11"}, {"k": 19, "l": 13, "text": "b^19a^13"}, {"k": 19, "l": 15, '
    '"text": "b^19a^15"}, {"k": 19, "l": 17, "text": "b^19a^17"}, {"k": 19, "l": 19, '
    '"text": "b^19a^19"}, {"k": 19, "l": 21, "text": "b^19a^21"}, {"k": 19, "l": 23, '
    '"text": "b^19a^23"}, {"k": 19, "l": 25, "text": "b^19a^25"}, {"k": 19, "l": 27, '
    '"text": "b^19a^27"}, {"k": 19, "l": 29, "text": "b^19a^29"}, {"k": 20, "l": 0, '
    '"text": "b^20a^0"}, {"k": 21, "l": 1, "text": "b^21a^1"}, {"k": 21, "l": 3, '
    '"text": "b^21a^3"}, {"k": 21, "l": 5, "text": "b^21a^5"}, {"k": 21, "l": 7, '
    '"text": "b^21a^7"}, {"k": 21, "l": 9, "text": "b^21a^9"}, {"k": 21, "l": 11, '
    '"text": "b^21a^11"}, {"k": 21, "l": 13, "text": "b^21a^13"}, {"k": 21, "l": 15, '
    '"text": "b^21a^15"}, {"k": 21, "l": 17, "text": "b^21a^17"}, {"k": 21, "l": 19, '
    '"text": "b^21a^19"}, {"k": 21, "l": 21, "text": "b^21a^21"}, {"k": 21, "l": 23, '
    '"text": "b^21a^23"}, {"k": 21, "l": 25, "text": "b^21a^25"}, {"k": 21, "l": 27, '
    '"text": "b^21a^27"}, {"k": 21, "l": 29, "text": "b^21a^29"}, {"k": 22, "l": 0, '
    '"text": "b^22a^0"}, {"k": 23, "l": 1, "text": "b^23a^1"}, {"k": 23, "l": 3, '
    '"text": "b^23a^3"}, {"k": 23, "l": 5, "text": "b^23a^5"}, {"k": 23, "l": 7, '
    '"text": "b^23a^7"}, {"k": 23, "l": 9, "text": "b^23a^9"}, {"k": 23, "l": 11, '
    '"text": "b^23a^11"}, {"k": 23, "l": 13, "text": "b^23a^13"}, {"k": 23, "l": 15, '
    '"text": "b^23a^15"}, {"k": 23, "l": 17, "text": "b^23a^17"}, {"k": 23, "l": 19, '
    '"text": "b^23a^19"}, {"k": 23, "l": 21, "text": "b^23a^21"}, {"k": 23, "l": 23, '
    '"text": "b^23a^23"}, {"k": 23, "l": 25, "text": "b^23a^25"}, {"k": 23, "l": 27, '
    '"text": "b^23a^27"}, {"k": 23, "l": 29, "text": "b^23a^29"}, {"k": 24, "l": 0, '
    '"text": "b^24a^0"}, {"k": 25, "l": 1, "text": "b^25a^1"}, {"k": 25, "l": 3, '
    '"text": "b^25a^3"}, {"k": 25, "l": 5, "text": "b^25a^5"}, {"k": 25, "l": 7, '
    '"text": "b^25a^7"}, {"k": 25, "l": 9, "text": "b^25a^9"}, {"k": 25, "l": 11, '
    '"text": "b^25a^11"}, {"k": 25, "l": 13, "text": "b^25a^13"}, {"k": 25, "l": 15, '
    '"text": "b^25a^15"}, {"k": 25, "l": 17, "text": "b^25a^17"}, {"k": 25, "l": 19, '
    '"text": "b^25a^19"}, {"k": 25, "l": 21, "text": "b^25a^21"}, {"k": 25, "l": 23, '
    '"text": "b^25a^23"}, {"k": 25, "l": 25, "text": "b^25a^25"}, {"k": 25, "l": 27, '
    '"text": "b^25a^27"}, {"k": 25, "l": 29, "text": "b^25a^29"}, {"k": 26, "l": 0, '
    '"text": "b^26a^0"}, {"k": 27, "l": 1, "text": "b^27a^1"}, {"k": 27, "l": 3, '
    '"text": "b^27a^3"}, {"k": 27, "l": 5, "text": "b^27a^5"}, {"k": 27, "l": 7, '
    '"text": "b^27a^7"}, {"k": 27, "l": 9, "text": "b^27a^9"}, {"k": 27, "l": 11, '
    '"text": "b^27a^11"}, {"k": 27, "l": 13, "text": "b^27a^13"}, {"k": 27, "l": 15, '
    '"text": "b^27a^15"}, {"k": 27, "l": 17, "text": "b^27a^17"}, {"k": 27, "l": 19, '
    '"text": "b^27a^19"}, {"k": 27, "l": 21, "text": "b^27a^21"}, {"k": 27, "l": 23, '
    '"text": "b^27a^23"}, {"k": 27, "l": 25, "text": "b^27a^25"}, {"k": 27, "l": 27, '
    '"text": "b^27a^27"}, {"k": 27, "l": 29, "text": "b^27a^29"}, {"k": 28, "l": 0, '
    '"text": "b^28a^0"}, {"k": 29, "l": 1, "text": "b^29a^1"}, {"k": 29, "l": 3, '
    '"text": "b^29a^3"}, {"k": 29, "l": 5, "text": "b^29a^5"}, {"k": 29, "l": 7, '
    '"text": "b^29a^7"}, {"k": 29, "l": 9, "text": "b^29a^9"}, {"k": 29, "l": 11, '
    '"text": "b^29a^11"}, {"k": 29, "l": 13, "text": "b^29a^13"}, {"k": 29, "l": 15, '
    '"text": "b^29a^15"}, {"k": 29, "l": 17, "text": "b^29a^17"}, {"k": 29, "l": 19, '
    '"text": "b^29a^19"}, {"k": 29, "l": 21, "text": "b^29a^21"}, {"k": 29, "l": 23, '
    '"text": "b^29a^23"}, {"k": 29, "l": 25, "text": "b^29a^25"}, {"k": 29, "l": 27, '
    '"text": "b^29a^27"}, {"k": 29, "l": 29, "text": "b^29a^29"}, {"k": 30, "l": 0, '
    '"text": "b^30a^0"}], "saturated": false}\n'
)

_CENSUS_BOUND30_TEXT = (
    'count=15 verdict=infinite witness=b^1a^3,b^2a^0 note=strict pair generates an infinite diagonal family\n'
)

_CENSUS_BOUND30_JSON = (
    '{"bound": 30, "count": 15, "descriptor": "gen:b^1a^3,b^2a^0", '
    '"note": "strict pair generates an infinite diagonal family", '
    '"verdict": "infinite", "witness": [{"k": 1, "l": 3, "text": "b^1a^3"}, {"k": 2, '
    '"l": 0, "text": "b^2a^0"}]}\n'
)

_THM1_NBHD_BOUND20_TEXT = (
    'i0=3 size=9\nb^0a^0 b^0a^1 b^0a^2 b^1a^0 b^1a^1 b^1a^2 b^2a^0 b^2a^1 b^2a^2\n'
)

_THM1_NBHD_BOUND20_JSON = (
    '{"descriptor": "gen:b^0a^1,b^2a^0", "elements": [{"k": 0, "l": 0, '
    '"text": "b^0a^0"}, {"k": 0, "l": 1, "text": "b^0a^1"}, {"k": 0, "l": 2, '
    '"text": "b^0a^2"}, {"k": 1, "l": 0, "text": "b^1a^0"}, {"k": 1, "l": 1, '
    '"text": "b^1a^1"}, {"k": 1, "l": 2, "text": "b^1a^2"}, {"k": 2, "l": 0, '
    '"text": "b^2a^0"}, {"k": 2, "l": 1, "text": "b^2a^1"}, {"k": 2, "l": 2, '
    '"text": "b^2a^2"}], "i0": 3, "size": 9}\n'
)


# the bytes that the translate complement printed at --bound 14; at --bound 3000
# (full) and 2000 (cplus) it ran out of memory listing the window
_THM1_NBHD_FULL_TEXT = _THM1_NBHD_TEXT

_THM1_NBHD_FULL_JSON = (
    '{"descriptor": "full", "elements": [{"k": 0, "l": 0, "text": "b^0a^0"}, '
    '{"k": 0, "l": 1, "text": "b^0a^1"}, {"k": 0, "l": 2, "text": "b^0a^2"}, {"k": 1, '
    '"l": 0, "text": "b^1a^0"}, {"k": 1, "l": 1, "text": "b^1a^1"}, {"k": 1, "l": 2, '
    '"text": "b^1a^2"}, {"k": 2, "l": 0, "text": "b^2a^0"}, {"k": 2, "l": 1, '
    '"text": "b^2a^1"}, {"k": 2, "l": 2, "text": "b^2a^2"}], "i0": 3, "size": 9}\n'
)

_THM1_NBHD_CPLUS_TEXT = 'i0=3 size=6\nb^0a^0 b^0a^1 b^0a^2 b^1a^1 b^1a^2 b^2a^2\n'

_THM1_NBHD_CPLUS_JSON = (
    '{"descriptor": "cplus", "elements": [{"k": 0, "l": 0, "text": "b^0a^0"}, '
    '{"k": 0, "l": 1, "text": "b^0a^1"}, {"k": 0, "l": 2, "text": "b^0a^2"}, {"k": 1, '
    '"l": 1, "text": "b^1a^1"}, {"k": 1, "l": 2, "text": "b^1a^2"}, {"k": 2, "l": 2, '
    '"text": "b^2a^2"}], "i0": 3, "size": 6}\n'
)


class _Sha256(str):
    """A golden kept as the sha256 hex digest of its bytes, for outputs too long to inline."""


# the whole box at bound 40: 1,681 members, 14 KB of text and 64 KB of JSON
_CLOSURE_FULL_BOX_TEXT = _Sha256("dc243435beb711b78dea6a28334ded62264371ee481e4a112df373f02ed9a555")
_CLOSURE_FULL_BOX_JSON = _Sha256("71a7baf39693ef11026c52fa524f14bd11529e88b6e61e10313e73816cc00df2")
# a column x column product with coprime steps 13 and 31: 180 points below the conductor
_PRODUCT_COLS_TEXT = _Sha256("28c4e46b4cd7a409bbf751dbdddba71b8158d406de65fb964d1e67db8e41d3f4")
_PRODUCT_COLS_JSON = _Sha256("7bc07fc2530a1bb6449b17320f1f33da3aafceccea9d62580b0762573708457e")
# a right image whose row tail splits into 191 points (190 members below s.k, one at it) and a tail
_IMAGE_SPLIT_TEXT = _Sha256("08fa1df48ad66c9c5ec94534d1481853a1f655386330fcd7e60109c6b47e5ba2")
_IMAGE_SPLIT_JSON = _Sha256("e2d72f4dd0da4859f61aa023265d5ddcb8a2b13dbeccf9daa8c735392b8d3617")

GOLDEN = {
    "closure": (["closure", "b^0a^1", "b^2a^0", "--bound", "12"], _CLOSURE_TEXT, _CLOSURE_JSON),
    "census": (["census", "gen:b^0a^2,b^1a^1", "--bound", "10"], _CENSUS_TEXT, _CENSUS_JSON),
    "thm1-nbhd": (
        ["thm1-nbhd", "gen:b^0a^1,b^2a^0", "b^1a^2", "--bound", "8"],
        _THM1_NBHD_TEXT,
        _THM1_NBHD_JSON,
    ),
    "closure-bound30": (
        ["closure", "b^1a^3", "b^2a^0", "--bound", "30"],
        _CLOSURE_BOUND30_TEXT,
        _CLOSURE_BOUND30_JSON,
    ),
    "closure-full-box": (
        ["closure", "b^0a^3", "b^5a^0", "--bound", "40"],
        _CLOSURE_FULL_BOX_TEXT,
        _CLOSURE_FULL_BOX_JSON,
    ),
    "census-bound30": (
        ["census", "gen:b^1a^3,b^2a^0", "--bound", "30"],
        _CENSUS_BOUND30_TEXT,
        _CENSUS_BOUND30_JSON,
    ),
    "thm1-nbhd-bound20": (
        ["thm1-nbhd", "gen:b^0a^1,b^2a^0", "b^1a^2", "--bound", "20"],
        _THM1_NBHD_BOUND20_TEXT,
        _THM1_NBHD_BOUND20_JSON,
    ),
    "thm1-nbhd-full-bound3000": (
        ["thm1-nbhd", "full", "b^1a^2", "--bound", "3000"],
        _THM1_NBHD_FULL_TEXT,
        _THM1_NBHD_FULL_JSON,
    ),
    "thm1-nbhd-cplus-bound2000": (
        ["thm1-nbhd", "cplus", "b^1a^2", "--bound", "2000"],
        _THM1_NBHD_CPLUS_TEXT,
        _THM1_NBHD_CPLUS_JSON,
    ),
    "verify-prop1": (["verify", "prop1"], _VERIFY_PROP1_TEXT, _VERIFY_PROP1_JSON),
    "verify-core-oracle": (["verify", "core-oracle"], _VERIFY_CORE_ORACLE_TEXT, _VERIFY_CORE_ORACLE_JSON),
    "verify-thm1": (["verify", "thm1"], _VERIFY_THM1_TEXT, _VERIFY_THM1_JSON),
    "verify-thm2": (["verify", "thm2"], _VERIFY_THM2_TEXT, _VERIFY_THM2_JSON),
    "verify-hausdorff": (["verify", "hausdorff"], _VERIFY_HAUSDORFF_TEXT, _VERIFY_HAUSDORFF_JSON),
    "verify-prop2": (
        ["verify", "prop2", "--p", "2", "--m", "0", "--n", "2", "--bound", "6"],
        _VERIFY_PROP2_TEXT,
        _VERIFY_PROP2_JSON,
    ),
    "image-left": (
        ["image", "--side", "left", "b^2a^33", "{b^(0+1t) a^3} | {b^1 a^(0+2t)}"],
        _IMAGE_LEFT_TEXT,
        _IMAGE_LEFT_JSON,
    ),
    "image-right": (
        ["image", "--side", "right", "b^3a^1", "{b^2 a^(0+3t)} | {b^(4+2t) a^1}"],
        _IMAGE_RIGHT_TEXT,
        _IMAGE_RIGHT_JSON,
    ),
    "image-right-split": (
        ["image", "--side", "right", "b^190a^0", "{b^3 a^(0+1t)}"],
        _IMAGE_SPLIT_TEXT,
        _IMAGE_SPLIT_JSON,
    ),
    "product": (["product", "{b^0 a^(1+4t)}", "{b^2 a^(0+9t)}"], _PRODUCT_TEXT, _PRODUCT_JSON),
    "product-col-col": (
        ["product", "{b^(0+13t) a^2}", "{b^(0+31t) a^2}"],
        _PRODUCT_COLS_TEXT,
        _PRODUCT_COLS_JSON,
    ),
    "subset-true": (
        [
            "subset",
            "{b^(2+2t) a^1} | {b^1 a^(3+1t)}",
            "{b^(0+1t) a^1} | {b^1 a^(4+2t)} | {b^1 a^(5+2t)} | {b^(1+1t) a^3}",
        ],
        _SUBSET_TRUE_TEXT,
        _SUBSET_TRUE_JSON,
    ),
    "subset-false": (
        ["subset", "{b^(0+3t) a^2}", "{b^(0+6t) a^2} | {b^3 a^2}"],
        _SUBSET_FALSE_TEXT,
        _SUBSET_FALSE_JSON,
    ),
    "subset-far-crosser": (
        ["subset", "{b^0 a^(0+1t)}", "{b^0 a^(0+1t)} | {b^(0+1t) a^1000000}"],
        _SUBSET_FAR_CROSSER_TEXT,
        _SUBSET_FAR_CROSSER_JSON,
    ),
    "nbhd": (["nbhd", "padic-:3", "b^5a^2", "2"], _NBHD_TEXT, _NBHD_JSON),
    "check-shift-escapes": (
        ["check-shift", "padic+:2", "--side", "right", "b^1a^1", "b^0a^0", "1"],
        _CHECK_SHIFT_ESCAPES_TEXT,
        _CHECK_SHIFT_ESCAPES_JSON,
    ),
    "check-shift-far-escapes": (
        ["check-shift", "padic+:2", "--side", "right", "b^999999a^1000000", "b^0a^0", "1"],
        _CHECK_SHIFT_FAR_ESCAPES_TEXT,
        _CHECK_SHIFT_FAR_ESCAPES_JSON,
    ),
    "check-shift-tail-modulus": (
        ["check-shift", "padic-:3", "--side", "left", "b^2a^1", "b^4a^0", "3"],
        _CHECK_SHIFT_TAIL_MODULUS_TEXT,
        _CHECK_SHIFT_TAIL_MODULUS_JSON,
    ),
    "check-joint-equality": (
        ["check-joint", "window:2:0:2", "b^1a^1", "b^0a^5", "2"],
        _CHECK_JOINT_EQUALITY_TEXT,
        _CHECK_JOINT_EQUALITY_JSON,
    ),
    "check-joint-discontinuous": (
        ["check-joint", "padic+:2", "b^0a^0", "b^3a^3", "1"],
        _CHECK_JOINT_DISCONTINUOUS_TEXT,
        _CHECK_JOINT_DISCONTINUOUS_JSON,
    ),
    "check-shift-column": (
        ["check-shift", "padic-:2", "--side", "left", "b^1a^1", "b^0a^0", "1"],
        _CHECK_SHIFT_COLUMN_TEXT,
        _CHECK_SHIFT_COLUMN_JSON,
    ),
    "check-joint-column": (
        ["check-joint", "padic-:2", "b^3a^3", "b^0a^0", "1"],
        _CHECK_JOINT_COLUMN_TEXT,
        _CHECK_JOINT_COLUMN_JSON,
    ),
    "find-discontinuity-found": (
        ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "3", "--t-max", "2"],
        _FIND_DISCONTINUITY_FOUND_TEXT,
        _FIND_DISCONTINUITY_FOUND_JSON,
    ),
    # the bytes that the scan printed at --bound 200, before it was replaced by
    # the locus; at --bound 3000 the scan ran out of memory listing the box
    "find-discontinuity-bound3000": (
        ["find-discontinuity", "padic+:2", "--side", "right", "--bound", "3000", "--t-max", "1"],
        _FIND_DISCONTINUITY_FOUND_TEXT,
        _FIND_DISCONTINUITY_FOUND_JSON,
    ),
    "find-discontinuity-none": (
        ["find-discontinuity", "window:2:0:2", "--side", "left", "--bound", "3"],
        _FIND_DISCONTINUITY_NONE_TEXT,
        _FIND_DISCONTINUITY_NONE_JSON,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(capsys, name):
    argv, text, doc = GOLDEN[name]
    for extra, expected in (((), text), (("--format", "json"), doc)):
        code, out, err = run(capsys, *argv, *extra)
        if isinstance(expected, _Sha256):
            out = hashlib.sha256(out.encode()).hexdigest()
        assert (code, out, err) == (0, expected, "")


_VERIFY_UNKNOWN_SUITE_ERR = (
    'usage: bicyclic verify [-h] [--format {text,json}]\n'
    '                       [--max-exponent MAX_EXPONENT] [--bound BOUND] [--p P]\n'
    '                       [--m M] [--n N]\n'
    '                       {core-oracle,hausdorff,prop1,prop2,thm1,thm2}\n'
    "bicyclic verify: error: argument suite: invalid choice: 'nope' (choose from "
    "'core-oracle', 'hausdorff', 'prop1', 'prop2', 'thm1', 'thm2')\n"
)


def test_verify_unknown_suite_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the usage lines to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert (out.out, out.err) == ("", _VERIFY_UNKNOWN_SUITE_ERR)


_TOP_USAGE = (
    'usage: bicyclic [-h]\n'
    '                {mul,pow,inv,leq,solve,reduce,enumerate,closure,census,prop1-family,thm1-nbhd,nbhd,image,product,subset,check-shift,check-joint,find-discontinuity,verify}\n'
    '                ...\n'
)
_TOP_HELP = _TOP_USAGE + (
    '\n'
    'exact computations in the bicyclic monoid\n'
    '\n'
    'positional arguments:\n'
    '  {mul,pow,inv,leq,solve,reduce,enumerate,closure,census,prop1-family,thm1-nbhd,nbhd,image,product,subset,check-shift,check-joint,find-discontinuity,verify}\n'
    '    mul                 multiply elements left to right\n'
    '    pow                 raise an element to a positive power\n'
    '    inv                 the inverse partner of an element\n'
    '    leq                 natural partial order with witness\n'
    '    solve               solution set of a one-sided equation\n'
    '    reduce              normal form of a generator word\n'
    '    enumerate           members of a family up to a bound\n'
    '    closure             bounded product closure of generators\n'
    '    census              idempotent count and classification\n'
    '    prop1-family        idempotent family generated by a strict pair\n'
    '    thm1-nbhd           finite neighborhood block inside a family\n'
    '    nbhd                basic neighborhood in a topology\n'
    '    image               translate a set by an element\n'
    '    product             elementwise product of two sets\n'
    '    subset              exact subset test with witness\n'
    '    check-shift         continuity of one shift at a point\n'
    '    check-joint         joint continuity of multiplication at a pair\n'
    '    find-discontinuity  first certified shift discontinuity\n'
    '    verify              run a named verification suite\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
)
_MUL_USAGE = (
    'usage: bicyclic mul [-h] [--format {text,json}] [--max-exponent MAX_EXPONENT]\n'
    '                    elements [elements ...]\n'
)
_MUL_HELP = _MUL_USAGE + (
    '\n'
    'positional arguments:\n'
    '  elements              elements like b^2a^3, words like bba, or 1\n'
    '\n'
    'options:\n'
    '  -h, --help            show this help message and exit\n'
    '  --format {text,json}  output encoding\n'
    '  --max-exponent MAX_EXPONENT\n'
    '                        reject parsed elements with larger exponents\n'
)

# (argv, exit code, stdout, stderr), frozen from the parser that built every
# subparser on every call
_PARSER_OUTPUT = [
    ([], 2, "", _TOP_USAGE + "bicyclic: error: the following arguments are required: command\n"),
    (["--help"], 0, _TOP_HELP, ""),
    (
        ["nosuch"],
        2,
        "",
        _TOP_USAGE
        + "bicyclic: error: argument command: invalid choice: 'nosuch' (choose from 'mul', "
        "'pow', 'inv', 'leq', 'solve', 'reduce', 'enumerate', 'closure', 'census', "
        "'prop1-family', 'thm1-nbhd', 'nbhd', 'image', 'product', 'subset', 'check-shift', "
        "'check-joint', 'find-discontinuity', 'verify')\n",
    ),
    (["mul", "--help"], 0, _MUL_HELP, ""),
    (["mul"], 2, "", _MUL_USAGE + "bicyclic mul: error: the following arguments are required: elements\n"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", _PARSER_OUTPUT, ids=[" ".join(c[0]) or "none" for c in _PARSER_OUTPUT]
)
def test_parser_help_and_usage_errors(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    got = capsys.readouterr()
    assert (exc.value.code, got.out, got.err) == (code, out, err)


def _count_subparsers(monkeypatch) -> list:
    """The names of the subparsers built from now on, starting from an empty parser cache."""
    import argparse

    import bicyclic.cli

    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    monkeypatch.setattr(bicyclic.cli, "_PARSERS", {})
    return built


def test_a_named_command_builds_only_its_subparser(capsys, monkeypatch):
    from bicyclic.cli import _COMMANDS

    built = _count_subparsers(monkeypatch)
    assert run(capsys, "mul", "b^2a^3", "b^5a^1") == (0, "b^4a^1\n", "")
    assert built == ["mul"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert built == list(_COMMANDS)


def test_in_process_calls_reuse_the_parser_and_the_index_cap(capsys, monkeypatch):
    from bicyclic.cli import _COMMANDS, _largest_index

    built = _count_subparsers(monkeypatch)
    _largest_index.cache_clear()
    for top, x, index in (("padic+:2", "b^1a^3", "2"), ("padic+:2", "b^1a^3", "3"), ("padic-:3", "b^3a^1", "2")):
        code, _, err = run(capsys, "nbhd", top, x, index)
        assert (code, err) == (0, "")
    assert built == ["nbhd"]
    info = _largest_index.cache_info()
    assert (info.misses, info.hits) == (2, 1)  # worked out once per prime
    # help and usage errors print the same bytes from parsers built earlier in the process
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "mul", "b^2a^3", "b^5a^1") == (0, "b^4a^1\n", "")
    for argv, code, out, err in _PARSER_OUTPUT * 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        got = capsys.readouterr()
        assert (exc.value.code, got.out, got.err) == (code, out, err)
    assert built == ["nbhd", "mul", *_COMMANDS]


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "bicyclic", "mul", "b^2a^3", "b^5a^1"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert r.returncode == 0 and r.stdout == "b^4a^1\n"


def test_closed_pipe_exits_141_without_a_traceback():
    # the reader is gone before the command writes: the write end of a pipe
    # whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "bicyclic", "mul", "b^2a^3", "b^5a^1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, b"")


# --- what each command loads ----------------------------------------------------------------------

_BASE = ["bicyclic", "bicyclic.cli", "bicyclic.element"]
_SYMSET = _BASE + ["bicyclic.symset"]
_FAMILIES = _BASE + ["bicyclic.families"]
_TOPOLOGY = _FAMILIES + ["bicyclic.symset", "bicyclic.topology"]
_CONTINUITY = _TOPOLOGY + ["bicyclic.continuity"]

_FOOTPRINT = [
    (["mul", "b^2a^3", "b^5a^1"], _BASE),
    (["pow", "b^1a^3", "4"], _BASE),
    (["inv", "b^2a^5"], _BASE),
    (["leq", "b^5a^3", "b^4a^2"], _BASE),
    (["solve", "--side", "left", "b^0a^1", "b^5a^0"], _BASE),
    (["reduce", "bbabaa"], _BASE),
    (["image", "--side", "left", "b^2a^1", "{b^3 a^(5+4t)}"], _SYMSET),
    (["product", "{b^0 a^(0+4t)}", "{b^0 a^(0+9t)}"], _SYMSET),
    (["subset", "{b^1 a^(4+8t)}", "{b^1 a^(0+2t)}"], _SYMSET),
    (["enumerate", "cplus-window:1:2", "--bound", "2"], _FAMILIES),
    (["closure", "b^2a^2", "--bound", "4"], _FAMILIES),
    (["census", "full", "--bound", "5"], _FAMILIES),
    (["thm1-nbhd", "full", "b^1a^2", "--bound", "10"], _FAMILIES),
    (["prop1-family", "b^1a^3", "b^3a^0", "--count", "2"], _FAMILIES),
    (["nbhd", "padic+:2", "b^1a^3", "2"], _TOPOLOGY),
    (["check-shift", "padic+:2", "--side", "left", "b^0a^1", "b^0a^0", "2"], _CONTINUITY),
    (["check-joint", "window:2:0:2", "b^0a^3", "b^1a^4", "1"], _CONTINUITY),
    (["find-discontinuity", "padic+:2", "--side", "left", "--bound", "2"], _CONTINUITY),
    (["verify", "core-oracle"], _CONTINUITY + ["bicyclic.verify"]),
]


@pytest.mark.parametrize("argv, loaded", _FOOTPRINT, ids=[argv[0] for argv, _ in _FOOTPRINT])
def test_command_loads_only_the_layers_it_uses(argv, loaded):
    """The bicyclic modules a command loads; the element and set commands also skip `dataclasses`,
    `inspect` and, in text form, `json`."""
    code = (
        "import contextlib, io, sys\n"
        "from bicyclic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('bicyclic')))\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_CHILD_ENV)
    assert r.returncode == 0, r.stderr
    layers, stdlib = r.stdout.splitlines()
    assert layers == f"0 {sorted(loaded)}"
    if loaded in (_BASE, _SYMSET):
        assert stdlib == "[]"


def test_suite_names_match_the_suite_table():
    from bicyclic.cli import SUITE_NAMES
    from bicyclic.verify import SUITES

    assert SUITE_NAMES == tuple(sorted(SUITES))
