"""Command line behavior: output stability, JSON shape, exit codes."""

import json
import subprocess
import sys

import pytest

from bicyclic.cli import main


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
    code, _, _ = run(capsys, "--", "mul") if False else (0, "", "")
    code, out, _ = run(capsys, "mul", "--max-exponent", "3000000", "b^2000000a^1", "1")
    assert code == 0


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

_NBHD_TEXT = (
    '{b^(5+9t) a^2}\n'
)

_NBHD_JSON = (
    '{"set": [{"base": 5, "col": 2, "step": 9, "type": "col_tail"}], "text": "{b^(5+9t)'
    ' a^2}"}\n'
)

GOLDEN = {
    "closure": (["closure", "b^0a^1", "b^2a^0", "--bound", "12"], _CLOSURE_TEXT, _CLOSURE_JSON),
    "census": (["census", "gen:b^0a^2,b^1a^1", "--bound", "10"], _CENSUS_TEXT, _CENSUS_JSON),
    "thm1-nbhd": (
        ["thm1-nbhd", "gen:b^0a^1,b^2a^0", "b^1a^2", "--bound", "8"],
        _THM1_NBHD_TEXT,
        _THM1_NBHD_JSON,
    ),
    "verify-prop1": (["verify", "prop1"], _VERIFY_PROP1_TEXT, _VERIFY_PROP1_JSON),
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
    "product": (["product", "{b^0 a^(1+4t)}", "{b^2 a^(0+9t)}"], _PRODUCT_TEXT, _PRODUCT_JSON),
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
    "nbhd": (["nbhd", "padic-:3", "b^5a^2", "2"], _NBHD_TEXT, _NBHD_JSON),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output_bytes(capsys, name):
    argv, text, doc = GOLDEN[name]
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, doc, "")


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "bicyclic", "mul", "b^2a^3", "b^5a^1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and r.stdout == "b^4a^1\n"
