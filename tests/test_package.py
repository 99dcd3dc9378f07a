"""The package surface: every public name resolves, whichever layers it lazily loads."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bicyclic

SRC = Path(bicyclic.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))

PUBLIC = {
    "BicyclicElement", "BoundedMembership", "CMinus", "CPlus", "CPlusRow", "CPlusWindow",
    "CarrierError", "CensusResult", "CensusVerdict", "ClosureResult", "ColTail",
    "ContinuousAt", "Discrete", "DiscontinuityWitness", "DiscontinuousAt", "EMPTY",
    "EquationReplay", "FamilyCheck", "FinitelyGenerated", "Full", "Half", "IDENTITY",
    "IdempotentChain", "IdempotentFamily", "JointCell", "JointReport", "Neighborhood",
    "NoIsolatingIdempotentError", "PAdicMinus", "PAdicPlus", "RefutedUpToBound", "RowTail",
    "SetDescriptor", "ShiftCell", "ShiftReport", "ShiftSide", "Single", "SubsetWitness",
    "SymSet", "TopologyDescriptor", "UnrepresentableProductError", "WindowPAdic",
    "__version__", "apply_shift", "atom_members", "basic_nbhd", "canonicalize",
    "carrier", "check_joint", "check_joint_at", "check_shift", "check_shift_at", "closure",
    "contains", "enumerate_members", "equation_replay", "find_discontinuity",
    "finite_neighborhood", "format_descriptor", "format_element", "format_symset",
    "format_topology", "half_membership", "idempotent_census", "idempotent_family",
    "intersection_empty", "invert", "is_idempotent", "is_isolated", "left_image", "member",
    "members", "membership", "multiply", "natural_leq", "natural_leq_witness",
    "parse_descriptor", "parse_element", "parse_symset", "parse_topology", "parse_word",
    "power", "product", "reduce_word", "right_image",
    "separation_index", "shift_image", "solve_left", "solve_right", "subset", "symset",
    "symset_to_records", "transpose", "union", "window_joint_report", "word_of",
}


def run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter that imports bicyclic from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_public_surface():
    assert len(bicyclic.__all__) == len(PUBLIC) == 96
    assert set(bicyclic.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in bicyclic.__all__:
        assert getattr(bicyclic, name) is not None
    namespace = {}
    exec("from bicyclic import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        bicyclic.no_such_name
    assert getattr(bicyclic, "no_such_name", None) is None


def test_import_loads_only_the_eager_layers():
    out = run_fresh(
        "import sys, bicyclic\n"
        "print(sorted(m for m in sys.modules if m.startswith('bicyclic')))"
    )
    assert out == "['bicyclic', 'bicyclic.element', 'bicyclic.symset']\n"


def test_lazy_name_is_bound_after_first_access():
    out = run_fresh(
        "import bicyclic\n"
        "before = 'closure' in vars(bicyclic)\n"
        "fn = bicyclic.closure\n"
        "import bicyclic.families\n"
        "print(before, vars(bicyclic)['closure'] is fn is bicyclic.families.closure)"
    )
    assert out == "False True\n"


def test_symset_stays_the_function_after_its_siblings_load():
    out = run_fresh(
        "import bicyclic, bicyclic.topology\n"
        "print(callable(bicyclic.symset))\n"
        "import io, contextlib, bicyclic.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = bicyclic.cli.main(['nbhd', 'padic+:2', 'b^1a^3', '2'])\n"
        "print(code, callable(bicyclic.symset))"
    )
    assert out == "True\n0 True\n"
    assert callable(bicyclic.symset)


# sha256 of each demo's stdout
DEMO_OUTPUT = {
    "01_arithmetic_tour.py": "6fc6668e9883be20152f31a8bcc04f9d61d1397fb03283bdf31d1dc0b0b394c3",
    "02_neighborhood_blocks.py": "39224dcbc48cd032814ea3b10194709be64d2818ee5857ceb2eb8ec44281d2c8",
    "03_subsemigroup_census.py": "87b91efcb8391f1600037dfa019055d9a4d7cb2b3ee5e75a92392d97c1612e0e",
    "04_topologies.py": "c7d5c928b30fea07bc998dd8a62470cca4c2f43fc99e7ecbd0f4717996331ef8",
    "05_continuity_verdicts.py": "34b998d15ab49dd3620c0660de548646c54524becf93a374b5175963d8669e8d",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    assert [d.name for d in DEMOS] == sorted(DEMO_OUTPUT)
    out = run_fresh(f"import runpy; runpy.run_path({str(demo)!r}, run_name='__main__')")
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_OUTPUT[demo.name], out
