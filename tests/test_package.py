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
    assert out == "['bicyclic', 'bicyclic.element']\n"


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


def test_records_keep_their_dataclass_behaviour():
    """repr, equality, hash, immutability, order and input checks of every record class."""
    from bicyclic.continuity import ShiftSide

    E = bicyclic.BicyclicElement
    s, x = E(1, 1), E(0, 0)
    ca = bicyclic.ContinuousAt(((1, 2),))
    da = bicyclic.DiscontinuousAt(1, ((1, E(0, 2)),), "a tail escapes")
    ca_repr = "ContinuousAt(modulus=((1, 2),))"
    da_repr = (
        "DiscontinuousAt(target_index=1, counterexamples=((1, BicyclicElement(k=0, l=2)),), "
        "structural_reason='a tail escapes')"
    )
    # (record, its compared fields in order, its repr frozen from the dataclass version)
    cases = [
        (E(2, 3), dict(k=2, l=3), "BicyclicElement(k=2, l=3)"),
        (bicyclic.Single(E(1, 2)), dict(element=E(1, 2)), "Single(element=BicyclicElement(k=1, l=2))"),
        (bicyclic.RowTail(0, 1, 2), dict(line=0, base=1, step=2), "RowTail(line=0, base=1, step=2)"),
        (bicyclic.ColTail(0, 1, 2), dict(line=0, base=1, step=2), "ColTail(line=0, base=1, step=2)"),
        (
            bicyclic.SymSet((bicyclic.Single(E(0, 1)), bicyclic.RowTail(1, 2, 3))),
            dict(atoms=(bicyclic.Single(E(0, 1)), bicyclic.RowTail(1, 2, 3))),
            "SymSet(atoms=(Single(element=BicyclicElement(k=0, l=1)), RowTail(line=1, base=2, step=3)))",
        ),
        (
            bicyclic.SubsetWitness(True, None, 7),
            dict(holds=True, counterexample=None, covering_bound=7),
            "SubsetWitness(holds=True, counterexample=None, covering_bound=7)",
        ),
        (
            bicyclic.SubsetWitness(False, E(1, 2)),
            dict(holds=False, counterexample=E(1, 2), covering_bound=None),
            "SubsetWitness(holds=False, counterexample=BicyclicElement(k=1, l=2), covering_bound=None)",
        ),
        (bicyclic.Discrete(bicyclic.CPlus()), dict(carrier_desc=bicyclic.CPlus()), "Discrete(carrier_desc=CPlus())"),
        (bicyclic.PAdicPlus(2), dict(p=2), "PAdicPlus(p=2)"),
        (bicyclic.PAdicMinus(3), dict(p=3), "PAdicMinus(p=3)"),
        (bicyclic.WindowPAdic(2, 0, 2), dict(p=2, m=0, n=2), "WindowPAdic(p=2, m=0, n=2)"),
        (bicyclic.Full(), {}, "Full()"),
        (bicyclic.CPlus(), {}, "CPlus()"),
        (bicyclic.CMinus(), {}, "CMinus()"),
        (bicyclic.CPlusRow(3), dict(n=3), "CPlusRow(n=3)"),
        (bicyclic.CPlusWindow(1, 4), dict(m=1, n=4), "CPlusWindow(m=1, n=4)"),
        (bicyclic.IdempotentChain(), {}, "IdempotentChain()"),
        (
            bicyclic.FinitelyGenerated((E(0, 1), E(2, 0))),
            dict(gens=(E(0, 1), E(2, 0))),
            "FinitelyGenerated(gens=(BicyclicElement(k=0, l=1), BicyclicElement(k=2, l=0)))",
        ),
        (
            bicyclic.BoundedMembership(True, False, 16),
            dict(member=True, definite=False, bound=16),
            "BoundedMembership(member=True, definite=False, bound=16)",
        ),
        (
            bicyclic.ClosureResult(frozenset({x}), True),
            dict(members=frozenset({x}), saturated=True),
            "ClosureResult(members=frozenset({BicyclicElement(k=0, l=0)}), saturated=True)",
        ),
        (
            bicyclic.CensusResult(3, bicyclic.CensusVerdict.FINITE),
            dict(count=3, verdict=bicyclic.CensusVerdict.FINITE, witness=None, note=""),
            "CensusResult(count=3, verdict=<CensusVerdict.FINITE: 'finite'>, witness=None, note='')",
        ),
        (
            bicyclic.FamilyCheck(1, E(0, 1), E(1, 0), x, s, s),
            dict(p=1, u_power=E(0, 1), v_power=E(1, 0), product_uv=x, product_vu=s, member=s),
            "FamilyCheck(p=1, u_power=BicyclicElement(k=0, l=1), v_power=BicyclicElement(k=1, l=0), "
            "product_uv=BicyclicElement(k=0, l=0), product_vu=BicyclicElement(k=1, l=1), "
            "member=BicyclicElement(k=1, l=1))",
        ),
        (
            bicyclic.IdempotentFamily(0, 1, ()),
            dict(offset=0, step=1, checks=()),
            "IdempotentFamily(offset=0, step=1, checks=())",
        ),
        (
            bicyclic.Neighborhood(3, frozenset({s})),
            dict(i0=3, elements=frozenset({s})),
            "Neighborhood(i0=3, elements=frozenset({BicyclicElement(k=1, l=1)}))",
        ),
        (ca, dict(modulus=((1, 2),)), ca_repr),
        (da, dict(target_index=1, counterexamples=((1, E(0, 2)),), structural_reason="a tail escapes"), da_repr),
        (bicyclic.RefutedUpToBound(12), dict(probe_bound=12), "RefutedUpToBound(probe_bound=12)"),
        (
            bicyclic.ShiftCell(s, x, 1, ca),
            dict(s=s, x=x, t=1, verdict=ca),
            f"ShiftCell(s=BicyclicElement(k=1, l=1), x=BicyclicElement(k=0, l=0), t=1, verdict={ca_repr})",
        ),
        (
            bicyclic.ShiftReport(bicyclic.PAdicPlus(2), ShiftSide.LEFT, ()),
            dict(topology=bicyclic.PAdicPlus(2), side=ShiftSide.LEFT, cells=()),
            "ShiftReport(topology=PAdicPlus(p=2), side=<ShiftSide.LEFT: 'left'>, cells=())",
        ),
        (
            bicyclic.JointCell(s, x, 1, "neither-isolated", ca, True),
            dict(x=s, y=x, t=1, case="neither-isolated", verdict=ca, equality=True),
            "JointCell(x=BicyclicElement(k=1, l=1), y=BicyclicElement(k=0, l=0), t=1, "
            f"case='neither-isolated', verdict={ca_repr}, equality=True)",
        ),
        (
            bicyclic.JointReport(bicyclic.WindowPAdic(2, 0, 2), ()),
            dict(topology=bicyclic.WindowPAdic(2, 0, 2), cells=()),
            "JointReport(topology=WindowPAdic(p=2, m=0, n=2), cells=())",
        ),
        (
            bicyclic.DiscontinuityWitness(s, x, 1, da),
            dict(s=s, x=x, t=1, verdict=da),
            f"DiscontinuityWitness(s=BicyclicElement(k=1, l=1), x=BicyclicElement(k=0, l=0), t=1, verdict={da_repr})",
        ),
        (
            bicyclic.EquationReplay(E(0, 1), x, E(0, 1), frozenset({x})),
            dict(left_factor=E(0, 1), distinguished=x, target=E(0, 1), solutions=frozenset({x})),
            "EquationReplay(left_factor=BicyclicElement(k=0, l=1), distinguished=BicyclicElement(k=0, l=0), "
            "target=BicyclicElement(k=0, l=1), solutions=frozenset({BicyclicElement(k=0, l=0)}))",
        ),
    ]
    # the 30 record classes, the bases Tail and _PAdic through their two subclasses each
    assert len({type(r) for r, _, _ in cases}) == 32
    for record, fields, text in cases:
        values = tuple(fields.values())
        assert repr(record) == text
        assert hash(record) == hash(values)
        assert record == type(record)(*values) == type(record)(**fields)
        assert record != values and values != record
        assert [getattr(record, name) for name in fields] == list(values)
        name = next(iter(fields), "anything")
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert [getattr(record, name) for name in fields] == list(values)

    # equal fields in different classes never compare equal
    for a, b in [
        (bicyclic.RowTail(0, 1, 2), bicyclic.ColTail(0, 1, 2)),
        (bicyclic.PAdicPlus(2), bicyclic.PAdicMinus(2)),
        (bicyclic.Full(), bicyclic.CPlus()),
        (bicyclic.CMinus(), bicyclic.IdempotentChain()),
        (bicyclic.ShiftCell(s, x, 1, da), bicyclic.DiscontinuityWitness(s, x, 1, da)),
        (bicyclic.ContinuousAt(12), bicyclic.RefutedUpToBound(12)),
    ]:
        assert a != b and b != a and hash(a) == hash(b)

    # the closure cache stays out of equality, hash and repr
    fg, fresh = bicyclic.FinitelyGenerated((E(0, 1),)), bicyclic.FinitelyGenerated((E(0, 1),))
    fg.closure_at(3)
    assert fg == fresh and hash(fg) == hash(fresh) and repr(fg) == repr(fresh)
    assert list(fg._views) == [3] and fresh._views == {}

    # BicyclicElement sorts like its (k, l) pair, and only against its own kind
    pairs = [(k, l) for k in (2, 0, 1) for l in (1, 0, 2)]
    assert sorted(E(k, l) for k, l in pairs) == [E(k, l) for k, l in sorted(pairs)]
    for a in pairs:
        for b in pairs:
            ea, eb = E(*a), E(*b)
            assert ((ea < eb), (ea <= eb), (ea > eb), (ea >= eb)) == ((a < b), (a <= b), (a > b), (a >= b))
    with pytest.raises(TypeError):
        E(0, 1) < (0, 2)

    # every input check keeps running
    for build, error in [
        (lambda: E(-1, 0), ValueError),
        (lambda: E(0, 1.5), TypeError),
        (lambda: bicyclic.RowTail(-1, 0, 1), ValueError),
        (lambda: bicyclic.ColTail(0, 0, 0), ValueError),
        (lambda: bicyclic.PAdicPlus(4), ValueError),
        (lambda: bicyclic.WindowPAdic(2, 3, 1), ValueError),
        (lambda: bicyclic.CPlusRow(-1), ValueError),
        (lambda: bicyclic.CPlusWindow(2, 1), ValueError),
        (lambda: bicyclic.FinitelyGenerated(()), ValueError),
        (lambda: bicyclic.FinitelyGenerated(((0, 1),)), TypeError),
    ]:
        with pytest.raises(error):
            build()
