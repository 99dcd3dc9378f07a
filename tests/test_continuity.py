"""Continuity decision procedure: verdicts, certificates, known sweep results."""

import hashlib
import importlib
import random

import pytest

from bicyclic import (
    BicyclicElement,
    CarrierError,
    ColTail,
    ContinuousAt,
    DiscontinuousAt,
    Discrete,
    Full,
    PAdicMinus,
    PAdicPlus,
    RefutedUpToBound,
    RowTail,
    ShiftSide,
    Single,
    SymSet,
    WindowPAdic,
    apply_shift,
    basic_nbhd,
    carrier,
    check_joint,
    check_joint_at,
    check_shift,
    check_shift_at,
    continuity,
    enumerate_members,
    equation_replay,
    find_discontinuity,
    invert,
    is_isolated,
    member,
    multiply,
    parse_topology,
    product,
    right_image,
    shift_image,
    subset,
    window_joint_report,
)
from bicyclic.continuity import _joint_with_equality
from bicyclic.symset import Tail, _left_image_atom, _product_atoms, _right_image_atom
from bicyclic.topology import _nbhd_axis
from reference import atoms_within, far_tails, witnesses

E = BicyclicElement
LEFT, RIGHT = ShiftSide.LEFT, ShiftSide.RIGHT
symset_module = importlib.import_module("bicyclic.symset")


def _pts(top, bound):
    return enumerate_members(carrier(top), bound)


# --- shift maps -----------------------------------------------------------------


def test_apply_shift():
    assert apply_shift(LEFT, E(1, 2), E(0, 3)) == multiply(E(1, 2), E(0, 3))
    assert apply_shift(RIGHT, E(1, 2), E(0, 3)) == multiply(E(0, 3), E(1, 2))


def test_shift_image_agrees_pointwise():
    top = PAdicPlus(2)
    v = basic_nbhd(top, E(1, 3), 2)
    img = shift_image(RIGHT, E(2, 1), v)
    for t in range(6):
        assert member(img, multiply(E(1, 3 + 4 * t), E(2, 1)))


# --- single-point shift checks ------------------------------------------------------


def test_left_shift_always_continuous_on_plus_padic():
    top = PAdicPlus(2)
    for s in _pts(top, 3):
        for x in _pts(top, 3):
            for t in (1, 2, 3):
                v = check_shift_at(top, LEFT, s, x, t)
                assert isinstance(v, ContinuousAt), (s, x, t, v)
                k = v.modulus_for(t)
                img = shift_image(LEFT, s, basic_nbhd(top, x, k))
                target = basic_nbhd(top, multiply(s, x), t)
                assert subset(img, target).holds


def test_right_shift_on_plus_padic_fails_iff_row_moves():
    top = PAdicPlus(2)
    for s in _pts(top, 3):
        for x in _pts(top, 3):
            v = check_shift_at(top, RIGHT, s, x, 1)
            assert not isinstance(v, RefutedUpToBound)
            assert isinstance(v, DiscontinuousAt) == (x.l < s.k), (s, x, v)


def test_discontinuity_certificate_content():
    top = PAdicPlus(2)
    v = check_shift_at(top, RIGHT, E(1, 1), E(0, 0), 1)
    assert isinstance(v, DiscontinuousAt)
    assert "row" in v.structural_reason
    target = basic_nbhd(top, multiply(E(0, 0), E(1, 1)), 1)
    for k, escape in v.counterexamples:
        img = shift_image(RIGHT, E(1, 1), basic_nbhd(top, E(0, 0), k))
        assert member(img, escape) and not member(target, escape)


def test_structural_claim_holds_beyond_witness_bound():
    # the certificate asserts failure for every k; spot-check far past it
    top = PAdicPlus(2)
    target = basic_nbhd(top, multiply(E(0, 0), E(1, 1)), 1)
    for k in (5, 9, 12):
        img = shift_image(RIGHT, E(1, 1), basic_nbhd(top, E(0, 0), k))
        assert not subset(img, target).holds


def test_minus_padic_mirrors_plus():
    top = PAdicMinus(2)
    for s in _pts(top, 3):
        for x in _pts(top, 3):
            assert isinstance(check_shift_at(top, RIGHT, s, x, 2), ContinuousAt)
            v = check_shift_at(top, LEFT, s, x, 1)
            assert isinstance(v, DiscontinuousAt) == (x.k < s.l)


def test_minus_behavior_is_plus_under_inversion():
    # lambda_s on the minus side mirrors rho_{s^-1} on the plus side
    plus, minus = PAdicPlus(3), PAdicMinus(3)
    for s in _pts(minus, 2):
        for x in _pts(minus, 2):
            direct = check_shift_at(minus, LEFT, s, x, 1)
            mirrored = check_shift_at(plus, RIGHT, invert(s), invert(x), 1)
            assert type(direct) is type(mirrored)


def test_window_shifts_both_sides_continuous():
    top = WindowPAdic(2, 0, 2)
    for s in _pts(top, 4):
        for x in _pts(top, 4):
            for side in (LEFT, RIGHT):
                assert isinstance(check_shift_at(top, side, s, x, 1), ContinuousAt)


def test_discrete_everything_continuous():
    top = Discrete(Full())
    for s in _pts(top, 2):
        for x in _pts(top, 2):
            for side in (LEFT, RIGHT):
                v = check_shift_at(top, side, s, x, 2)
                assert isinstance(v, ContinuousAt) and v.modulus_for(2) == 1


def test_shift_validation():
    with pytest.raises(ValueError):
        check_shift_at(PAdicPlus(2), LEFT, E(2, 1), E(0, 0), 1)  # s not in carrier
    with pytest.raises(CarrierError):
        check_shift_at(PAdicPlus(2), LEFT, E(0, 1), E(2, 0), 1)  # x not in carrier


# --- grid reports ----------------------------------------------------------------------


def test_check_shift_grid_report():
    rep = check_shift(PAdicPlus(2), RIGHT, bound=2, t_max=2)
    assert not rep.all_continuous
    assert all(isinstance(c.verdict, DiscontinuousAt) for c in rep.failures)
    assert {(c.s, c.x) for c in rep.failures} == {
        (s, x) for s in _pts(PAdicPlus(2), 2) for x in _pts(PAdicPlus(2), 2) if x.l < s.k
    }


def test_check_shift_explicit_pairs():
    assert isinstance(check_shift_at(PAdicPlus(2), RIGHT, E(0, 1), E(0, 0), 1), ContinuousAt)
    assert isinstance(check_shift_at(PAdicPlus(2), RIGHT, E(2, 2), E(0, 0), 1), DiscontinuousAt)


# --- joint continuity ----------------------------------------------------------------


def test_joint_window_all_continuous():
    rep = window_joint_report(2, 0, 2, bound=5, t_max=2)
    assert rep.all_continuous
    assert set(rep.cases()) == {
        "both-isolated",
        "left-isolated-only",
        "right-isolated-only",
        "neither-isolated",
    }


def test_joint_window_equality_dichotomy():
    top = WindowPAdic(2, 0, 2)
    rep = check_joint(top, bound=5, t_max=2)
    for c in rep.cells:
        z_isolated = is_isolated(top, multiply(c.x, c.y))
        expected = not (c.case == "both-isolated" and not z_isolated)
        assert c.equality == expected, c


def test_joint_isolated_pair_modulus_one():
    top = WindowPAdic(2, 0, 2)
    v = check_joint_at(top, E(0, 1), E(1, 1), 3)
    assert isinstance(v, ContinuousAt) and v.modulus_for(3) == 1


def test_joint_on_plus_padic_depends_on_the_pair():
    top = PAdicPlus(2)
    bad = check_joint_at(top, E(0, 0), E(1, 1), 1)
    assert isinstance(bad, DiscontinuousAt)
    target = basic_nbhd(top, multiply(E(0, 0), E(1, 1)), 1)
    for k, escape in bad.counterexamples:
        prod = shift_image(LEFT, E(0, 0), basic_nbhd(top, E(1, 1), k))
        # escape comes from the full product set; membership in the slice is
        # not guaranteed, but escaping the target is
        assert not member(target, escape)
    good = check_joint_at(top, E(1, 1), E(0, 0), 1)
    assert isinstance(good, ContinuousAt)


def test_no_refutations_in_scope():
    # every in-scope verdict is decisive: continuous or certified discontinuous
    for top in (PAdicPlus(2), PAdicMinus(2), WindowPAdic(2, 0, 1)):
        for side in (LEFT, RIGHT):
            rep = check_shift(top, side, bound=3, t_max=2)
            assert not any(isinstance(c.verdict, RefutedUpToBound) for c in rep.cells)
    for top in (WindowPAdic(2, 0, 1), PAdicPlus(2), PAdicMinus(2)):
        rep = check_joint(top, bound=3, t_max=2)
        assert not any(isinstance(c.verdict, RefutedUpToBound) for c in rep.cells)


def test_joint_sweep_builds_products_only_for_witnesses(monkeypatch):
    # a continuous cell and its equality flag read the raw product atoms at the
    # modulus, and a discontinuous cell's witnesses come in closed form: no
    # cell builds a whole product, through product or an image
    assert not hasattr(continuity, "product")
    calls = []
    for name in ("product", "_product_atoms"):
        monkeypatch.setattr(symset_module, name, lambda *args, name=name: calls.append(name))
    for top in (WindowPAdic(2, 0, 2), PAdicPlus(2)):
        rep = check_joint(top, bound=3, t_max=2)
        continuous = sum(isinstance(c.verdict, ContinuousAt) for c in rep.cells)
        discontinuous = len(rep.cells) - continuous
        assert calls == []
        assert all(c.equality is not None for c in rep.cells if isinstance(c.verdict, ContinuousAt))
    assert discontinuous > 0  # the padic+ sweep has both kinds of cell


# --- the derived modulus against the old k-search --------------------------------------

_DIFF_TOPOLOGIES = (
    "padic+:2",
    "padic+:3",
    "padic-:2",
    "padic-:3",
    "window:2:0:2",
    "window:3:1:3",
    "discrete:gen:b^0a^1,b^2a^0",
)


# The sampler that certified discontinuity before the far tails were read off
# the image builders: two members far up a tail, pushed through the map.


def _member_at(atom, t):
    if isinstance(atom, RowTail):
        return E(atom.row, atom.base + atom.step * t)
    return E(atom.base + atom.step * t, atom.col)


def _param_value(atom, m):
    return m.l if isinstance(atom, RowTail) else m.k


def _tail_probe(mapper, atom, hint):
    """Line and value class of the image of the atom's high end."""
    t0 = hint + 32
    m1, m2 = _member_at(atom, t0), _member_at(atom, t0 + 1)
    u1, u2 = mapper(m1), mapper(m2)
    if u1.k == u2.k:
        line, v1, v2 = ("row", u1.k), u1.l, u2.l
    else:
        if u1.l != u2.l:
            raise RuntimeError("image probe moved both coordinates")
        line, v1, v2 = ("col", u1.l), u1.k, u2.k
    if v2 - v1 != atom.step:
        raise RuntimeError("image probe is not slope-one in the tail parameter")
    rep = atom.base + (v1 - _param_value(atom, m1))
    return line, rep


def _diagonal_probe(xatom, yatom, hint):
    """Line and value class of products with both tail parameters large."""
    t0 = hint + 32
    u1 = multiply(_member_at(xatom, t0), _member_at(yatom, t0))
    u2 = multiply(_member_at(xatom, t0 + 1), _member_at(yatom, t0 + 1))
    if u1.k == u2.k:
        line, v1, v2 = ("row", u1.k), u1.l, u2.l
    else:
        if u1.l != u2.l:
            raise RuntimeError("diagonal probe moved both coordinates")
        line, v1, v2 = ("col", u1.l), u1.k, u2.k
    if v2 - v1 != xatom.step + yatom.step:
        raise RuntimeError("diagonal probe is not slope-one in each tail parameter")
    rep = (
        xatom.base
        + yatom.base
        + (v1 - _param_value(xatom, _member_at(xatom, t0)) - _param_value(yatom, _member_at(yatom, t0)))
    )
    return line, rep


def _reference_reason(parts, target, t, p):
    """The four-branch reason: isolated target, foreign line, foreign class mod p^t."""
    if not parts:
        return None
    watom = target.atoms[0]
    if isinstance(watom, Single):
        return (
            "the shifted point is isolated but the image of every source "
            "neighborhood contains an infinite tail"
        )
    wline = ("row", watom.row) if isinstance(watom, RowTail) else ("col", watom.col)
    for line, rep in parts:
        if line != wline:
            return (
                f"the image always contains a tail along {line[0]} {line[1]}, "
                f"but target neighborhoods live along {wline[0]} {wline[1]}"
            )
        if (rep - watom.base) % (p**t) != 0:
            return (
                f"the image always contains a tail in the class {rep % p**t} "
                f"mod {p}^{t}, disjoint from the target class {watom.base % p**t}"
            )
    return None


def _reference_decide(top, target, t, shapes, probes, images, k_max):
    """The search the checker ran before the modulus was derived: probes, then k = 1..k_max."""
    parts = probes(shapes)
    reason = _reference_reason(parts, target, t, getattr(top, "p", None))
    if reason is not None:
        return DiscontinuousAt(t, witnesses(images, target, continuity.DEFAULT_WITNESS_BOUND), reason)
    for k in range(1, k_max + 1):
        if subset(images(k), target).holds:
            return ContinuousAt(((t, k),))
    return RefutedUpToBound(k_max)


def _reference_shift(top, side, s, x, t, k_max):
    y = apply_shift(side, s, x)
    target = basic_nbhd(top, y, t)
    atom = basic_nbhd(top, x, 1).atoms[0]

    def probes(atom):
        if isinstance(atom, Single):
            return []
        mapper = (lambda m: multiply(s, m)) if side is LEFT else (lambda m: multiply(m, s))
        hint = s.k + s.l + x.k + x.l + y.k + y.l
        return [_tail_probe(mapper, atom, hint)]

    images = lambda k: shift_image(side, s, basic_nbhd(top, x, k))
    return _reference_decide(top, target, t, atom, probes, images, k_max)


def _reference_joint(top, x, y, t, k_max):
    z = multiply(x, y)
    target = basic_nbhd(top, z, t)
    ax = basic_nbhd(top, x, 1).atoms[0]
    ay = basic_nbhd(top, y, 1).atoms[0]

    def probes(shapes):
        ax, ay = shapes
        hint = x.k + x.l + y.k + y.l + z.k + z.l
        parts = []
        if not isinstance(ay, Single):
            parts.append(_tail_probe(lambda m: multiply(x, m), ay, hint))
        if not isinstance(ax, Single):
            parts.append(_tail_probe(lambda m: multiply(m, y), ax, hint))
        if not isinstance(ax, Single) and not isinstance(ay, Single):
            parts.append(_diagonal_probe(ax, ay, hint))
        return parts

    images = lambda k: product(basic_nbhd(top, x, k), basic_nbhd(top, y, k))
    return _reference_decide(top, target, t, (ax, ay), probes, images, k_max)


def _cells(top, bound, t_max):
    pts = _pts(top, bound)
    for a in pts:
        for b in pts:
            for t in range(1, t_max + 1):
                for side in (LEFT, RIGHT, None):
                    yield side, a, b, t


def _decide_both(top, side, a, b, t, k_max=13):
    """The checker's verdict and the reference search's, which tries every k up to k_max."""
    if side is None:
        return check_joint_at(top, a, b, t), _reference_joint(top, a, b, t, k_max)
    return check_shift_at(top, side, a, b, t), _reference_shift(top, side, a, b, t, k_max)


@pytest.mark.parametrize("text", _DIFF_TOPOLOGIES)
def test_derived_modulus_matches_the_k_search(text):
    top = parse_topology(text)
    for side, a, b, t in _cells(top, 4, 4):
        new, ref = _decide_both(top, side, a, b, t)
        assert new == ref, (text, side, a, b, t)


@pytest.mark.parametrize("text", _DIFF_TOPOLOGIES)
def test_cells_past_twelve_match_the_k_search(text):
    # the checker has no search bound: at t = 13 it agrees with a search up to k = 13
    top = parse_topology(text)
    pts = _pts(top, 3)
    moduli = set()
    for side in (LEFT, RIGHT, None):
        for a in pts:
            for b in pts:
                new, ref = _decide_both(top, side, a, b, 13)
                assert new == ref, (text, side, a, b)
                moduli.add(new.modulus_for(13) if isinstance(new, ContinuousAt) else None)
    if text.startswith("padic"):
        assert 13 in moduli  # some tail cell needs the modulus 13 itself


def test_a_far_tail_against_a_point_target_raises(monkeypatch):
    # isolation rules this out (see _structural_reason); a fault that broke
    # it must not read as a silent "continuous"
    monkeypatch.setattr(continuity, "_far_lines", lambda x, xa, y, ya, z: [(0, 0)])
    top = Discrete(Full())
    with pytest.raises(RuntimeError):
        check_shift_at(top, LEFT, E(1, 1), E(0, 2), 1)
    with pytest.raises(RuntimeError):
        check_joint_at(top, E(1, 1), E(0, 2), 1)


def test_a_reason_without_an_escape_raises(monkeypatch):
    # a reason on a shape that cannot fail, or an escape that the target
    # holds, is a fault of the certificate, not a verdict
    top = PAdicPlus(2)
    with monkeypatch.context() as m:
        m.setattr(continuity, "_far_lines", lambda x, xa, y, ya, z: [(0, z.k + 1)])
        with pytest.raises(RuntimeError, match="cannot fail"):
            check_shift_at(top, LEFT, E(1, 1), E(0, 2), 1)  # a left shift on padic+
    at_target = lambda top, x, xa, y, ya: ((1, multiply(x, y)),)  # the target point itself
    monkeypatch.setattr(continuity, "_escapes", at_target)
    with pytest.raises(RuntimeError, match="inside the target"):
        check_shift_at(top, RIGHT, E(1, 1), E(0, 0), 1)
    with pytest.raises(RuntimeError, match="inside the target"):
        check_joint_at(PAdicMinus(3), E(3, 3), E(0, 0), 2)


@pytest.mark.parametrize("text", _DIFF_TOPOLOGIES)
def test_atomwise_decision_matches_the_subset_test(text):
    # the oracle of the far-tail criterion: a cell's image at k0 fits the
    # target exactly when each raw atom that the image builders emit fits
    # the target's one atom, and the cell is continuous exactly then
    top = parse_topology(text)
    outcomes = set()
    for side, a, b, t in _cells(top, 4, 4):
        # the source neighborhoods at t are those at k0: a point's never changes
        if side is None:
            nx, ny = basic_nbhd(top, a, t), basic_nbhd(top, b, t)
            target = basic_nbhd(top, multiply(a, b), t)
            atoms, image = _product_atoms(nx, ny), product(nx, ny)
            verdict = check_joint_at(top, a, b, t)
        else:
            source = basic_nbhd(top, b, t)
            target = basic_nbhd(top, apply_shift(side, a, b), t)
            atom = source.atoms[0]
            atoms = _left_image_atom(a, atom) if side is LEFT else _right_image_atom(atom, a)
            image = shift_image(side, a, source)
            verdict = check_shift_at(top, side, a, b, t)
        fits = atoms_within(atoms, target.atoms[0])
        assert fits == subset(image, target).holds, (text, side, a, b, t)
        assert isinstance(verdict, ContinuousAt if fits else DiscontinuousAt), (text, side, a, b, t)
        outcomes.add(fits)
    # the window and discrete topologies are continuous everywhere
    assert outcomes == ({True, False} if text.startswith("padic") else {True})


@pytest.mark.parametrize("shape", ("padic+:{p}", "padic-:{p}", "window:{p}:0:2"))
def test_verdict_kind_ignores_the_target_index_and_the_prime(shape):
    # the criterion compares far tails with the target by line and isolation,
    # which neither the index nor the prime moves: p and t enter only through
    # the steps p^t, alike on every atom of a cell.  Exhaustive over the box.
    verdicts = {}
    for p in (2, 3, 5, 7):
        top = parse_topology(shape.format(p=p))
        for side, a, b, t in _cells(top, 4, 3):
            if side is None:
                verdict = check_joint_at(top, a, b, t)
            else:
                verdict = check_shift_at(top, side, a, b, t)
            key = (type(verdict), getattr(verdict, "modulus", None))
            verdicts.setdefault((side, a, b, t), set()).add(key)
    kinds = {}
    for (side, a, b, t), keys in verdicts.items():
        assert len(keys) == 1, (shape, side, a, b, t, keys)  # the same kind and modulus for every p
        kinds.setdefault((side, a, b), set()).update(kind for kind, _ in keys)
    for cell, seen in kinds.items():
        assert len(seen) == 1, (shape, cell, seen)  # the same kind at every t
    found = set().union(*kinds.values())
    assert found == ({ContinuousAt, DiscontinuousAt} if shape.startswith("padic") else {ContinuousAt})


_INVARIANT_TOPOLOGIES = ("padic+:2", "padic-:2", "padic+:3", "padic-:3", "window:2:0:2", "window:3:1:3")


def _line(atom):
    return ("row", atom.row) if isinstance(atom, RowTail) else ("col", atom.col)


def _far_tails_and_probes(top, side, a, b, t):
    """The target and (far tail, sampled line) for each tail source of a cell."""
    hint = a.k + a.l + b.k + b.l
    if side is not None:
        s, x = a, b
        atom = basic_nbhd(top, x, t).atoms[0]
        target = basic_nbhd(top, apply_shift(side, s, x), t)
        if isinstance(atom, Single):
            return target, []
        if side is LEFT:
            return target, [(_left_image_atom(s, atom)[-1], _tail_probe(lambda m: multiply(s, m), atom, hint))]
        return target, [(_right_image_atom(atom, s)[-1], _tail_probe(lambda m: multiply(m, s), atom, hint))]
    x, y = a, b
    ax, ay = basic_nbhd(top, x, t).atoms[0], basic_nbhd(top, y, t).atoms[0]
    target = basic_nbhd(top, multiply(x, y), t)
    out = []
    if not isinstance(ay, Single):
        out.append((_left_image_atom(x, ay)[-1], _tail_probe(lambda m: multiply(x, m), ay, hint)))
    if not isinstance(ax, Single):
        out.append((_right_image_atom(ax, y)[-1], _tail_probe(lambda m: multiply(m, y), ax, hint)))
    if not isinstance(ax, Single) and not isinstance(ay, Single):
        # the diagonal adds no line: it repeats one the shifts already give
        line, _ = _diagonal_probe(ax, ay, hint)
        assert line in {_line(tail) for tail, _ in out}
    return target, out


@pytest.mark.parametrize("text", _INVARIANT_TOPOLOGIES)
def test_far_tails_on_the_target_line_lie_inside_the_target(text):
    # why the certificate needs only the line test: a far tail on the target's
    # line fits inside the target, and a tail source never has an isolated target
    top = parse_topology(text)
    inside = 0
    for side, a, b, t in _cells(top, 4, 3):
        target, pairs = _far_tails_and_probes(top, side, a, b, t)
        if not pairs:
            continue
        assert not isinstance(target.atoms[0], Single), (text, side, a, b, t)
        for tail, (line, _) in pairs:
            assert _line(tail) == line, (text, side, a, b, t)  # the sampler agrees
            if line == _line(target.atoms[0]):
                assert subset(SymSet((tail,)), target).holds, (text, side, a, b, t)
                inside += 1
    assert inside


@pytest.mark.parametrize("text", _INVARIANT_TOPOLOGIES + ("discrete:full", "discrete:gen:b^1a^2,b^3a^0"))
def test_closed_form_far_lines_match_the_image_builders(text):
    # the (axis, line) pairs read off the exponents are those of the last
    # atoms that the image builders emit, in the same order
    top = parse_topology(text)
    seen = set()
    for side, a, b, t in _cells(top, 4, 3):
        x, y = (b, a) if side is RIGHT else (a, b)
        xa = None if side is LEFT else _nbhd_axis(top, x, t)
        ya = None if side is RIGHT else _nbhd_axis(top, y, t)
        ax = Single(x) if side is LEFT else basic_nbhd(top, x, t).atoms[0]
        ay = Single(y) if side is RIGHT else basic_nbhd(top, y, t).atoms[0]
        lines = continuity._far_lines(x, xa, y, ya, multiply(x, y))
        assert lines == [(tail.axis, tail.line) for tail in far_tails(x, ax, y, ay)], (text, side, a, b, t)
        seen.add(len(lines))
    if text.startswith("discrete"):
        assert seen == {0}  # no tails at all
    else:
        assert {1, 2} <= seen  # cells with one far tail and with two


def _oracle_escapes(top, side, a, b, t):
    """The escapes of a failing cell read off its whole canonical images by exact subset tests."""
    if side is None:
        target = basic_nbhd(top, multiply(a, b), t)
        images = lambda k: product(basic_nbhd(top, a, k), basic_nbhd(top, b, k))
    else:
        target = basic_nbhd(top, apply_shift(side, a, b), t)
        images = lambda k: shift_image(side, a, basic_nbhd(top, b, k))
    return witnesses(images, target, continuity.DEFAULT_WITNESS_BOUND)


def _random_cell(rng, top, high):
    """A random side, a random pair of carrier points with exponents <= high, and a random t <= 6."""

    def point():
        k, l = sorted((rng.randint(0, high), rng.randint(0, high)))
        return E(l, k) if top.axis else E(k, l)

    return rng.choice([LEFT, RIGHT, None]), point(), point(), rng.randint(1, 6)


def test_closed_form_witnesses_match_product_and_subset():
    # every failing cell's escapes equal the counterexamples of the old path:
    # the canonical product or image at k = 1..4 against the target, by subset
    texts = [f"padic{sign}:{p}" for sign in "+-" for p in (2, 3, 5, 7)] + ["window:2:0:2", "window:3:1:3"]
    exhaustive = 0
    for text in texts:
        top = parse_topology(text)
        for side, a, b, t in _cells(top, 6, 3):
            verdict = check_joint_at(top, a, b, t) if side is None else check_shift_at(top, side, a, b, t)
            if isinstance(verdict, DiscontinuousAt):
                assert verdict.counterexamples == _oracle_escapes(top, side, a, b, t), (text, side, a, b, t)
                exhaustive += 1
    assert exhaustive == 6048
    # seeded random cells, kept until 1,000 of them fail
    rng = random.Random(28)
    failing = 0
    while failing < 1000:
        top = parse_topology(f"padic{rng.choice('+-')}:{rng.choice((2, 3, 5, 7, 11, 13))}")
        side, a, b, t = _random_cell(rng, top, 80)
        verdict = check_joint_at(top, a, b, t) if side is None else check_shift_at(top, side, a, b, t)
        if isinstance(verdict, DiscontinuousAt):
            assert verdict.counterexamples == _oracle_escapes(top, side, a, b, t), (top, side, a, b, t)
            failing += 1


def test_continuous_cells_build_no_atom(monkeypatch):
    # a continuous cell compares exponents only, and a discontinuous one
    # names its escapes in closed form: no cell builds an atom
    built = {Tail: 0, Single: 0, SymSet: 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        return counted

    for cls in built:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    kinds = set()
    for text in ("padic+:2", "padic-:2", "window:2:0:2"):
        top = parse_topology(text)
        for side, a, b, t in _cells(top, 4, 3):
            for cls in built:
                built[cls] = 0
            if side is None:
                verdict = check_joint_at(top, a, b, t)
            else:
                verdict = check_shift_at(top, side, a, b, t)
            assert built == {Tail: 0, Single: 0, SymSet: 0}, (text, side, a, b, t)
            kinds.add(type(verdict))
    assert kinds == {ContinuousAt, DiscontinuousAt}


def test_subset_calls_per_cell(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return subset(*args)

    monkeypatch.setattr(continuity, "subset", counting)
    top = PAdicPlus(2)
    seen = set()
    for side, a, b, t in _cells(top, 3, 4):
        calls.clear()
        if side is None:
            verdict = check_joint_at(top, a, b, t)
        else:
            verdict = check_shift_at(top, side, a, b, t)
        # a failing cell's escapes come in closed form, with no subset test
        assert len(calls) == 0, (side, a, b, t)
        assert isinstance(verdict, (ContinuousAt, DiscontinuousAt)), (side, a, b, t)
        modulus = verdict.modulus_for(t) if isinstance(verdict, ContinuousAt) else None
        seen.add((type(verdict).__name__, modulus))
    # the sweep exercises point cells (k0 = 1), tail cells (k0 = t) and certificates
    assert {("ContinuousAt", 1), ("ContinuousAt", 4), ("DiscontinuousAt", None)} <= seen


def test_continuous_cells_build_no_throwaway_records(monkeypatch):
    # a continuous cell is decided on exponents: it builds no SymSet,
    # a right image or a col x col product transposes nothing, and the
    # carrier is the descriptor's own, not a fresh one per point check
    sets, transposes = [], []
    init, transpose_atom = SymSet.__init__, symset_module._transpose_atom

    def counting_init(self, *args, **kwargs):
        sets.append(args)
        init(self, *args, **kwargs)

    def counting_transpose(atom):
        transposes.append(atom)
        return transpose_atom(atom)

    monkeypatch.setattr(SymSet, "__init__", counting_init)
    monkeypatch.setattr(symset_module, "_transpose_atom", counting_transpose)
    rng = random.Random(20)
    decided = {}
    for text in ("padic+:2", "padic-:3", "window:3:1:3"):
        top = parse_topology(text)
        assert carrier(top) is carrier(top)
        pts = _pts(top, 5)
        for _ in range(150):
            side = rng.choice([LEFT, RIGHT, None])
            a, b, t = rng.choice(pts), rng.choice(pts), rng.randint(1, 4)
            sets.clear()
            if side is None:
                verdict = check_joint_at(top, a, b, t)
            else:
                verdict = check_shift_at(top, side, a, b, t)
            if isinstance(verdict, ContinuousAt):
                assert sets == [], (text, side, a, b, t)
                tails = sum(not is_isolated(top, z) for z in ((b,) if side else (a, b)))
                decided[text, side, tails] = decided.get((text, side, tails), 0) + 1
    assert transposes == []
    # right shifts of tails, and joint cells of two columns (padic-), were decided
    assert decided[("padic+:2", RIGHT, 1)] and decided[("padic-:3", RIGHT, 1)]
    assert decided[("padic-:3", None, 2)] and decided[("window:3:1:3", None, 2)]
    # the public builders share those atom builders, so they transpose nothing either
    right_image(SymSet((RowTail(1, 0, 2),)), E(3, 1))
    product(SymSet((ColTail(2, 1, 3),)), SymSet((ColTail(0, 4, 9),)))
    assert transposes == []


# --- witness scan ------------------------------------------------------------------------


def test_find_discontinuity_pinned_first_witness():
    w = find_discontinuity(PAdicPlus(2), RIGHT, 4)
    assert w is not None
    assert (w.s, w.x, w.t) == (E(1, 1), E(0, 0), 1)
    assert isinstance(w.verdict, DiscontinuousAt)


def test_find_discontinuity_none_for_continuous_side():
    assert find_discontinuity(PAdicPlus(2), LEFT, 3) is None
    assert find_discontinuity(PAdicMinus(2), RIGHT, 3) is None
    assert find_discontinuity(Discrete(Full()), LEFT, 2) is None
    assert find_discontinuity(WindowPAdic(2, 0, 2), RIGHT, 4) is None


def test_find_discontinuity_decides_each_pair_once(monkeypatch):
    # a cell's kind does not depend on t, so the scan tests t = 1 alone
    calls = []

    def counting(top, side, s, x, t):
        calls.append(t)
        return check_shift_at(top, side, s, x, t)

    monkeypatch.setattr(continuity, "check_shift_at", counting)
    w = find_discontinuity(PAdicPlus(2), RIGHT, 3, t_max=3)
    assert w.t == 1 and calls and set(calls) == {1}
    calls.clear()
    # a side on which no cell can fail is not scanned at all
    assert find_discontinuity(WindowPAdic(2, 0, 2), RIGHT, 3, t_max=3) is None
    assert calls == []
    assert find_discontinuity(PAdicPlus(2), RIGHT, 3, t_max=0) is None
    assert calls == []


_NO_FAILURE_SIDES = (
    ("padic+:2", LEFT),
    ("padic+:5", LEFT),
    ("padic-:3", RIGHT),
    ("padic-:7", RIGHT),
    ("window:2:0:2", LEFT),
    ("window:2:0:2", RIGHT),
    ("window:3:1:3", LEFT),
    ("window:3:1:3", RIGHT),
    ("discrete:full", LEFT),
    ("discrete:gen:b^0a^1,b^2a^0", RIGHT),
)


@pytest.mark.parametrize("text, side", _NO_FAILURE_SIDES)
def test_find_discontinuity_without_a_scan_matches_the_full_scan(text, side):
    # the oracle decides every pair of the box at every t; none fails, so the
    # scan that the answer skips would have found nothing
    top = parse_topology(text)
    for bound in range(2, 6):  # the generated carrier needs a bound of 2
        pts = _pts(top, bound)
        assert all(
            isinstance(check_shift_at(top, side, s, x, t), ContinuousAt)
            for s in pts
            for x in pts
            for t in (1, 2, 3)
        ), (text, side, bound)
        assert find_discontinuity(top, side, bound) is None
        assert find_discontinuity(top, side, bound, t_max=3) is None


def test_find_discontinuity_without_a_scan_keeps_its_checks(monkeypatch):
    # the bound-200 box of padic+:2 has 412 million (s, x) pairs; the left
    # side decides none of them, and still rejects what the scan rejected

    def scanned(*args):
        raise AssertionError(f"the side was scanned at {args}")

    monkeypatch.setattr(continuity, "check_shift_at", scanned)
    assert find_discontinuity(PAdicPlus(2), LEFT, 200, t_max=1) is None
    with pytest.raises(ValueError, match="bound must be non-negative"):
        find_discontinuity(PAdicPlus(2), LEFT, -1)
    with pytest.raises(ValueError, match="closure bound must cover the generators"):
        find_discontinuity(parse_topology("discrete:gen:b^3a^0"), LEFT, 2)
    with pytest.raises(TypeError):
        find_discontinuity(object(), LEFT, 2)


def test_find_discontinuity_scans_pairs_lazily_in_size_order(monkeypatch):
    # the scan stops at the first witness in (size, s, x) order, without
    # listing the 20,301^2 pairs of the bound-200 box first
    calls = []

    def counting(top, side, s, x, t):
        calls.append((s, x))
        return check_shift_at(top, side, s, x, t)

    monkeypatch.setattr(continuity, "check_shift_at", counting)
    size = lambda sx: (sx[0].k + sx[0].l + sx[1].k + sx[1].l, sx[0], sx[1])
    for top, side, count in ((PAdicPlus(2), RIGHT, 8), (PAdicMinus(3), LEFT, 7)):
        calls.clear()
        w = find_discontinuity(top, side, 200, t_max=1)
        assert (w.s, w.x, w.t) == (E(1, 1), E(0, 0), 1)
        # every visited pair has size at most 2, so it heads the sorted pairs of the bound-2 box
        pts = _pts(top, 2)
        assert calls == sorted(((s, x) for s in pts for x in pts), key=size)[:count]


def test_find_discontinuity_minus_mirror():
    w = find_discontinuity(PAdicMinus(2), LEFT, 4)
    assert w is not None and (w.s, w.x, w.t) == (E(1, 1), E(0, 0), 1)


# --- division replay -----------------------------------------------------------------------


def test_equation_replay_pinned():
    r = equation_replay(0, 5, 1, 3)
    assert r.left_factor == E(0, 3)
    assert r.distinguished == E(1, 3)
    assert r.target == E(0, 5)
    assert r.solutions == frozenset({E(3, 5), E(0, 2), E(1, 3), E(2, 4)})


def test_equation_replay_verifies_all_solutions():
    for params in ((0, 3, 0, 0), (1, 6, 2, 4), (2, 9, 0, 5)):
        r = equation_replay(*params)
        x0, y0, i0, j0 = params
        assert r.distinguished in r.solutions
        assert len(r.solutions) == 1 + (y0 + i0 - j0)
        for sol in r.solutions:
            assert multiply(r.left_factor, sol) == r.target


def test_equation_replay_validation():
    with pytest.raises(ValueError):
        equation_replay(0, 2, 0, 3)  # y0 - j0 not > x0
    with pytest.raises(ValueError):
        equation_replay(0, 9, 4, 2)  # i0 > j0
    with pytest.raises(ValueError):
        equation_replay(-1, 5, 0, 0)


# --- a verdict golden ---------------------------------------------------------------------

# sha256 of the verdict reprs of both shifts and of the joint verdict with its
# equality flag, concatenated over every carrier pair at bound 5 and t <= 3
# (30,861 cells)
_VERDICT_DIGEST = "57fb7c9f28bd873478d81bb3c99d09e8c4d64f84f9a441ca11932b32b76e1fc4"


def test_verdict_golden():
    digest = hashlib.sha256()
    for text in _DIFF_TOPOLOGIES:
        top = parse_topology(text)
        pts = _pts(top, 5)
        for s in pts:
            for x in pts:
                for t in range(1, 4):
                    digest.update(repr(check_shift_at(top, LEFT, s, x, t)).encode())
                    digest.update(repr(check_shift_at(top, RIGHT, s, x, t)).encode())
                    digest.update(repr(_joint_with_equality(top, s, x, t)).encode())
    assert digest.hexdigest() == _VERDICT_DIGEST
