"""Reference oracles: independent answers that tests compare the library's engines against."""

from bicyclic.continuity import DiscontinuityWitness, DiscontinuousAt, ShiftSide, check_shift_at
from bicyclic.element import BicyclicElement, multiply
from bicyclic.families import (
    CMinus,
    CPlus,
    CPlusRow,
    CPlusWindow,
    FinitelyGenerated,
    Full,
    IdempotentChain,
    Neighborhood,
    NoIsolatingIdempotentError,
    _require_cover,
    contains,
    enumerate_members,
    format_descriptor,
    membership,
)
from bicyclic.symset import Single, _left_image_atom, _right_image_atom, atom_member, subset
from bicyclic.topology import CarrierError, Discrete, WindowPAdic, carrier


def contains_by_type(desc, x, bound=None) -> bool:
    """Membership by a switch on the descriptor's type.

    The oracle of the descriptors' `_member`: each branch states one
    family's defining inequality, and a generated family answers from its
    bounded closure through `membership`.
    """
    if isinstance(desc, Full):
        return True
    if isinstance(desc, CPlus):
        return x.k <= x.l
    if isinstance(desc, CMinus):
        return x.k >= x.l
    if isinstance(desc, CPlusRow):
        return x.k == desc.n and x.l >= desc.n
    if isinstance(desc, CPlusWindow):
        return desc.m <= x.k <= desc.n and x.l >= x.k
    if isinstance(desc, IdempotentChain):
        return x.k == x.l
    if isinstance(desc, FinitelyGenerated):
        return membership(desc, x, bound).member
    raise TypeError(f"unknown descriptor {desc!r}")


def nbhd_axis_by_type(top, x, idx):
    """The axis of x's neighborhood tails, or None when x is isolated, by a switch on the topology's type.

    The oracle of the topologies' `_axis`: it validates idx, then x against
    the carrier (CarrierError), and reads isolation off the type.
    """
    if not isinstance(idx, int) or idx < 1:
        raise ValueError(f"neighborhood index must be a positive integer, got {idx!r}")
    if not contains_by_type(carrier(top), x):  # an unknown topology raises TypeError here
        raise CarrierError(f"{x} is not in the carrier {format_descriptor(carrier(top))}")
    if isinstance(top, Discrete) or (isinstance(top, WindowPAdic) and x.l <= top.n):
        return None
    return top.axis


def translate_block(desc, x, bound) -> Neighborhood:
    """The finite open block around x as the translate complement over the window, with its guards.

    The oracle of finite_neighborhood, which reads the block off box(i0 - 1):
    this picks the same i0 after the same checks in the same order, lists
    the window enumerate_members(desc, bound), forms both translate sets by
    e = b^i0 a^i0 and subtracts them.  Any element of S*e or e*S that lands
    in the window comes from a window element.  Three guards follow: the
    block equals the window's members below i0, x lies in it, and both
    translation maps are retractions of S on the window.
    """
    if isinstance(desc, FinitelyGenerated):
        _require_cover(desc._gen_max, bound)
    if bound < max(x.k, x.l) + 1:
        raise NoIsolatingIdempotentError(f"bound {bound} cannot reach an idempotent above {x}")
    if not contains(desc, x, bound):
        raise ValueError(f"{x} is not a member of {format_descriptor(desc)}")
    i0 = None
    for n in range(max(x.k, x.l) + 1, bound + 1):
        if contains(desc, BicyclicElement(n, n), bound):
            i0 = n
            break
    if i0 is None:
        raise NoIsolatingIdempotentError(
            f"no idempotent b^n a^n with n >= {max(x.k, x.l) + 1} in "
            f"{format_descriptor(desc)} within bound {bound}"
        )
    e = BicyclicElement(i0, i0)
    window = enumerate_members(desc, bound)
    translated = {multiply(z, e) for z in window} | {multiply(e, z) for z in window}
    block = frozenset(z for z in window if z not in translated)

    characterized = frozenset(z for z in window if z.k < i0 and z.l < i0)
    if block != characterized:
        raise RuntimeError("translate complement disagrees with the diagonal-box characterization")
    if x not in block:
        raise RuntimeError(f"{x} escaped its own neighborhood block")
    # A generated family needs no membership check of the translates, and
    # making it would build closures above the bound.  z and e are members of
    # closure(gens, B) at B = max(bound, generator exponents), closures grow
    # with their bound, and a closure holds every product of its members that
    # lies in its box; so z*e and e*z are members of the closure at
    # max(B, their exponents), the very one contains() would build.
    generated = isinstance(desc, FinitelyGenerated)
    for z in window:
        lam = multiply(z, e)
        rho = multiply(e, z)
        if multiply(lam, e) != lam or multiply(e, rho) != rho:
            raise RuntimeError("translation maps failed the retraction check")
        if not generated and not (contains(desc, lam, bound) and contains(desc, rho, bound)):
            raise RuntimeError("translation maps left the family")
    return Neighborhood(i0, block)


def atoms_within(atoms, outer) -> bool:
    """Whether every one of `atoms` lies inside the single atom `outer`.

    The oracle of the continuity criterion: a cell is continuous exactly
    when every atom of its image at k0 fits its target atom.  A union lies
    inside one atom exactly when each of its atoms does.  A point does when
    outer has it as a member.  A tail is infinite, so it never fits in a
    point, and it meets a tail on another line in at most one element; so
    it fits only in a tail on its own line whose progression holds its base
    and whose step divides the tail's step.
    """
    for atom in atoms:
        if isinstance(atom, Single):
            if not atom_member(outer, atom.element):
                return False
        elif (
            isinstance(outer, Single)
            or (atom.axis, atom.line) != (outer.axis, outer.line)
            or atom.step % outer.step
            or atom.base < outer.base
            or (atom.base - outer.base) % outer.step
        ):
            return False
    return True


def far_tails(x, ax, y, ay) -> list:
    """The far tails of the product of atoms ax (holding x) and ay (holding y).

    The oracle of the closed-form far-tail lines: each far tail is the last
    atom of a whole image list, the left image by x of ay, then the right
    image by y of ax.  A row x row product's own far tail lies on ax's row
    and a col x col product's on ay's column, lines that the two translates
    already give.
    """
    tails = []
    if not isinstance(ay, Single):
        tails.append(_left_image_atom(x, ay)[-1])
    if not isinstance(ax, Single):
        tails.append(_right_image_atom(ax, y)[-1])
    return tails


def witnesses(images, target, witness_bound) -> tuple:
    """The pairs (k, escape) for k = 1..witness_bound of a failing cell, from its whole images.

    The oracle of the closed-form escapes: images(k) is the canonical image
    of the k-th source neighborhoods, and the escape is the counterexample
    of an exact subset test against the target, the first atom in atom
    order that the target does not hold.
    """
    out = []
    for k in range(1, witness_bound + 1):
        w = subset(images(k), target)
        if w.holds:
            raise RuntimeError("a failing cell's image fits its target")
        out.append((k, w.counterexample))
    return tuple(out)


def first_discontinuity(top, side: ShiftSide, bound: int, t_max=None):
    """The first failing shift cell in order of total exponent size, then s, then x, by a scan.

    The oracle of find_discontinuity, which reads the pair off the locus:
    this lists the carrier points of the box (checking the carrier and the
    bound), answers None when t_max (the bound when None) is below 1, and
    otherwise decides the pairs lazily at t = 1 until one fails.
    """
    points = enumerate_members(carrier(top), bound)
    if (bound if t_max is None else t_max) < 1:
        return None
    by_size = {}  # each total size pairs every s with the x that complete it
    for x in points:
        by_size.setdefault(x.k + x.l, []).append(x)
    for total in range(2 * max(by_size, default=0) + 1):
        for s in points:
            for x in by_size.get(total - s.k - s.l, ()):
                verdict = check_shift_at(top, side, s, x, 1)
                if isinstance(verdict, DiscontinuousAt):
                    return DiscontinuityWitness(s, x, 1, verdict)
    return None
