"""Reference oracles: independent answers that tests compare the library's engines against."""

from bicyclic.symset import Single, _left_image_atom, _right_image_atom, atom_member, subset


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
