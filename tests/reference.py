"""Reference oracles: independent answers that tests compare the library's engines against."""

from bicyclic.symset import Single, atom_member


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
