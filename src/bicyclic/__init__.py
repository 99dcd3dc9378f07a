"""Exact computation in the bicyclic monoid.

Canonical-form arithmetic, solution sets of one-sided division, symbolic
arithmetic-progression sets, named subsemigroup families with finite
neighborhood blocks, progression topologies, and a decision procedure for
continuity of shifts and of multiplication.  Everything is integer-exact;
bounded searches say so in their verdicts.

Only the `element` layer loads with the package.  The names of the other
layers load their module on first access (PEP 562) and are then bound
here, so a command that multiplies two elements does not pay for the
layers it never uses.  `symset` names both a submodule and a function
re-exported here, and the import system binds each submodule on its
package when it loads; the package's module class ignores that one
binding, so `bicyclic.symset` is the function however its module loaded.
"""

import sys
from importlib import import_module

# every public name, by the layer that defines it
_LAYERS = {
    "element": (
        "BicyclicElement", "Half", "IDENTITY", "multiply", "invert", "power",
        "is_idempotent", "half_membership", "natural_leq", "natural_leq_witness",
        "solve_left", "solve_right", "parse_element", "format_element",
        "parse_word", "reduce_word", "word_of",
    ),
    "symset": (
        "SymSet", "Single", "RowTail", "ColTail", "EMPTY", "symset", "member",
        "members", "atom_members", "canonicalize", "union", "subset",
        "SubsetWitness", "intersection_empty", "transpose", "left_image",
        "right_image", "product", "UnrepresentableProductError",
        "parse_symset", "format_symset", "symset_to_records",
    ),
    "families": (
        "SetDescriptor", "Full", "CPlus", "CMinus", "CPlusRow", "CPlusWindow",
        "IdempotentChain", "FinitelyGenerated", "membership", "BoundedMembership",
        "contains", "closure", "ClosureResult", "enumerate_members",
        "idempotent_census", "CensusResult", "CensusVerdict", "IdempotentFamily",
        "FamilyCheck", "idempotent_family", "Neighborhood",
        "NoIsolatingIdempotentError", "finite_neighborhood", "parse_descriptor",
        "format_descriptor",
    ),
    "topology": (
        "TopologyDescriptor", "Discrete", "PAdicPlus", "PAdicMinus", "WindowPAdic",
        "CarrierError", "carrier", "is_isolated", "basic_nbhd", "separation_index",
        "parse_topology", "format_topology",
    ),
    "continuity": (
        "ShiftSide", "ContinuousAt", "DiscontinuousAt", "RefutedUpToBound",
        "apply_shift", "shift_image", "check_shift_at", "check_shift", "ShiftCell",
        "ShiftReport", "check_joint_at", "check_joint", "window_joint_report",
        "JointCell", "JointReport", "find_discontinuity", "DiscontinuityWitness",
        "equation_replay", "EquationReplay",
    ),
}
_EAGER = ("element",)
_LAZY = {name: layer for layer, names in _LAYERS.items() if layer not in _EAGER for name in names}

for _layer in _EAGER:
    _module = import_module(f".{_layer}", __name__)
    globals().update({name: getattr(_module, name) for name in _LAYERS[_layer]})
del _layer, _module

__version__ = "0.1.0"

__all__ = [*(name for names in _LAYERS.values() for name in names), "__version__"]


class _Package(type(sys)):
    """The package's module type: it drops the import system's binding of the submodule `symset`."""

    def __setattr__(self, name, value):
        if name != "symset" or not isinstance(value, type(sys)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    layer = _LAZY.get(name)
    if layer is not None:
        value = getattr(import_module(f".{layer}", __name__), name)
        globals()[name] = value  # later lookups are plain attribute hits
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
