"""roofscope: marked Dynkin diagram combinatorics.

Dynkin types and diagrams, homogeneous variety invariants, enumeration and
classification of roofs of P^{r-1}-bundles, and divisor arithmetic on
projectivized bundles over bases with H-power cohomology.

Importing the package loads no submodule: a public name is looked up in
``_EXPORTS`` and its submodule is imported on first access (PEP 562), so
a command line query loads only the layer it runs.
"""

__version__ = "0.1.0"

# every public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "dynkin": """
            Diagram MarkedDiagram ParseError SimpleType diagram_of parse
            positive_root_count serialize
        """,
        "homog": "VarietyInvariants gp_invariants",
        "roofs": """
            Family G2_DAGGER_RECORD NON_HOMOGENEOUS RoofRecord TableReport
            TableRow enumerate_roofs verify_paper_table
        """,
        "classify": """
            ClassEntry ClassificationQuery ClassificationResult
            classify_simple_kequiv
        """,
        "chow": """
            BundleChowRing ChowElement CodimVerdict CyclicBase H MukaiVerdict
            OTTAVIANI_CHERNS_CYCLIC OTTAVIANI_CHERNS_H XI blowup_discrepancy
            chern_units_to_h kequiv_forces_equal_codim mukai_pair_check
            projective_space quadric twist_cherns
        """,
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def _make_checked(cls, iterable):
    """``_make`` for the checked value types: ``collections.namedtuple``'s
    own builds the tuple with ``tuple.__new__``, not the class's checked
    ``__new__`` (and ``_replace`` goes through it), so it would skip the
    validation.  It lives here, where every layer finds it without loading
    another."""
    return cls(*iterable)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
