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
        "root_system": "SimpleType positive_root_count",
        "dynkin": """
            ComponentShape Diagram Edge MarkedDiagram ParseError
            classify_components diagram_of parse remove_node serialize
        """,
        "homog": """
            VarietyInvariants fibration_fiber gp_invariants is_projective_space
            projective_space_charts
        """,
        "roofs": """
            ClassEntry ClassificationQuery ClassificationResult Family
            G2_DAGGER_RECORD NON_HOMOGENEOUS RoofRecord TableReport TableRow
            classify_simple_kequiv enumerate_roofs family_diagram is_roof
            name_family verify_paper_table
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


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
