"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofscope import roofs
from roofscope.cli import main, parse_element
from roofscope.dynkin import parse
from roofscope.chow import H, XI, BundleChowRing, ChowElement, projective_space


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- gp -------------------------------------------------------------------------


def test_gp_table_output():
    code, out, _ = run("gp", "F4:2,3")
    assert code == 0
    assert "22" in out and "(3, 3)" in out


def test_gp_picard_one_prints_scalar_index():
    code, out, _ = run("gp", "A4:1")
    assert code == 0
    row = out.splitlines()[2].split()
    assert row == ["A4:1", "4", "1", "5"]


def test_gp_json_schema():
    code, out, _ = run("gp", "F4:2,3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "diagram": "F4:2,3",
        "dim": 22,
        "picard": 2,
        "index": {"2": 3, "3": 3},
    }


@pytest.mark.parametrize(
    "diagram, canonical", [("B2:1", "C2:2"), ("A3*B2:1,4", "A3*C2:1,5")]
)
def test_gp_echoes_the_canonical_diagram_its_index_keys_refer_to(diagram, canonical):
    code, out, _ = run("gp", diagram, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"] == canonical
    assert {int(m) for m in payload["index"]} == set(parse(canonical).marks)
    code, out, _ = run("gp", diagram)
    assert code == 0 and out.splitlines()[2].split()[0] == canonical


def test_gp_parse_failures_exit_2():
    code, _, err = run("gp", "Z9:1")
    assert code == 2 and "unknown type letter" in err
    code, _, err = run("gp", "D3:1")
    assert code == 2 and "A3" in err
    code, _, err = run("gp", "A4:9")
    assert code == 2


# --- roofs ----------------------------------------------------------------------


def test_roofs_csv_columns_and_rows():
    code, out, _ = run("roofs", "--max-rank", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "family,r,diagram,dim_W,dim_V1,dim_V2,index_V1,index_V2,homogeneous,notes"
    )
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {
        "A1xA1", "A2xA2", "A2^M", "A3^M", "A4^M", "A4^G", "C2", "D4", "F4",
        "G2", "G2^dagger",
    }


def test_roofs_json_matches_record_schema():
    code, out, _ = run("roofs", "--max-rank", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [rec["family"] for rec in payload] == ["A1xA1", "A2^M", "C2", "G2", "G2^dagger"]
    for rec in payload:
        assert list(rec) == [
            "family", "r", "diagram", "dim_W", "dim_V1", "dim_V2",
            "index_V1", "index_V2", "homogeneous", "notes",
        ]
    g2d = payload[-1]
    assert g2d["diagram"] == "non-homogeneous" and g2d["homogeneous"] is False


def test_roofs_fiber_filter():
    code, out, _ = run("roofs", "--max-rank", "8", "--fiber", "3", "--format", "csv")
    assert code == 0
    families = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert families == {"A2xA2", "A3^M", "A4^G", "F4", "G2^dagger"}


def test_roofs_latex_mirrors_the_family_table():
    code, out, _ = run("roofs", "--max-rank", "4", "--fiber", "3", "--format", "latex")
    assert code == 0
    assert out.startswith(r"\begin{tabular}")
    assert r"$A_{2}\times A_{2}$" in out
    assert r"\texttt{A4:2,3}" in out
    assert r"$G_2^{\dagger}$" in out
    assert "$(6,\\,5,\\,5)$" in out


def test_roofs_rejects_bad_flags():
    code, _, _ = run("roofs", "--max-rank", "0")
    assert code == 2
    code, _, _ = run("roofs", "--max-rank", "4", "--fiber", "1")
    assert code == 2
    code, _, _ = run("roofs")
    assert code == 2


# --- verify-table ----------------------------------------------------------------


def test_verify_table_passes_and_exits_zero():
    code, out, _ = run("verify-table", "--r-max", "10")
    assert code == 0
    assert "FAIL" not in out
    assert "F4" in out and "(20, 5, 7)" in out


def test_verify_table_r_max_2_keeps_the_r2_families():
    code, out, _ = run("verify-table", "--r-max", "2")
    assert code == 0
    families = {line.split()[0] for line in out.strip().splitlines()[2:]}
    assert families == {"A1xA1", "A2^M", "C2", "G2"}


def test_verify_table_fault_injection_exits_one_and_names_the_row(monkeypatch):
    spec = roofs.FAMILY_SPECS[roofs.Family.A_GRASS]  # A6^G is its r = 4 row
    wrong = spec._replace(triple=lambda r: (12, 8, 7) if r == 4 else spec.triple(r))
    monkeypatch.setitem(roofs.FAMILY_SPECS, roofs.Family.A_GRASS, wrong)
    code, out, err = run("verify-table", "--r-max", "10")
    assert code == 1
    assert "A6^G" in err
    assert "FAIL" in out


def test_verify_table_rejects_small_r():
    code, _, _ = run("verify-table", "--r-max", "1")
    assert code == 2


# --- classify ----------------------------------------------------------------------


def test_classify_dim_x_8():
    code, out, _ = run("classify", "--dim-x", "8")
    assert code == 0
    for label in ["A_{r-1}xA_{r-1} (r<=3)", "A_r^M (r<=3)", "C2", "G2", "G2^dagger"]:
        assert label in out


def test_classify_symplectic_json():
    code, out, _ = run("classify", "--symplectic", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [e["family"] for e in payload["families"]] == ["A_r^M"]


@pytest.mark.parametrize("dim_x", ["-5", "0"])
def test_classify_nonpositive_dim_x_exits_2_naming_the_value(dim_x):
    code, out, err = run("classify", "--dim-x", dim_x)
    assert code == 2 and not out
    assert f"got {dim_x}" in err


@pytest.mark.parametrize("dim_x", ["1", "2"])
def test_classify_below_dimension_3_has_no_map(dim_x):
    code, out, err = run("classify", "--dim-x", dim_x)
    assert code == 3 and not out
    assert "no simple K-equivalent map exists below dimension 3" in err
    assert "Atiyah flop: A1xA1 at r = 2, W = P^1xP^1, dim X = 3" in err


def test_classify_exit_codes():
    code, _, err = run("classify", "--codim", "9", "--dim-x", "100")
    assert code == 3 and "no classification" in err
    code, _, _ = run("classify")
    assert code == 2
    code, _, _ = run("classify", "--codim", "1")
    assert code == 2


# --- chow --------------------------------------------------------------------------


def test_chow_reduce():
    code, out, _ = run(
        "chow", "reduce", "--base", "P2", "--rank", "2", "--cherns", "3,3",
        "--element", "xi^2",
    )
    assert code == 0
    assert "3*H*xi - 3*H^2" in out


def test_chow_degree():
    code, out, _ = run(
        "chow", "degree", "--base", "P2", "--rank", "2", "--cherns", "3,3",
        "--element", "(2*xi)^3",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "48"


def test_chow_degree_explicit_base_flags():
    code, out, _ = run(
        "chow", "degree", "--base-dim", "5", "--base-degree", "2",
        "--base-index", "5", "--rank", "3", "--cherns", "2,2,1",
        "--element", "(3*(xi+H))^7",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "796068"


def test_chow_canonical():
    code, out, _ = run(
        "chow", "canonical", "--base", "Q5", "--rank", "3", "--cherns", "2,2,1",
    )
    assert code == 0
    assert "3*xi + 3*H" in out


def test_negative_option_values_need_an_equals_sign():
    ring = ("chow", "canonical", "--base", "P6", "--rank", "2")
    code, out, _ = run(*ring, "--cherns=-1,1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2*xi + 8*H"
    code, out, err = run(*ring, "--cherns", "-1,1")
    assert code == 2 and out == ""
    assert "--cherns: expected one argument" in err


def test_chow_mukai_check_exit_codes():
    code, out, _ = run(
        "chow", "mukai-check", "--index", "5", "--c1", "5", "--rank", "3", "--dim", "5",
    )
    assert code == 0 and "pass" in out
    code, out, _ = run(
        "chow", "mukai-check", "--index", "5", "--c1", "2", "--rank", "3", "--dim", "5",
    )
    assert code == 1 and "t = 1" in out


def test_chow_discrepancy():
    code, out, _ = run("chow", "discrepancy", "--codim", "10")
    assert code == 0
    assert out.strip().splitlines()[-1] == "9"
    code, out, _ = run("chow", "discrepancy", "--codim", "3", "--codim2", "3")
    assert code == 0 and "consistent" in out
    code, out, _ = run("chow", "discrepancy", "--codim", "2", "--codim2", "3")
    assert code == 1 and "inconsistent" in out
    code, _, _ = run("chow", "discrepancy", "--codim", "1")
    assert code == 2


def test_chow_rejects_conflicting_base_flags():
    code, _, _ = run(
        "chow", "canonical", "--base", "P2", "--base-dim", "2", "--base-degree", "1",
        "--rank", "2", "--cherns", "3,3",
    )
    assert code == 2
    code, _, _ = run("chow", "canonical", "--rank", "2", "--cherns", "3,3")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("mukai-check", "--index", "5", "--c1", "1e3000000", "--rank", "3", "--dim", "5"),
        ("canonical", "--base", "P2", "--rank", "2", "--cherns", "3,1E3000000"),
    ],
)
def test_chow_refuses_exponent_notation_at_once(argv):
    start = time.perf_counter()
    code, out, err = run("chow", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "exponent notation" in err and "3000000" in err


def test_chow_mukai_check_accepts_plain_decimals():
    code, out, _ = run(
        "chow", "mukai-check", "--index", "5", "--c1", "1.5", "--rank", "3", "--dim", "5",
    )
    assert code == 1
    assert out == (
        "index(V) = 5\n"
        "c1(E)    = 3/2\n"
        "-K_P(E)  = 3*xi + 7/2*H\n"
        "fail: c1(E) differs from the index of V\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--base", "P2", "--rank", "2", "--cherns", "3,3", "--element", "1/0"),
        ("mukai-check", "--index", "5", "--c1", "1/0", "--rank", "3", "--dim", "5"),
        ("canonical", "--base", "P2", "--rank", "2", "--cherns", "1/0,3"),
    ],
)
def test_chow_zero_denominators_exit_2(argv):
    code, out, err = run("chow", *argv)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err and "Traceback" not in err


_P2_RANK_2 = BundleChowRing(projective_space(2), 2, (3, 3))


def test_element_parser_grammar():
    from fractions import Fraction

    ring = _P2_RANK_2
    assert parse_element("3*H^2*xi", ring) == ring.reduce(3 * H**2 * XI)
    assert parse_element("(xi+H)^2", ring) == ring.reduce((XI + H) ** 2)
    assert parse_element("-xi + 1/2", ring) == ring.reduce(-XI + Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_element("xi^", ring)
    with pytest.raises(ValueError):
        parse_element("2**xi", ring)
    with pytest.raises(ValueError):
        parse_element("(xi", ring)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_element("xi + 1/0", ring)


def test_bounded_parse_drops_only_monomials_above_the_cap():
    ring = _P2_RANK_2
    assert parse_element("(xi+H)^3*(1+xi) - H^2*xi^4", ring) == ring.reduce(
        (XI + H) ** 3 * (1 + XI) - H**2 * XI**4
    )


def test_bounded_parse_keeps_huge_powers_cheap():
    start = time.perf_counter()
    assert parse_element("(xi+H)^4000", _P2_RANK_2) == 0
    line = BundleChowRing(projective_space(1), 1, (2,))  # top degree 1
    assert parse_element("(1+xi)^99999999999999999999", line) == line.reduce(
        1 + (10**20 - 1) * XI
    )
    assert time.perf_counter() - start < 1.0


def test_element_parser_refuses_runaway_coefficients_and_nesting():
    with pytest.raises(ValueError, match="bits"):
        parse_element("((3^9999)^9999)^9999", _P2_RANK_2)
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_element("(" * 5000 + "xi" + ")" * 5000, _P2_RANK_2)


@pytest.mark.parametrize(
    "argv",
    [
        ("chow", "reduce", "--base", "P1", "--rank", "1", "--cherns", "0", "--element=--"),
        ("chow", "canonical", "--base=--", "--rank", "1", "--cherns", "0"),
        ("gp", "F4:2", "--format=--"),
    ],
)
def test_double_dash_option_value_exits_2(argv):
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_degree_of_an_element_above_the_top_degree_is_zero():
    code, out, _ = run(
        "chow", "degree", "--base", "P2", "--rank", "2", "--cherns", "3,3",
        "--element", "(xi+H)^2000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"degree": "0"}


def test_chow_scales_to_large_bases_and_exponents():
    start = time.perf_counter()
    code, out, _ = run(
        "chow", "degree", "--base", "P40", "--rank", "2", "--cherns", "3,3",
        "--element", "xi^41", "--format", "json",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out) == {"degree": "3486784401"}
    start = time.perf_counter()
    code, out, _ = run(
        "chow", "reduce", "--base", "P2", "--rank", "2", "--cherns", "3,3",
        "--element", "xi^1000000000000", "--format", "json",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out) == {"normal_form": "0"}


def test_chow_reduce_of_a_dense_power_stays_fast_on_a_large_base():
    # every product is reduced in the ring, so no intermediate element
    # has more than (n + 1) * r terms
    start = time.perf_counter()
    code, out, _ = run(
        "chow", "reduce", "--base", "P40", "--rank", "2", "--cherns", "3,3",
        "--element", "(1+xi+H)^1000", "--format", "json",
    )
    assert time.perf_counter() - start < 3.0
    # the monomials of degree above the top degree 41 vanish in the ring
    ring = BundleChowRing(projective_space(40), 2, (3, 3))
    truncated = ChowElement(
        {(a, b): comb(1000, a) * comb(1000 - a, b) for a in range(42) for b in range(42 - a)}
    )
    assert code == 0 and json.loads(out) == {"normal_form": str(ring.reduce(truncated))}


def test_chow_reduce_matches_the_reduced_free_power():
    ring = BundleChowRing(projective_space(20), 2, (3, 3))
    code, out, _ = run(
        "chow", "reduce", "--base", "P20", "--rank", "2", "--cherns", "3,3",
        "--element", "(1+xi+H)^40", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"normal_form": str(ring.reduce((1 + XI + H) ** 40))}


def test_degree_answers_when_the_lower_part_vanishes_in_the_ring():
    # H^2 = 0 over P^1, so xi^3 + H^2 is the top-degree class xi^3
    code, out, err = run(
        "chow", "degree", "--base", "P1", "--rank", "3", "--cherns", "2,0,0",
        "--element", "xi^3+H^2", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {"degree": "2"}


# --- fuzz of the chow input grammar ------------------------------------------------

_numbers = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.tuples(st.integers(0, 99), st.sampled_from("eE"), st.integers(0, 10**7)).map(
        lambda t: f"{t[0]}{t[1]}{t[2]}"
    ),
)
_exponents = st.one_of(st.integers(0, 12), st.integers(0, 10**6))
_elements = st.recursive(
    st.one_of(_numbers, st.sampled_from(["H", "xi"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        st.tuples(inner, _exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, _exponents).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=8,
)
_junk = st.text(alphabet="0123456789/Hxi()^+-*, ", max_size=16)
_scalars = st.one_of(_numbers, _elements, _junk)
_bases = st.sampled_from(["P1", "P2", "P4", "Q3", "Q5"])


@st.composite
def _chow_argv(draw) -> list[str]:
    """A reduce or degree query on a well-formed ring with a fuzzed element,
    or a canonical or mukai-check query with fuzzed Chern data."""
    kind = draw(st.sampled_from(["reduce", "degree", "canonical", "mukai-check"]))
    if kind == "mukai-check":
        c1 = draw(_scalars)
        return [kind, "--index", "5", f"--c1={c1}", "--rank", "3", "--dim", "5"]
    rank = draw(st.integers(1, 4))
    if kind == "canonical":
        cherns = draw(st.lists(_scalars, min_size=1, max_size=4))
    else:
        cherns = draw(st.lists(_numbers, min_size=rank, max_size=rank))
    argv = [kind, "--base", draw(_bases), "--rank", str(rank), f"--cherns={','.join(cherns)}"]
    if kind != "canonical":
        argv.append(f"--element={draw(st.one_of(_elements, _junk))}")
    return argv


@settings(max_examples=300)
@given(_chow_argv())
def test_chow_input_grammar_fuzz(argv):
    code, out, err = run("chow", *argv, "--format", "json")
    if argv[0] == "mukai-check":
        assert code in (0, 1, 2)  # 1 is the verdict of a failed pairing check
    else:
        assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error:")
    else:
        json.loads(out)


# --- public API and production paths ------------------------------------------------

PUBLIC_API = """
    BundleChowRing ChowElement ClassEntry ClassificationQuery ClassificationResult
    CodimVerdict ComponentShape CyclicBase Diagram Edge Family G2_DAGGER_RECORD H
    MarkedDiagram MukaiVerdict NON_HOMOGENEOUS OTTAVIANI_CHERNS_CYCLIC
    OTTAVIANI_CHERNS_H ParseError RoofRecord SimpleType TableReport TableRow
    VarietyInvariants XI blowup_discrepancy chern_units_to_h classify_components
    classify_simple_kequiv diagram_of enumerate_roofs family_diagram fibration_fiber
    gp_invariants is_projective_space is_roof kequiv_forces_equal_codim
    mukai_pair_check name_family parse positive_root_count projective_space
    projective_space_charts quadric remove_node serialize twist_cherns
    verify_paper_table
""".split()

# the root-string closure and the API that only it served
DELETED = {
    "_positive_roots", "_simple_cartan", "_construct", "RootSystem", "construct",
    "pairing", "sum_positive_roots", "Weight", "weight_of", "cartan_from_edges",
    "point_components", "KEquivScenario",
}


def test_no_module_ships_a_root_closure_and_production_paths_run():
    import roofscope

    assert roofscope.__all__ == PUBLIC_API
    # the package loads its submodules lazily, so each one is imported here
    names = ["roofscope"] + [
        f"roofscope.{info.name}" for info in pkgutil.iter_modules(roofscope.__path__)
    ]
    assert {"roofscope.chow", "roofscope.cli", "roofscope.roofs"} <= set(names)
    for name in names:
        assert not DELETED & set(vars(importlib.import_module(name))), name
    for argv in [
        ("gp", "F4:2,3"),
        ("verify-table", "--r-max", "10"),
        ("roofs", "--max-rank", "8"),
    ]:
        code, out, err = run(*argv)
        assert code == 0 and out, (argv, err)


def test_star_import_exports_the_public_api_from_its_modules():
    import roofscope

    namespace: dict = {}
    exec("from roofscope import *", namespace)
    for name in PUBLIC_API:
        module = importlib.import_module(f"roofscope.{roofscope._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name) is getattr(roofscope, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        roofscope.no_such_name


@pytest.mark.parametrize(
    "diagram,expected",
    [
        ("A3000:1500", [
            "diagram     dim      picard  index",
            "----------  -------  ------  -----",
            "A3000:1500  2251500  1       3001",
        ]),
        ("D150:149,150", [
            "diagram       dim    picard  index",
            "------------  -----  ------  ----------",
            "D150:149,150  11324  2       (150, 150)",
        ]),
    ],
)
def test_gp_on_large_diagrams_is_pinned(diagram, expected):
    # recorded when each mark still cut the Levi diagram with remove_node
    assert run("gp", diagram) == (0, "\n".join(expected) + "\n", "")


def test_gp_on_a_huge_diagram_is_fast():
    start = time.perf_counter()
    code, out, _ = run("gp", "A3000:1500")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.splitlines()[2].split() == ["A3000:1500", "2251500", "1", "3001"]
    assert elapsed < 2.0, f"gp A3000:1500 took {elapsed:.2f}s"


def test_roofs_max_rank_24_is_fast():
    start = time.perf_counter()
    code, out, _ = run("roofs", "--max-rank", "24", "--format", "csv")
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 78
    assert 'A12xA12,13,"A12*A12:1,13",24,12,12,13,13,true,' in lines
    assert lines[-1] == 'D24,24,"D24:23,24",299,276,276,46,46,true,'
    assert elapsed < 8.0, f"roofs --max-rank 24 took {elapsed:.2f}s"


def test_roofs_max_rank_48_is_fast():
    start = time.perf_counter()
    code, out, _ = run("roofs", "--max-rank", "48", "--format", "csv")
    elapsed = time.perf_counter() - start
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 158
    assert 'A24xA24,25,"A24*A24:1,25",48,24,24,25,25,true,' in lines
    assert 'C47,32,"C47:31,32",1519,1488,1488,64,63,true,' in lines
    assert lines[-1] == 'D48,48,"D48:47,48",1175,1128,1128,94,94,true,'
    assert elapsed < 6.0, f"roofs --max-rank 48 took {elapsed:.2f}s"


def test_roofs_max_rank_96_csv_is_pinned():
    # recorded from the generic residue classification, before A-D residues
    # were read off the Bourbaki chain; no brute-force scan reaches rank 96
    code, out, err = run("roofs", "--max-rank", "96", "--format", "csv")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 319
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "88d809065f089d02ad97d8fe12aded1e5cf5f90e092611f22b6ed3a9ff7ce654"
    )


# --- start-up ------------------------------------------------------------------------


# what each command may not load: the chow layer (and fractions, which
# imports decimal) stays out of the roof queries, and so on
LAYERS_LEFT_OUT = [
    (["roofs", "--max-rank", "8"], "roofscope.roofs",
     {"roofscope.chow", "fractions", "decimal"}),
    (["verify-table", "--r-max", "10"], "roofscope.roofs",
     {"roofscope.chow", "fractions", "decimal"}),
    (["classify", "--dim-x", "8"], "roofscope.roofs",
     {"roofscope.chow", "fractions", "decimal"}),
    (["gp", "F4:2,3", "--format", "json"], "roofscope.homog",
     {"roofscope.roofs", "roofscope.chow"}),
    (["chow", "degree", "--base", "P2", "--rank", "2", "--cherns", "3,3",
      "--element", "(2*xi)^3"], "roofscope.chow",
     {"roofscope.roofs", "roofscope.dynkin", "roofscope.homog"}),
]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(prelude: str) -> set[str]:
        out = subprocess.run(
            [sys.executable, "-c", prelude + show],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        return set(out.split())

    bare = loaded("")
    added = loaded("import roofscope.cli; ") - bare
    assert "roofscope.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal"}
    assert {m for m in added if m.startswith("roofscope")} == {
        "roofscope", "roofscope.cli", "roofscope.render",
    }
    for argv, layer, left_out in LAYERS_LEFT_OUT:
        added = loaded(
            "import io, sys; from roofscope.cli import main; "
            "out, sys.stdout = sys.stdout, io.StringIO(); "
            f"code = main({argv!r}); sys.stdout = out; assert code == 0; "
        ) - bare
        assert layer in added, argv
        assert not added & (left_out | {"dataclasses", "inspect"}), (argv, added & left_out)


# --- determinism ---------------------------------------------------------------------


COMMANDS = [
    ("verify-table", "--r-max", "10"),
    ("roofs", "--max-rank", "8", "--format", "json"),
    ("roofs", "--max-rank", "8", "--format", "csv"),
    ("roofs", "--max-rank", "8", "--format", "table"),
    ("classify", "--dim-x", "8"),
    ("gp", "F4:2,3", "--format", "json"),
]


def test_byte_identical_output_across_thread_settings():
    snapshot = []
    for argv in COMMANDS:
        code, out, err = run(*argv)
        assert code == 0, (argv, err)
        snapshot.append(out)
    for argv, expected in zip(COMMANDS, snapshot):
        assert run(*argv)[1] == expected
