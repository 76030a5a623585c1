"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import os
import pkgutil
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout, suppress
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofscope import roofs
from roofscope.chow import H, XI, BundleChowRing, ChowElement, parse_element, projective_space
from roofscope.cli import GRAMMAR, _read_argv, build_parser, main
from roofscope.dynkin import parse


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


@pytest.mark.parametrize(
    "dim_x,families",
    [
        ("3", ["A1xA1"]),
        ("4", ["A1xA1", "A2^M"]),
        ("5", ["A_{r-1}xA_{r-1} (r<=3)", "A2^M", "C2"]),
        ("7", ["A_{r-1}xA_{r-1} (r<=3)", "A_r^M (r<=3)", "C2", "G2"]),
    ],
)
def test_classify_below_dimension_8_keeps_the_roofs_with_dim_w_below_dim_x(dim_x, families):
    # dim X >= dim W + 1, so G2^dagger (dim W = 7) needs dim X >= 8
    code, out, _ = run("classify", "--dim-x", dim_x, "--format", "json")
    assert code == 0
    assert [e["family"] for e in json.loads(out)["families"]] == families


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


@pytest.mark.parametrize("fmt", ["table", "json", "csv", "latex"])
@pytest.mark.parametrize(
    "argv,rules",
    [
        (["--dim-x", "3", "--symplectic"],
         ["symplectic ambient variety", "ambient dimension <= 8"]),
        (["--dim-x", "3", "--codim", "4"], ["ambient dimension <= 8"]),
        (["--dim-x", "8", "--codim", "5", "--fiber-gap", "5"],
         ["codimension >= fiber dimension - 2", "ambient dimension <= 8"]),
    ],
)
def test_classify_with_no_surviving_family_exits_3_naming_the_cases(argv, rules, fmt):
    code, out, err = run("classify", *argv, "--format", fmt)
    assert code == 3 and out == ""
    head, *applied = err.splitlines()
    assert head.startswith("no family satisfies every applied case")
    assert applied == rules


@pytest.mark.parametrize("fiber_gap", ["0", "-1", "-99999999999999999999"])
def test_classify_refuses_a_fiber_gap_below_1_naming_the_value(fiber_gap):
    code, out, err = run("classify", "--codim", "3", f"--fiber-gap={fiber_gap}")
    assert code == 2 and out == ""
    assert err == (
        "error: the fiber gap dim Y_i - dim M of a simple K-equivalent map is at least 1, "
        f"got {fiber_gap}\n"
    )
    # a gap of 1 is the Atiyah flop's, A1xA1 at r = 2, and it is answered
    code, out, _ = run("classify", "--codim", "2", "--fiber-gap", "1", "--format", "json")
    assert code == 0
    assert [e["family"] for e in json.loads(out)["families"]] == ["A1xA1"]
    # no row has dim V_1 = 1 at r = 3
    assert run("classify", "--codim", "3", "--fiber-gap", "1")[:2] == (3, "")


def test_classify_cuts_an_open_range_by_the_fiber_gap_in_one_bisection(monkeypatch):
    # the gap bounds r by g + 1, and each row's r is one bisection over that
    # range: at most bit_length(g) + 1 calls of the bound, at any gap
    top_fiber = roofs.FamilySpec.top_fiber
    calls = {}

    def counted(spec, fits, fibers):
        def counted_fits(r):
            calls[spec] = calls.get(spec, 0) + 1
            return fits(r)

        return top_fiber(spec, counted_fits, fibers)

    monkeypatch.setattr(roofs.FamilySpec, "top_fiber", counted)
    gap = 10**20
    code, out, _ = run("classify", "--symplectic", "--fiber-gap", str(gap), "--format", "json")
    assert code == 0
    assert [e["family"] for e in json.loads(out)["families"]] == [f"A{gap}^M"]
    assert calls and max(calls.values()) <= gap.bit_length() + 1


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


# recorded while every coefficient was a Fraction: a non-integral value
# is still one, and prints the same
RATIONAL_QUERIES = [
    (("mukai-check", "--index", "5", "--c1", "3/2", "--rank", "3", "--dim", "5",
      "--format", "json"), 1,
     '{\n  "passed": false,\n  "index_of_v": 5,\n  "c1_of_e": "3/2",\n'
     '  "minus_k": "3*xi + 7/2*H",\n  "suggested_twist": null\n}\n'),
    (("canonical", "--base", "P2", "--rank", "2", "--cherns=1/2,3"), 0,
     "anticanonical\n-------------\n2*xi + 5/2*H\n"),
    (("reduce", "--base", "P2", "--rank", "2", "--cherns=1/2,3", "--element", "1/2*H+xi^2",
      "--format", "csv"), 0,
     "normal_form\n1/2*H*xi - 3*H^2 + 1/2*H\n"),
    (("degree", "--base", "P2", "--rank", "2", "--cherns=1/2,3", "--element", "(1/2*H+xi)^3",
      "--format", "json"), 0,
     '{\n  "degree": "-5/4"\n}\n'),
    (("reduce", "--base", "P3", "--rank", "2", "--cherns", "3,3", "--element", "1/2*H*xi^2"), 0,
     "normal_form\n--------------------\n3/2*H^2*xi - 3/2*H^3\n"),
]


@pytest.mark.parametrize(
    "argv, code, out", RATIONAL_QUERIES, ids=[argv[0] for argv, _, _ in RATIONAL_QUERIES]
)
def test_rational_chow_queries_answer_as_before(argv, code, out):
    assert run("chow", *argv) == (code, out, "")


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


@pytest.mark.parametrize(
    "argv, text",
    [
        (("canonical", "--base", "P2", "--rank", "2", "--cherns", ""), ""),
        (("canonical", "--base", "P2", "--rank", "2", "--cherns", "nan,1"), "nan"),
        (("mukai-check", "--index", "5", "--c1", "nan", "--rank", "3", "--dim", "5"), "nan"),
        (("mukai-check", "--index", "5", "--c1", "inf", "--rank", "3", "--dim", "5"), "inf"),
    ],
)
def test_chow_refused_numbers_read_bad_number(argv, text):
    code, out, err = run("chow", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad number {text!r}: not an integer, a/b or a decimal\n"


@pytest.mark.parametrize(
    "element, message",
    [
        ("xi^²", "bad element: expected a number (at position 4)"),
        ("xi^٣", "bad element: expected a number (at position 4)"),
        ("٣*xi", "bad element: unexpected '٣' (at position 1)"),
    ],
)
def test_element_parser_reads_ascii_digits_only(element, message):
    # str.isdigit() also holds for digits that int() refuses (²) or reads (٣)
    argv = ("reduce", "--base", "P2", "--rank", "2", "--cherns", "3,3", "--element", element)
    assert run("chow", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("base", ["P²", "P٣"])
def test_base_preset_reads_ascii_digits_only(base):
    code, out, err = run("chow", "canonical", "--base", base, "--rank", "2", "--cherns", "3,3")
    assert (code, out) == (2, "")
    assert err == f"error: unknown base preset {base!r}; use P<n> or Q<n>\n"


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


def test_a_product_past_the_work_bound_is_refused_before_it_is_taken(monkeypatch):
    import roofscope.chow as chow

    ring = chow.BundleChowRing(base=chow._preset_base("P2"), rank=1, cherns=(1,))
    # (1+H)*(1+H) is 2 x 2 term pairs times 1 + 1 coefficient bits: work 8
    monkeypatch.setattr(chow, "_MAX_PRODUCT_WORK", 8)
    assert chow.format_element(chow.parse_element("(1+H)*(1+H)", ring)) == "H^2 + 2*H + 1"
    monkeypatch.setattr(chow, "_MAX_PRODUCT_WORK", 7)
    with pytest.raises(ValueError, match="more than 7 term pairs times coefficient bits"):
        chow.parse_element("(1+H)*(1+H)", ring)
    monkeypatch.undo()
    # 761^2 term pairs of about 64760-bit coefficients: refused at once
    code, out, err = run(
        "chow", "reduce", "--base", "P760", "--rank", "1", "--cherns", "1",
        "--element", "(2^64000*(1+H)^760)^2",
    )
    assert (code, out) == (2, "")
    assert "more than 68719476736 term pairs times coefficient bits" in err


def test_a_product_past_the_coefficient_bound_is_refused_before_it_is_taken():
    import roofscope.chow as chow

    ring = chow.BundleChowRing(base=chow._preset_base("P1"), rank=1, cherns=(1,))
    # 32769 + 32768 bits: one bit past the bound between them, and the
    # product 2^65535 fits; one more bit and it is refused
    assert chow.parse_element("2^32768*2^32767", ring) == 2**65535
    with pytest.raises(ValueError, match="coefficient of more than 65536 bits"):
        chow.parse_element("2^32768*2^32768", ring)
    # 701^2 term pairs of about 64700-bit coefficients pass the work bound,
    # but the product's coefficients would hold about 129400 bits: refused
    # at once, where taking it ran for minutes
    start = time.perf_counter()
    code, out, err = run(
        "chow", "reduce", "--base", "P700", "--rank", "1", "--cherns", "1",
        "--element", "(2^64000*(1+H)^700)^2",
    )
    assert (code, out) == (2, "")
    assert "coefficient of more than 65536 bits" in err
    assert time.perf_counter() - start < 5


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


# --- the argv reader -----------------------------------------------------------------

# one well-formed query per command, both flag forms, and the switch
WELL_FORMED = [
    ["gp", "F4:2,3"],
    ["gp", "--format=json", "A2*A2:1,4"],
    ["roofs", "--max-rank", "8"],
    ["roofs", "--format", "csv", "--fiber=3", "--max-rank=10"],
    ["verify-table", "--r-max", "20"],
    ["classify"],
    ["classify", "--symplectic", "--dim-x", "8", "--codim=2", "--fiber-gap", "1"],
    ["chow", "reduce", "--base", "P2", "--rank", "2", "--cherns", "3,3", "--element", "xi^2"],
    ["chow", "degree", "--element=(2*xi)^3", "--cherns=2,2,1", "--rank=3", "--base-dim=5",
     "--base-degree", "2", "--base-index", "5", "--format", "latex"],
    ["chow", "canonical", "--base", "Q5", "--rank", "3", "--cherns", "2,2,1"],
    ["chow", "mukai-check", "--index", "5", "--c1", "2", "--rank", "3", "--dim", "5"],
    ["chow", "discrepancy", "--codim", "3", "--codim2", "4"],
    # argparse takes an '='-joined value as given, a leading '-' included
    ["chow", "canonical", "--base", "P2", "--rank", "2", "--cherns=-1,1"],
    ["chow", "reduce", "--base", "P2", "--rank", "1", "--cherns=-1/2", "--element=-xi+H"],
]


def _bench_queries() -> list[list[str]]:
    path = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    workloads = runpy.run_path(str(path), run_name="bench_run")["WORKLOADS"]
    return [argv for queries in workloads.values() for argv in queries.values()]


@functools.lru_cache(maxsize=None)
def _parser():
    return build_parser()


def _parsed(argv) -> dict:
    return vars(_parser().parse_args(argv))


def test_the_reader_serves_every_well_formed_and_bench_query_as_argparse_does():
    # a query that fell back to argparse would still answer, only slower
    bench = _bench_queries()
    assert bench
    queries = WELL_FORMED + bench
    assert {tuple(argv[:2]) if argv[0] == "chow" else (argv[0],) for argv in queries} == set(
        GRAMMAR
    )
    for argv in queries:
        args = _read_argv(argv)
        assert args is not None, argv
        assert vars(args) == _parsed(argv), argv


_FLAGS = sorted({flag.name for command in GRAMMAR.values() for flag in command.flags})
# values argparse reads in its own way: '-' alone is a value, '-1' a
# negative number, '--' ends the options, '-1,1' looks like a flag, int()
# takes ' 5', '+5' and '1_0' and refuses more than 4300 digits
_ODD = ["", "-", "--", "-1", "-1,1", "-xi+H", " 5", "+5", "1_0", "1" + "0" * 5000,
        "x", "=", "a=b", "yaml", "JSON"]
_VALUES = st.one_of(
    st.sampled_from(_ODD),
    st.sampled_from([-1, 0, 1, 2]).map(str),
    st.integers().map(str),
    st.integers(0, 5000).map(lambda k: "1" + "0" * k),  # 10^k
    st.text(max_size=6),
)


@st.composite
def _argv(draw) -> list[str]:
    """A well-formed query of one command of GRAMMAR, or one with a flaw
    or two: a missing flag or positional, an odd value, a repeat, an
    abbreviation, a help flag, '--', another command's flag, a stray
    value, a flag without its value or a wrong command word.  The items
    come in any order, each flag as '--f v' or '--f=v'."""
    words = list(draw(st.sampled_from(sorted(GRAMMAR))))
    command = GRAMMAR[tuple(words)]
    items = [(None, draw(st.sampled_from(["F4:2,3", "A2*A2:1,4"]))) for _ in command.positionals]
    for flag in command.flags:
        if flag.required or draw(st.booleans()):
            if flag.kind is bool:
                value = None
            elif flag.kind is int:
                value = str(draw(st.integers(-3, 30)))
            else:
                value = draw(
                    st.sampled_from(flag.choices or ["P2", "3,3", "2", "xi^2", "-1,1", "-xi+H"])
                )
            items.append((flag.name, value))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        flaw = draw(st.integers(0, 9))
        at = draw(st.integers(0, max(len(items) - 1, 0)))
        if flaw == 0 and items:  # a missing flag or positional
            del items[at]
        elif flaw in (1, 2) and items:  # an odd value
            items[at] = (items[at][0], draw(_VALUES))
        elif flaw == 3 and items and items[at][0]:  # a repeat
            items.append((items[at][0], draw(_VALUES) if draw(st.booleans()) else items[at][1]))
        elif flaw == 4 and command.flags:  # an abbreviation
            name = draw(st.sampled_from(command.flags)).name
            items.append((name[: draw(st.integers(3, len(name) - 1))], "2"))
        elif flaw == 5:
            items.append((draw(st.sampled_from(["-h", "--help", "--he", "--", "-"])), None))
        elif flaw == 6:  # any command's flag
            items.append((draw(st.sampled_from(_FLAGS)), draw(_VALUES)))
        elif flaw == 7:  # a stray value
            items.append((None, draw(_VALUES)))
        elif flaw == 8:  # a flag without its value
            items.append((draw(st.sampled_from(_FLAGS)), None))
        else:  # a wrong command word
            words = draw(st.sampled_from([[], ["chow"], ["nope"], ["chow", "nope"], ["gp", "gp"]]))
    argv = list(words)
    for name, value in draw(st.permutations(items)):
        if name is None:
            argv.append(value)
        elif value is None:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


@settings(max_examples=1000)
@given(_argv())
def test_the_reader_agrees_with_argparse_or_leaves_the_query_to_it(argv):
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == _parsed(argv)


_RING_ARGV = ["chow", "canonical", "--base", "P2", "--rank", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["roofs", "--max", "8"],  # argparse reads it as --max-rank
        ["roofs", "--max-rank", "8", "--max-rank", "9"],  # argparse keeps the last
        ["classify", "--symplectic", "--symplectic"],
        [*_RING_ARGV, "--cherns", ""],
        [*_RING_ARGV, "--cherns=--"],
        [*_RING_ARGV, "--cherns", "-1,1"],
        [*_RING_ARGV, "--cherns", "-1/2"],  # argparse reads a spaced -1/2 as an option
        ["classify", "--dim-x", "-5"],  # argparse reads it as a negative number
        ["roofs", "--max-rank", "1" + "0" * 5000],
        ["classify", "--symplectic=yes"],
        [*_RING_ARGV],
        ["gp"],
        ["gp", "F4:2", "F4:3"],
        ["gp", "--", "F4:2"],
        ["gp", ""],
        ["chow"],
        ["chow", "--format", "json", "discrepancy", "--codim", "3"],
    ],
)
def test_the_reader_leaves_help_and_doubtful_input_to_argparse(argv):
    assert _read_argv(argv) is None


@pytest.mark.parametrize(
    "argv, text",
    [
        (["roofs", "--max-rank", "x"], "argument --max-rank: invalid int value: 'x'"),
        (["gp", "F4:2", "--format", "yaml"], "argument --format: invalid choice: 'yaml'"),
    ],
)
def test_input_the_reader_refuses_gets_argparse_text(argv, text):
    assert _read_argv(argv) is None
    code, out, err = run(*argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: roofscope ") and text in err


@pytest.mark.parametrize("words", [[]] + [list(words) for words in GRAMMAR] + [["chow"]])
def test_help_comes_from_argparse(words):
    assert _read_argv([*words, "-h"]) is None
    code, out, err = run(*words, "-h")
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(["usage: roofscope", *words]))


# --- public API and production paths ------------------------------------------------

PUBLIC_API = """
    BundleChowRing ChowElement ClassEntry ClassificationQuery ClassificationResult
    CodimVerdict CyclicBase Diagram Family G2_DAGGER_RECORD H
    MarkedDiagram MukaiVerdict NON_HOMOGENEOUS OTTAVIANI_CHERNS_CYCLIC
    OTTAVIANI_CHERNS_H ParseError RoofRecord SimpleType TableReport TableRow
    VarietyInvariants XI blowup_discrepancy chern_units_to_h
    classify_simple_kequiv diagram_of enumerate_roofs
    gp_invariants kequiv_forces_equal_codim mukai_pair_check parse
    positive_root_count projective_space quadric serialize twist_cherns
    verify_paper_table
""".split()

# the root-string closure and the API that only it served; then the edge
# set, node surgery, the P^(r-1) tests and the chart join, which the tests
# keep in oracles.py; then the whole-factor component readers, which
# component_at replaced (ComponentShape, the graph classifier's output,
# moved to oracles.py); then family recognition, which only the tests
# use and which moved to oracles.py
DELETED = {
    "_positive_roots", "_simple_cartan", "_construct", "RootSystem", "construct",
    "pairing", "sum_positive_roots", "Weight", "weight_of", "cartan_from_edges",
    "point_components", "KEquivScenario",
    "Edge", "_bonds", "remove_node", "fibration_fiber", "is_projective_space",
    "projective_space_charts", "component_charts", "is_roof", "_residue_charts",
    "_dedup_key",
    "ComponentShape", "classify_components", "chain_components", "_pendant_run",
    "_BOND_RUNS", "_shape", "_exceptional_places",
    "name_family", "family_diagram", "_family_of", "_single_factor_family",
    "_factor_automorphisms", "_mark_images", "_pspace_r",
}
# the element grammar and the number and preset readers, which live in chow.py
CHOW_GRAMMAR = {
    "_ElementParser", "parse_element", "_MAX_COEFFICIENT_BITS", "_fraction", "_preset_base",
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
    assert not hasattr(roofscope.RoofRecord, "marked_diagram")
    # a Diagram is its factors: residual diagrams live in oracles.py, and
    # Family names the eight families and no 'unknown' one
    assert roofscope.Diagram._fields == ("factors",)
    assert not {"is_full", "has_node"} & set(dir(roofscope.Diagram))
    assert "UNKNOWN" not in roofscope.Family.__members__
    for argv in [
        ("gp", "F4:2,3"),
        ("verify-table", "--r-max", "10"),
        ("roofs", "--max-rank", "8"),
    ]:
        code, out, err = run(*argv)
        assert code == 0 and out, (argv, err)


def test_the_cli_defines_no_part_of_the_element_grammar():
    import roofscope.chow
    import roofscope.cli

    assert not CHOW_GRAMMAR & set(vars(roofscope.cli))
    assert CHOW_GRAMMAR <= set(vars(roofscope.chow))


# what root_system defined before it folded into dynkin
ROOT_SYSTEM_NAMES = """
    SimpleType _noncanonical _CANONICAL_HINTS _LETTERS simple_types
    positive_root_count _EXCEPTIONAL_TWO_RHO _two_rho
""".split()


# what the classification section of roofs defined before it moved to classify
CLASSIFY_NAMES = """
    ClassificationQuery _BELOW_DIM_3 ClassEntry ClassificationResult classify_simple_kequiv
""".split()
# the case tables, the dimension bound and the symplectic family, which the
# cuts over the family rows replaced
CLASSIFY_DELETED_NAMES = """
    _CASE_SYMPLECTIC _CASE_CODIM_2 _CASE_LARGE_CODIM _CASE_DIM_8 _dim_bound _SYMPLECTIC
""".split()
# roof facts typed beside the family rows, which now read the rows
ROOFS_DELETED_NAMES = "_check_index _OTTAVIANI_RANK".split()


def test_dynkin_owns_the_types_and_no_root_system_module_is_left():
    import roofscope
    import roofscope.classify
    import roofscope.dynkin

    modules = {info.name for info in pkgutil.iter_modules(roofscope.__path__)}
    assert modules == {"chow", "classify", "cli", "dynkin", "homog", "render", "roofs"}
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("roofscope.root_system")
    for name in ROOT_SYSTEM_NAMES:
        assert hasattr(roofscope.dynkin, name), name
    namespace: dict = {}
    exec("from roofscope import SimpleType, positive_root_count", namespace)
    assert namespace["SimpleType"] is roofscope.dynkin.SimpleType
    assert namespace["positive_root_count"] is roofscope.dynkin.positive_root_count
    # the classification lives in classify alone
    for name in CLASSIFY_NAMES:
        assert hasattr(roofscope.classify, name), name
        assert not hasattr(roofs, name), name
    for name in CLASSIFY_DELETED_NAMES:
        assert not hasattr(roofscope.classify, name), name
        assert not hasattr(roofs, name), name
    for name in ROOFS_DELETED_NAMES:
        assert not hasattr(roofs, name), name
    assert not hasattr(roofs.Family, "label")
    assert not hasattr(roofscope.dynkin, "_SERIES_MIN_RANK")


def _resolve_dotted(name: str) -> bool:
    """Whether a dotted name is a roofscope module or attribute, a name of
    ``tests/oracles.py`` or a standard-library module or attribute."""
    import oracles
    import roofscope

    head, *rest = name.split(".")
    modules = [roofscope, oracles] + [
        importlib.import_module(f"roofscope.{info.name}")
        for info in pkgutil.iter_modules(roofscope.__path__)
    ]
    if head == "roofscope":
        obj = roofscope
    elif head in sys.stdlib_module_names:
        obj = importlib.import_module(head)
    else:
        obj = next((getattr(m, head) for m in modules if hasattr(m, head)), None)
        if obj is None:
            return False
    for part in rest:
        if hasattr(obj, "__path__"):  # a package: part may be a submodule
            with suppress(ModuleNotFoundError):
                importlib.import_module(f"{obj.__name__}.{part}")
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_the_dotted_names_of_the_readme_and_the_module_docstrings_resolve():
    import ast
    import re

    root = Path(__file__).resolve().parents[1]
    dotted = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"
    names = {
        "README.md": re.findall(rf"`({dotted})`", (root / "README.md").read_text()),
    }
    for path in sorted((root / "src" / "roofscope").glob("*.py")):
        docstring = ast.get_docstring(ast.parse(path.read_text())) or ""
        names[path.name] = re.findall(rf"``({dotted})``", docstring)
    assert len(names["README.md"]) > 10
    unresolved = {
        (where, name) for where, found in names.items() for name in found
        if not _resolve_dotted(name)
    }
    assert not unresolved
    # a stale name fails: gone from the package, never there, or a variable
    for name in ("homog._pspace_r", "roofscope.root_system", "Diagram.edges", "d.nodes"):
        assert not _resolve_dotted(name), name


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


@pytest.mark.parametrize("n", [2**63, 10**30])
def test_gp_answers_beyond_the_largest_range_length(n):
    # a range longer than sys.maxsize has no len(); the spine is read by slicing
    k = n // 2
    closed_forms = {
        f"A{n}:1": (n, n + 1),
        f"B{n}:1": (2 * n - 1, 2 * n - 1),
        f"C{n}:1": (2 * n - 1, 2 * n),
        f"D{n}:1": (2 * n - 2, 2 * n - 2),
        f"A{n}:{k}": (k * (n + 1 - k), n + 1),
    }
    for diagram, (dim, index) in closed_forms.items():
        code, out, err = run("gp", diagram, "--format", "json")
        assert (code, err) == (0, ""), diagram
        mark = diagram.split(":")[1]
        assert json.loads(out) == {
            "diagram": diagram, "dim": dim, "picard": 1, "index": {mark: index}
        }


def test_roofs_at_one_fiber_beyond_the_largest_range_length():
    n = 2**63  # A_n^M and D_n fit rank n; every other row is larger
    code, out, err = run("roofs", "--max-rank", str(n), "--fiber", str(n), "--format", "json")
    assert (code, err) == (0, "")
    assert [
        (rec["family"], rec["dim_V1"], rec["index_V1"], rec["index_V2"])
        for rec in json.loads(out)
    ] == [(f"A{n}^M", n, n + 1, n + 1), (f"D{n}", n * (n - 1) // 2, 2 * n - 2, 2 * n - 2)]


_NINES, _FOURS = "9" * 2200, "4" * 2200
_P2_RING = ["--base", "P2", "--rank", "2", "--cherns", "3,3"]


@pytest.mark.parametrize("fmt", ["table", "json", "csv", "latex"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gp", f"A{_NINES}:{_FOURS}"],  # dim has 4400 digits
        ["roofs", "--max-rank", "1" + _NINES, "--fiber", _NINES],  # A^G's dim V_1 = r(r-1)
        ["roofs", "--max-rank", "1" + _NINES],  # the same record, further down the stream
        ["chow", "reduce", *_P2_RING, "--element", "2^20000"],
        ["chow", "degree", *_P2_RING, "--element", "2^20000*xi^3"],
    ],
    ids=["gp", "roofs-fiber", "roofs", "chow-reduce", "chow-degree"],
)
def test_an_answer_past_the_print_limit_exits_2_with_nothing_on_stdout(argv, fmt):
    # the interpreter prints no integer of more than 4300 digits; the
    # answer is refused before any of it is written, and the limit stays
    limit = sys.get_int_max_str_digits()
    code, out, err = run(*argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: the answer holds an integer of more than 4300 digits")
    assert "set_int_max_str_digits" not in err
    assert sys.get_int_max_str_digits() == limit


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
# imports decimal and numbers) stays out of the roof queries, fractions
# stays out of chow queries on integral data, and so on; no well-formed
# query builds the argparse parser (nor loads gettext and locale with it),
# no value type loads typing, a table needs no regular expression, and
# only a reader that closes the pipe early makes a query load os
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale", "typing", "os"}
_CHOW_LEFT_OUT = {
    "roofscope.roofs", "roofscope.classify", "roofscope.dynkin", "roofscope.homog",
    "fractions", "decimal", "numbers",
}
_CLASSIFY_LEFT_OUT = {"roofscope.chow", "fractions", "decimal", "re"}
LAYERS_LEFT_OUT = [
    (["roofs", "--max-rank", "8"], "roofscope.roofs",
     {"roofscope.classify", "roofscope.chow", "fractions", "decimal", "re"}),
    (["verify-table", "--r-max", "10"], "roofscope.roofs",
     {"roofscope.classify", "roofscope.chow", "fractions", "decimal", "re"}),
    (["classify", "--dim-x", "8"], "roofscope.classify", _CLASSIFY_LEFT_OUT),
    (["classify", "--symplectic"], "roofscope.classify", _CLASSIFY_LEFT_OUT),
    (["classify", "--codim", "3", "--fiber-gap", "5"], "roofscope.classify", _CLASSIFY_LEFT_OUT),
    (["gp", "F4:2,3", "--format", "json"], "roofscope.homog",
     {"roofscope.roofs", "roofscope.classify", "roofscope.chow"}),
    (["chow", "degree", "--base", "P2", "--rank", "2", "--cherns", "3,3",
      "--element", "(2*xi)^3"], "roofscope.chow", _CHOW_LEFT_OUT),
    (["chow", "reduce", "--base", "P10", "--rank", "10", "--cherns", "1,2,3,4,5,6,7,8,9,10",
      "--element", "(1+xi-2*H)^20 + 4/2*xi^3"], "roofscope.chow", _CHOW_LEFT_OUT),
    (["chow", "canonical", "--base", "P6", "--rank", "2", "--cherns=-1,1"],
     "roofscope.chow", _CHOW_LEFT_OUT),
    (["chow", "canonical", "--base", "Q5", "--rank", "3", "--cherns", "2,2,1"],
     "roofscope.chow", _CHOW_LEFT_OUT),
    (["chow", "mukai-check", "--index", "2", "--c1", "2", "--rank", "2", "--dim", "1",
      "--format", "json"], "roofscope.chow", _CHOW_LEFT_OUT),
    (["chow", "discrepancy", "--codim", "3", "--codim2", "3"], "roofscope.chow", _CHOW_LEFT_OUT),
]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    show = "import sys; print(' '.join(sorted(sys.modules)))"

    def loaded(prelude: str) -> set[str]:
        # -S: no site or .pth file may preload a module and hide it
        out = subprocess.run(
            [sys.executable, "-S", "-c", prelude + show],
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
    assert not added & (NEVER_LOADED | {"fractions", "decimal"})
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
        assert not added & (left_out | NEVER_LOADED), (argv, added & (left_out | NEVER_LOADED))


# --- determinism ---------------------------------------------------------------------


COMMANDS = [
    ("verify-table", "--r-max", "10"),
    ("roofs", "--max-rank", "8", "--format", "json"),
    ("roofs", "--max-rank", "8", "--format", "csv"),
    ("roofs", "--max-rank", "8", "--format", "table"),
    ("classify", "--dim-x", "8"),
    ("gp", "F4:2,3", "--format", "json"),
]


def test_two_runs_in_one_process_print_the_same_bytes():
    snapshot = []
    for argv in COMMANDS:
        code, out, err = run(*argv)
        assert code == 0, (argv, err)
        snapshot.append(out)
    for argv, expected in zip(COMMANDS, snapshot):
        assert run(*argv)[1] == expected
