import ast
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sramlab import netlist
from sramlab.genlib import build_6t_cell
from sramlab.netlist import (
    CapElement,
    MosElement,
    Netlist,
    NetlistError,
    NetlistSemanticError,
    NetlistSyntaxError,
    Node,
    SourceElement,
    parse_netlist,
    print_netlist,
    validate,
    with_elements,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "sramlab" / "corpus"
CELL = (CORPUS / "cell_extract.sp").read_text()
ARRAY = (CORPUS / "array_extract.sp").read_text()
WRITE_READ = (CORPUS / "cell_write_read.sp").read_text()


# ---------------------------------------------------------------------
# Single-card parses


def test_cap_card():
    net = parse_netlist("Cpar1 1 0 C=97.083f\n.END\n")
    (c,) = net.elements
    assert isinstance(c, CapElement)
    assert c.id == "Cpar1"
    assert (c.n1.name, c.n2.name) == ("1", "0")
    assert c.value == 97.083e-15
    assert not c.degenerate


def test_empty_netlist():
    net = parse_netlist(".END\n")
    assert net.element_count == 0
    assert net.node_count == 0


def test_degenerate_mos_with_placeholders():
    net = parse_netlist("M19 ? 1 ? 1 NMOS L=0u W=0u\n.END\n")
    (m,) = net.elements
    assert isinstance(m, MosElement)
    assert m.degenerate
    assert sum(1 for n in m.nodes if n.placeholder) == 2
    # Placeholders are mutually distinct, not one shared node.
    assert m.drain != m.source


def test_mos_card_fields():
    net = parse_netlist(
        "M5 3 4 1 6 PMOS L=2u W=10.5u AD=63p PD=33u AS=143p PS=64u\n"
        "* M5 DRAIN GATE SOURCE BULK (34 31 36 41.5)\n.END\n"
    )
    (m,) = net.elements
    assert m.polarity == "PMOS"
    assert m.l == 2e-6 and m.w == 10.5e-6
    assert m.ad == 63e-12 and m.ps == 64e-6
    assert m.bbox == (34.0, 31.0, 36.0, 41.5)


def test_source_cards():
    net = parse_netlist(
        "V1 IN 0 DC 1.8\n"
        "V2 A 0 PULSE(0 1.8 1n 2n 2n 5n 20n)\n"
        "I1 B 0 DC 1u\n"
        "V3 C 0 PWL(0 0 1n 1.8 5n 0)\n"
        ".END\n"
    )
    v1, v2, i1, v3 = net.elements
    assert v1.kind == "DC" and v1.params == (1.8,)
    assert v2.kind == "PULSE" and v2.params[1] == 1.8
    assert i1.is_current and not v1.is_current
    assert v3.kind == "PWL" and len(v3.params) == 6


def test_resistor_card():
    net = parse_netlist("R1 A B 10k\n.END\n")
    (r,) = net.elements
    assert r.value == 10e3


def test_syntax_error_carries_line_number():
    with pytest.raises(NetlistSyntaxError) as err:
        parse_netlist("* fine\nM1 1 2 3\n.END\n")
    assert "line 2" in str(err.value)


M_CARD = "M1 a b c d NMOS L=1u W=1u"

# One row per `raise NetlistSyntaxError` in the parser: the line before the
# bad one (a title unless the rejection needs an element first), the bad
# line, and the message.
REJECTIONS = [
    ("* t", "R1 a 0 abc", "bad R value 'abc'"),
    ("* t", ".MODEL foo", "unsupported directive '.MODEL'"),
    (M_CARD, "* M1 DRAIN GATE SOURCE BULK (1 2 3)", "bounding box needs 4 coordinates"),
    ("* t", "* roles: Q", "bad role annotation 'Q'"),
    ("* t", "X1 a b", "unknown card type 'X1'"),
    ("* t", "M1 1 2 3", "M card needs drain gate source bulk and polarity"),
    ("* t", "M1 a b c d XMOS L=1u W=1u", "bad polarity 'XMOS'"),
    ("* t", "M1 a b c d NMOS L=1u W=1u Q=3", "bad M-card field 'Q=3'"),
    ("* t", "M1 a b c d NMOS L=1u W=1u l=2u", "repeated M-card field 'l'"),
    ("* t", "M1 a b c d NMOS L=1u", "M card needs both L= and W="),
    ("* t", "M1 a b c d NMOS L=-1u W=1u", "negative device geometry"),
    ("* t", "R1 a 0", "R card needs two nodes and one value"),
    ("* t", "C1 a 0 R=1p", "bad C-card field 'R=1p'"),
    ("* t", "R1 a 0 -1k", "negative R value"),
    ("* t", "V1 a 0", "source card needs two nodes and a value"),
    ("* t", "V1 a 0 PULSE(0 1.8", "malformed PULSE specification"),
    ("* t", "V1 a 0 1.8 2", "bad source value"),
    ("* t", "V1 a 0 PULSE(0 1.8 1n)", "PULSE needs v1 v2 td tr tf pw per"),
    ("* t", "V1 a 0 PULSE(0 1.8 1n 0 1n 5n 20n)", "PULSE rise and fall times must be > 0"),
    ("* t", "I1 a 0 PWL(0 0 1n)", "PWL needs time/value pairs"),
    ("* t", "V1 a 0 PWL(0 0 1n 1 1n 0)", "PWL times must be strictly increasing"),
]


@pytest.mark.parametrize("head, card, message", REJECTIONS)
def test_parser_rejections(head, card, message):
    with pytest.raises(NetlistSyntaxError) as err:
        parse_netlist(f"{head}\n{card}\n.END\n")
    assert type(err.value) is NetlistSyntaxError and err.value.lineno == 2
    assert str(err.value) == f"line 2: {message}"


def test_every_parser_rejection_is_in_the_table():
    # The table grows with the parser: one row per raise site.
    tree = ast.parse((Path(netlist.__file__)).read_text())
    sites = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "NetlistSyntaxError"
    ]
    assert len(sites) == len(REJECTIONS)


def test_bare_number_source_card_is_dc():
    v1, i1 = parse_netlist("* t\nV1 a 0 1.8\nI1 a 0 -2m\n.END\n").elements
    assert (v1.kind, v1.params) == ("DC", (1.8,))
    assert (i1.kind, i1.params) == ("DC", (-2e-3,))


def test_duplicate_id_rejected():
    with pytest.raises(NetlistSemanticError) as err:
        parse_netlist("R1 A 0 1k\nR1 B 0 2k\n.END\n")
    assert "R1" in str(err.value)


def test_unknown_directive_rejected():
    with pytest.raises(NetlistSyntaxError):
        parse_netlist(".MODEL foo\n.END\n")


def test_case_insensitive_keywords_case_sensitive_nodes():
    net = parse_netlist("m1 Out In 0 0 nmos l=2U w=6U\n.end\n")
    (m,) = net.elements
    assert m.polarity == "NMOS"
    assert m.drain.name == "Out"  # not folded
    assert m.l == 2e-6


def test_suffix_equivalence():
    a = parse_netlist("C1 A 0 C=1000u\n.END\n").elements[0].value
    b = parse_netlist("C2 A 0 C=0.001\n.END\n").elements[0].value
    assert math.isclose(a, b, rel_tol=0, abs_tol=0) or abs(a - b) <= math.ulp(a)


# ---------------------------------------------------------------------
# Corpus


def test_cell_corpus_counts():
    net = parse_netlist(CELL)
    assert net.node_count == 6
    assert net.element_count == 10
    kinds = [type(e).__name__ for e in net.elements]
    assert kinds.count("CapElement") == 4
    assert kinds.count("MosElement") == 6
    assert net.declared_node_count == 6
    assert net.declared_element_count == 10


def test_cell_corpus_validate():
    rep = validate(parse_netlist(CELL))
    assert rep.get("degenerate_elements").value == 0
    assert rep.get("zero_cap_warnings").value == 2
    assert rep.get("declared_nodes_match").verdict == "pass"
    assert rep.get("declared_elements_match").verdict == "pass"


def test_array_corpus_counts():
    net = parse_netlist(ARRAY)
    assert net.element_count == 79
    assert net.declared_element_count == 79
    degenerate = [e for e in net.elements if e.degenerate]
    assert degenerate
    assert all(
        isinstance(e, MosElement) and e.l == 0.0 and e.w == 0.0 for e in degenerate
    )


def test_array_corpus_validate_reports_placeholders():
    rep = validate(parse_netlist(ARRAY))
    assert rep.get("degenerate_elements").value > 0
    assert rep.get("placeholder_nodes").value > 0


@pytest.mark.parametrize("text", [CELL, ARRAY], ids=["cell", "array"])
def test_corpus_roundtrip_stable(text):
    once = print_netlist(parse_netlist(text))
    twice = print_netlist(parse_netlist(once))
    assert once == twice
    assert parse_netlist(text) == parse_netlist(once)


def test_double_roundtrip_structural_identity():
    a = parse_netlist(CELL)
    b = parse_netlist(print_netlist(parse_netlist(print_netlist(a))))
    assert a == b


def test_print_cap_format():
    net = Netlist()
    net.entries.append(CapElement("Cpar1", Node("1"), Node("0"), 97.083e-15))
    assert "Cpar1 1 0 C=97.083f" in print_netlist(net)


def test_print_empty():
    assert print_netlist(Netlist()).strip() == ".END"


# ---------------------------------------------------------------------
# Structure helpers


def test_single_cap_floats_both_nodes():
    rep = validate(parse_netlist("C1 A B C=1f\n.END\n"))
    assert rep.get("floating_nodes").value == 2


def test_roles_round_trip():
    net = parse_netlist(CELL)
    net.roles = {"Q": "3", "QBAR": "4", "BL": "2", "BLB": "?", "WL": "1", "VDD": "6"}
    back = parse_netlist(print_netlist(net))
    assert back.role_node("Q") == "3"
    assert back.role_node("WL") == "1"


def test_changed_roles_and_totals_read_back():
    # Roles and totals are fields that the printer writes, so a changed
    # value survives a print and a re-parse.
    net = parse_netlist(WRITE_READ)
    net.roles = {**net.roles, "Q": "QBAR", "QBAR": "Q"}
    net.declared_element_count = 99
    back = parse_netlist(print_netlist(net))
    assert back.role_node("Q") == "QBAR" and back.role_node("QBAR") == "Q"
    assert back.declared_element_count == 99
    assert back == net


def test_netlist_prints_one_roles_line():
    # Roles split over two lines, and roles set on a hand-built netlist:
    # one line each, and no comment entry holds them.
    split = parse_netlist("* split\n* roles: Q=a\nR1 a b 1k\n* roles: QBAR=b\nR2 b 0 1k\n.END\n")
    for net in (split, Netlist(title="built", roles={"Q": "a"})):
        text = print_netlist(net)
        assert text.count("* roles:") == 1
        assert parse_netlist(text).roles == net.roles
    assert split.roles == {"Q": "a", "QBAR": "b"} and split.comments == []


@pytest.mark.parametrize("head", ["* Total Nodes: 1\n*hello\n", "* roles: Q=a\n*hello\n", "*hello\n* roles: Q=a\n"])
def test_roles_and_totals_leave_the_title_in_place(head):
    # The printer writes the roles after the title and the totals before
    # .END, so neither may take the title's place, or a print would move it.
    net = parse_netlist(head + "R1 a 0 1k\n.END\n")
    assert net.title == "hello" and net.comments == []
    text = print_netlist(net)
    assert parse_netlist(text) == net and print_netlist(parse_netlist(text)) == text


def test_with_elements_does_not_mutate():
    base = parse_netlist(CELL)
    n0 = base.element_count
    extra = parse_netlist("R1 1 0 1k\n.END\n").elements
    grown = with_elements(base, extra)
    assert base.element_count == n0
    assert grown.element_count == n0 + 1


def test_grown_copy_declares_no_stale_totals():
    # A generated cell declares its 6 nodes and 10 elements; a copy with a
    # supply source appended is no longer that circuit, so after a print
    # and a parse it declares no totals and validate checks none.
    cell = build_6t_cell()
    supply = SourceElement("VSUPPLY", Node(cell.role_node("VDD")), Node("0"), "DC", (1.8,))
    grown = parse_netlist(print_netlist(with_elements(cell, [supply])))
    assert (cell.declared_node_count, cell.declared_element_count) == (cell.node_count, cell.element_count)
    assert grown.element_count == cell.element_count + 1
    assert (grown.declared_node_count, grown.declared_element_count) == (None, None)
    assert "declared_elements_match" not in validate(grown)
    assert "declared_nodes_match" not in validate(grown)


def test_with_elements_rejects_id_clashes():
    base = parse_netlist("R1 a 0 1k\n.END\n")
    extra = parse_netlist("r1 a 0 2k\n.END\n").elements
    with pytest.raises(NetlistError, match="element named r1"):
        with_elements(base, extra)
    twice = parse_netlist("R2 a 0 1k\n.END\n").elements * 2
    with pytest.raises(NetlistError, match="element named R2"):
        with_elements(base, twice)


def test_trailer_mismatch_warns():
    text = "R1 A 0 1k\n* Total Nodes: 9\n* Total Elements: 9\n.END\n"
    rep = validate(parse_netlist(text))
    assert rep.get("declared_nodes_match").verdict == "fail"
    assert rep.get("declared_elements_match").verdict == "fail"


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C", "D", "OUT"]),
            st.floats(min_value=1e-15, max_value=1e-9),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_roundtrip_canonical(caps):
    net = Netlist()
    for k, (node, value) in enumerate(caps):
        net.entries.append(CapElement(f"C{k}", Node(node), Node("0"), value))
    once = print_netlist(net)
    twice = print_netlist(parse_netlist(once))
    assert once == twice
