import numpy as np
import pytest

from sramlab.engine import ConvergenceError, MnaSystem, solve_dc
from sramlab.genlib import (
    DEFAULT_CELL_PARASITICS,
    CellGeometry,
    DeviceSize,
    build_6t_cell,
    build_array,
    build_decoder_2to4,
    build_precharge,
    build_sense_amp,
    build_write_driver,
)
from sramlab.netlist import (
    GROUND,
    CapElement,
    Netlist,
    NetlistError,
    Node,
    ResElement,
    SourceElement,
    parse_netlist,
    print_netlist,
    instantiate,
    validate,
    with_elements,
)

ALL_BUILDERS = {
    "cell": build_6t_cell,
    "array": lambda: build_array(2, 2),
    "sense_amp": build_sense_amp,
    "precharge": build_precharge,
    "write_driver": build_write_driver,
    "decoder_2to4": build_decoder_2to4,
}


def caps_of(net):
    return [e for e in net.elements if isinstance(e, CapElement)]


def mos_count(net, polarity):
    return sum(1 for m in net.mos_elements if m.polarity == polarity)


def biased(net, volts):
    gnd = Node(GROUND)
    extra = [
        SourceElement(f"VT{name}", Node(node), gnd, "DC", (v,))
        for name, (node, v) in volts.items()
    ]
    return with_elements(net, extra)


def test_device_size_ratio():
    assert DeviceSize(6e-6, 2e-6).ratio == 3.0
    geom = CellGeometry()
    assert geom.pu == DeviceSize(10.5e-6, 2.0e-6)
    assert geom.pd == DeviceSize(6.0e-6, 2.0e-6)
    assert geom.pg == DeviceSize(10.5e-6, 2.5e-6)


# ---------------------------------------------------------------------
# 6T cell


def test_cell_transistor_complement():
    cell = build_6t_cell()
    assert mos_count(cell, "PMOS") == 2
    assert mos_count(cell, "NMOS") == 4
    assert cell.element_count == 10  # 6 devices + 4 wiring caps
    assert cell.node_count == 6


def test_cell_cross_coupling():
    cell = build_6t_cell()
    pul = cell.element("MPUL")
    pdl = cell.element("MPDL")
    assert pul.drain.name == "Q" and pul.gate.name == "QBAR"
    assert pdl.drain.name == "Q" and pdl.gate.name == "QBAR"
    assert pul.source.name == "VDD" and pul.bulk.name == "VDD"
    assert pdl.source.name == GROUND and pdl.bulk.name == GROUND
    pgl = cell.element("MPGL")
    assert (pgl.drain.name, pgl.gate.name, pgl.source.name) == ("BL", "WL", "Q")


def test_default_parasitics_are_the_four_extracted_caps():
    assert set(DEFAULT_CELL_PARASITICS) == {"WL", "BL", "Q", "QBAR"}
    assert DEFAULT_CELL_PARASITICS["WL"] == pytest.approx(97.083e-15, rel=1e-12)
    assert DEFAULT_CELL_PARASITICS["BL"] == pytest.approx(12.392e-15, rel=1e-12)
    assert DEFAULT_CELL_PARASITICS["Q"] == pytest.approx(35.838e-15, rel=1e-12)
    assert DEFAULT_CELL_PARASITICS["QBAR"] == pytest.approx(35.338e-15, rel=1e-12)

    cell = build_6t_cell()
    got = {c.id: c.value for c in caps_of(cell)}
    assert got == {
        "CWL": DEFAULT_CELL_PARASITICS["WL"],
        "CBL": DEFAULT_CELL_PARASITICS["BL"],
        "CQ": DEFAULT_CELL_PARASITICS["Q"],
        "CQBAR": DEFAULT_CELL_PARASITICS["QBAR"],
    }
    assert all(c.n2.name == GROUND for c in caps_of(cell))


def test_parasitics_dict_controls_the_caps():
    assert caps_of(build_6t_cell(parasitics={})) == []
    one = build_6t_cell(parasitics={"Q": 1e-15})
    assert [c.id for c in caps_of(one)] == ["CQ"]
    assert caps_of(build_6t_cell(parasitics={"Q": 0.0})) == []


def test_instantiate_maps_ports_and_suffixes_the_rest():
    cell = build_6t_cell()
    ports = {"BL": "BL1", "WL": "WL3", "VDD": "VDD"}
    inst = Netlist(entries=instantiate(cell, "_3_1", ports))
    # Cards only: the block's roles comment and trailer stay behind.
    assert inst.comments == []
    assert [e.id for e in inst.elements] == [e.id + "_3_1" for e in cell.elements]
    # Ports become the parent's nodes, ground stays, the rest take the suffix.
    m = inst.element("MPGL_3_1")
    assert (m.drain.name, m.gate.name, m.source.name, m.bulk.name) == ("BL1", "WL3", "Q_3_1", GROUND)
    assert inst.element("MPGR_3_1").drain.name == "BLB_3_1"
    pul = inst.element("MPUL_3_1")
    assert (pul.gate.name, pul.source.name, pul.bulk.name) == ("QBAR_3_1", "VDD", "VDD")
    assert inst.element("CWL_3_1").n1.name == "WL3"
    assert all(c.n2.is_ground for c in caps_of(inst))
    assert cell.element("MPGL").drain.name == "BL"  # the block is untouched
    with pytest.raises(NetlistError, match="SE"):
        instantiate(cell, "_0", {"SE": "SE0"})


def test_instantiate_takes_every_element_kind():
    # A parsed block of any cards, sources and resistors included, so that
    # a biased cell can be placed twice in one netlist.
    block = parse_netlist(
        "* roles: OUT=b\nR1 a b R=1k\nV1 a 0 DC 1\nI1 b 0 PULSE(0 1m 0 1n 1n 5n 10n)\n"
        "MN b a 0 0 NMOS L=1u W=2u\nC1 b 0 C=1f\n.END\n"
    )
    inst = Netlist(entries=instantiate(block, "_X", {"OUT": "Y"}))
    assert [(e.id, *map(str, e.nodes)) for e in inst.elements] == [
        ("R1_X", "a_X", "Y"),
        ("V1_X", "a_X", "0"),
        ("I1_X", "Y", "0"),
        ("MN_X", "Y", "a_X", "0", "0"),
        ("C1_X", "Y", "0"),
    ]
    # Values and waveforms stay as they were.
    assert inst.element("R1_X").value == 1e3 and inst.element("MN_X").w == 2e-6
    assert (inst.element("I1_X").kind, inst.element("I1_X").params) == ("PULSE", block.element("I1").params)


def test_geometry_is_applied():
    geom = CellGeometry(pg=DeviceSize(21e-6, 2.5e-6))
    cell = build_6t_cell(geom)
    assert cell.element("MPGL").w == 21e-6
    assert cell.element("MPUL").w == 10.5e-6  # untouched defaults


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_generated_netlists_validate_clean(name):
    net = ALL_BUILDERS[name]()
    report = validate(net)
    assert report.get("declared_elements_match").verdict == "pass"
    assert report.get("declared_nodes_match").verdict == "pass"
    assert report.get("degenerate_elements").value == 0
    assert report.get("placeholder_nodes").value == 0
    assert report.get("floating_nodes").value == 0


@pytest.mark.parametrize("name", sorted(ALL_BUILDERS))
def test_generated_netlists_round_trip(name):
    net = ALL_BUILDERS[name]()
    back = parse_netlist(print_netlist(net))
    assert net == back
    assert back.declared_element_count == net.element_count


# ---------------------------------------------------------------------
# Arrays


def test_array_tiling_and_sharing():
    arr = build_array(2, 3)
    assert len(arr.mos_elements) == 36
    for r in range(2):
        assert arr.role_node(f"WL{r}") == f"WL{r}"
    for c in range(3):
        assert arr.role_node(f"BL{c}") == f"BL{c}"
        assert arr.role_node(f"BLB{c}") == f"BLB{c}"
    # Row mates share the word line, column mates the bit line.
    assert arr.element("MPGL_0_0").gate.name == arr.element("MPGL_0_2").gate.name
    assert arr.element("MPGL_0_1").drain.name == arr.element("MPGL_1_1").drain.name
    assert arr.element("MPGL_0_0").gate.name != arr.element("MPGL_1_0").gate.name


def test_array_parasitics_per_line_and_per_cell():
    arr = build_array(2, 3)
    ids = {c.id for c in caps_of(arr)}
    # One cap per word line and true bit line, two per cell; the complement
    # bit line has no extracted default.
    assert ids == (
        {f"CWL{r}" for r in range(2)}
        | {f"CBL{c}" for c in range(3)}
        | {f"CQ_{r}_{c}" for r in range(2) for c in range(3)}
        | {f"CQBAR_{r}_{c}" for r in range(2) for c in range(3)}
    )


def test_array_element_and_node_order():
    # Node first-use order is the solver's unknown order; pin both orders.
    arr = build_array(2, 3)
    cells = [f"_{r}_{c}" for r in range(2) for c in range(3)]
    devices = ("MPUL", "MPUR", "MPDL", "MPDR", "MPGL", "MPGR")
    assert [e.id for e in arr.elements] == (
        ["CWL0", "CWL1", "CBL0", "CBL1", "CBL2"]
        + [f"{name}{tag}" for tag in cells for name in ("CQ", "CQBAR", *devices)]
    )
    assert arr.named_nodes() == [
        "WL0", "WL1", "BL0", "BL1", "BL2",
        "Q_0_0", "QBAR_0_0", "VDD", "BLB0",
        "Q_0_1", "QBAR_0_1", "BLB1",
        "Q_0_2", "QBAR_0_2", "BLB2",
        "Q_1_0", "QBAR_1_0", "Q_1_1", "QBAR_1_1", "Q_1_2", "QBAR_1_2",
    ]


def test_single_cell_array_is_the_cell():
    assert build_array(1, 1) == build_6t_cell()


def test_array_rejects_empty_shapes():
    with pytest.raises(ValueError):
        build_array(0, 4)
    with pytest.raises(ValueError):
        build_array(3, 0)


# ---------------------------------------------------------------------
# Periphery


def test_periphery_device_complements():
    assert mos_count(build_sense_amp(), "PMOS") == 3
    assert mos_count(build_sense_amp(), "NMOS") == 3
    assert mos_count(build_precharge(), "PMOS") == 3
    assert mos_count(build_precharge(), "NMOS") == 0
    assert mos_count(build_write_driver(), "PMOS") == 1
    assert mos_count(build_write_driver(), "NMOS") == 2
    dec = build_decoder_2to4()
    assert mos_count(dec, "PMOS") == 14
    assert mos_count(dec, "NMOS") == 14


def test_decoder_is_one_hot():
    dec = build_decoder_2to4()
    for code in range(4):
        a1, a0 = (code >> 1) & 1, code & 1
        net = biased(
            dec,
            {
                "VDD": ("VDD", 1.8),
                "A0": (dec.role_node("A0"), 1.8 * a0),
                "A1": (dec.role_node("A1"), 1.8 * a1),
            },
        )
        sol = solve_dc(net)
        for k in range(4):
            v = sol.voltage(dec.role_node(f"WL{k}"))
            if k == code:
                assert v > 1.7, f"WL{k} should select code {code}"
            else:
                assert v < 0.1, f"WL{k} should stay low for code {code}"


def test_precharge_pulls_both_bitlines_high():
    pre = build_precharge()
    gnd = Node(GROUND)
    loaded = with_elements(
        pre,
        [
            ResElement("RBL", Node("BL"), gnd, 1e6),
            ResElement("RBLB", Node("BLB"), gnd, 1e6),
        ],
    )
    on = solve_dc(biased(loaded, {"VDD": ("VDD", 1.8), "PC": ("PC", 0.0)}))
    assert on.voltage("BL") > 1.7 and on.voltage("BLB") > 1.7
    off = solve_dc(biased(loaded, {"VDD": ("VDD", 1.8), "PC": ("PC", 1.8)}))
    assert off.voltage("BL") < 0.2 and off.voltage("BLB") < 0.2


def test_write_driver_inverts_and_passes():
    wd = build_write_driver()
    loaded = with_elements(wd, [ResElement("RBL", Node("BL"), Node(GROUND), 1e6)])

    low_in = solve_dc(biased(loaded, {"VDD": ("VDD", 1.8), "D": ("D", 0.0), "WE": ("WE", 1.8)}))
    assert low_in.voltage("DINT") > 1.7
    # The NMOS pass gate hands over a threshold-degraded high.
    assert 0.9 < low_in.voltage("BL") < 1.5

    high_in = solve_dc(biased(loaded, {"VDD": ("VDD", 1.8), "D": ("D", 1.8), "WE": ("WE", 1.8)}))
    assert high_in.voltage("DINT") < 0.1
    assert high_in.voltage("BL") < 0.05


def test_sense_amp_regenerates_an_imbalance():
    # A pure initial guess can still settle on the metastable root, so the
    # imbalance is injected resistively, as a read would.
    sa = build_sense_amp()
    gnd = Node(GROUND)

    def sense(hi, lo):
        tipped = with_elements(
            sa,
            [
                ResElement("RTIP1", Node(hi), Node("VDD"), 1e6),
                ResElement("RTIP2", Node(lo), gnd, 1e6),
            ],
        )
        net = biased(tipped, {"VDD": ("VDD", 1.8), "SE": ("SE", 1.8), "SEB": ("SEB", 0.0)})
        sys = MnaSystem(net)
        x0 = np.zeros(sys.size)
        x0[sys.node_index[hi]] = 1.8
        (x,), _, _, failed = sys.solve_lanes(sys.rhs()[None], x0)
        if failed:
            raise ConvergenceError(failed[0])
        return {name: x[i] for name, i in sys.node_index.items()}

    up = sense("BL", "BLB")
    assert up["BL"] > 1.5 and up["BLB"] < 0.3
    down = sense("BLB", "BL")
    assert down["BLB"] > 1.5 and down["BL"] < 0.3
