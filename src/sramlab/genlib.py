"""Netlist generators: the 6T storage cell, cell arrays, and the column
periphery (precharge, sense amplifier, write driver, row decoder).

Generated netlists carry role annotations naming their ports and the usual
node/element count trailer, so they round-trip through the parser and drop
straight into the analysis routines.  They hold only M and C cards, so
`netlist.instantiate` can place them inside a larger netlist; the array is
built that way from the single cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import (
    GROUND,
    CapElement,
    MosElement,
    Netlist,
    Node,
    instantiate,
)
from .numbers import parse_spice_number


@dataclass(frozen=True)
class DeviceSize:
    w: float  # m
    l: float  # m

    @property
    def ratio(self) -> float:
        return self.w / self.l


@dataclass(frozen=True)
class CellGeometry:
    """Drawn sizes of the three transistor pairs in a 6T cell."""

    pu: DeviceSize = DeviceSize(10.5e-6, 2.0e-6)
    pd: DeviceSize = DeviceSize(6.0e-6, 2.0e-6)
    pg: DeviceSize = DeviceSize(10.5e-6, 2.5e-6)


# Lumped wiring capacitance per port of a laid-out single cell.  The
# extraction reports only four: the complement bitline and the supply came
# back with zero nodal capacitance.
DEFAULT_CELL_PARASITICS: dict[str, float] = {
    "WL": parse_spice_number("97.083f"),
    "BL": parse_spice_number("12.392f"),
    "Q": parse_spice_number("35.838f"),
    "QBAR": parse_spice_number("35.338f"),
}


def _mos(mid: str, d: Node, g: Node, s: Node, b: Node, polarity: str, size: DeviceSize):
    return MosElement(mid, d, g, s, b, polarity, l=size.l, w=size.w)


def _finish(net: Netlist, roles: dict[str, str]) -> Netlist:
    net.set_roles(roles)
    net.add_trailer()
    return net


def build_6t_cell(
    geom: CellGeometry | None = None,
    parasitics: dict[str, float] | None = None,
) -> Netlist:
    """Single 6T cell.  `parasitics` maps node names to farads; None picks
    the extracted defaults, an empty dict omits them."""
    geom = geom or CellGeometry()
    if parasitics is None:
        parasitics = DEFAULT_CELL_PARASITICS

    gnd = Node(GROUND)
    names = ("Q", "QBAR", "BL", "BLB", "WL", "VDD")
    n = {name: Node(name) for name in names}

    net = Netlist(title="6T SRAM cell")
    for name in names:
        cap = parasitics.get(name, 0.0)
        if cap > 0.0:
            net.entries.append(CapElement(f"C{name}", n[name], gnd, cap))
    vdd = n["VDD"]
    net.entries.extend(
        [
            _mos("MPUL", n["Q"], n["QBAR"], vdd, vdd, "PMOS", geom.pu),
            _mos("MPUR", n["QBAR"], n["Q"], vdd, vdd, "PMOS", geom.pu),
            _mos("MPDL", n["Q"], n["QBAR"], gnd, gnd, "NMOS", geom.pd),
            _mos("MPDR", n["QBAR"], n["Q"], gnd, gnd, "NMOS", geom.pd),
            _mos("MPGL", n["BL"], n["WL"], n["Q"], gnd, "NMOS", geom.pg),
            _mos("MPGR", n["BLB"], n["WL"], n["QBAR"], gnd, "NMOS", geom.pg),
        ]
    )
    return _finish(net, {name: name for name in names})


def build_array(
    rows: int,
    cols: int,
    geom: CellGeometry | None = None,
    parasitics: dict[str, float] | None = None,
) -> Netlist:
    """Tile rows x cols cells sharing word lines per row and bit lines per
    column.  A 1x1 array is exactly the single cell."""
    if rows < 1 or cols < 1:
        raise ValueError("array needs at least one row and one column")
    if rows == 1 and cols == 1:
        return build_6t_cell(geom, parasitics)
    if parasitics is None:
        parasitics = DEFAULT_CELL_PARASITICS
    # The lines carry their own caps once; each cell keeps its storage caps.
    cell = build_6t_cell(geom, {k: v for k, v in parasitics.items() if k in ("Q", "QBAR")})

    gnd = Node(GROUND)
    net = Netlist(title=f"{rows}x{cols} SRAM cell array")
    lines = [(f"WL{r}", "WL") for r in range(rows)]
    lines += [(f"{side}{c}", side) for c in range(cols) for side in ("BL", "BLB")]
    for name, base in lines:
        if parasitics.get(base, 0.0) > 0.0:
            net.entries.append(CapElement(f"C{name}", Node(name), gnd, parasitics[base]))
    for r in range(rows):
        for c in range(cols):
            ports = {"BL": f"BL{c}", "BLB": f"BLB{c}", "WL": f"WL{r}", "VDD": "VDD"}
            net.entries.extend(instantiate(cell, f"_{r}_{c}", ports))
    return _finish(net, {"VDD": "VDD", **{name: name for name, _ in lines}})


def build_precharge(geom: CellGeometry | None = None) -> Netlist:
    """Bitline precharge: two pull-ups plus an equalizer, all gated by PC
    (active low)."""
    geom = geom or CellGeometry()
    vdd, bl, blb, pc = Node("VDD"), Node("BL"), Node("BLB"), Node("PC")
    net = Netlist(title="bitline precharge")
    net.entries.extend(
        [
            _mos("MPCL", bl, pc, vdd, vdd, "PMOS", geom.pu),
            _mos("MPCR", blb, pc, vdd, vdd, "PMOS", geom.pu),
            _mos("MPCEQ", bl, pc, blb, vdd, "PMOS", geom.pu),
        ]
    )
    return _finish(net, {"BL": "BL", "BLB": "BLB", "PC": "PC", "VDD": "VDD"})


def build_sense_amp(geom: CellGeometry | None = None) -> Netlist:
    """Latch sense amplifier on the bitline pair: cross-coupled inverters
    between virtual rails, an SE-gated tail to ground and an SEB-gated
    header to VDD."""
    geom = geom or CellGeometry()
    gnd = Node(GROUND)
    vdd, bl, blb = Node("VDD"), Node("BL"), Node("BLB")
    se, seb = Node("SE"), Node("SEB")
    vp, vn = Node("SAP"), Node("SAN")
    net = Netlist(title="latch sense amplifier")
    net.entries.extend(
        [
            _mos("MSAPL", bl, blb, vp, vdd, "PMOS", geom.pu),
            _mos("MSAPR", blb, bl, vp, vdd, "PMOS", geom.pu),
            _mos("MSANL", bl, blb, vn, gnd, "NMOS", geom.pd),
            _mos("MSANR", blb, bl, vn, gnd, "NMOS", geom.pd),
            _mos("MSAHD", vp, seb, vdd, vdd, "PMOS", geom.pu),
            _mos("MSATL", vn, se, gnd, gnd, "NMOS", geom.pd),
        ]
    )
    return _finish(
        net, {"BL": "BL", "BLB": "BLB", "SE": "SE", "SEB": "SEB", "VDD": "VDD"}
    )


def build_write_driver(geom: CellGeometry | None = None) -> Netlist:
    """Data inverter feeding the bitline through a WE-gated pass device."""
    geom = geom or CellGeometry()
    gnd = Node(GROUND)
    vdd, d, we, bl, dint = Node("VDD"), Node("D"), Node("WE"), Node("BL"), Node("DINT")
    net = Netlist(title="write driver")
    net.entries.extend(
        [
            _mos("MWDP", dint, d, vdd, vdd, "PMOS", geom.pu),
            _mos("MWDN", dint, d, gnd, gnd, "NMOS", geom.pd),
            _mos("MWDG", bl, we, dint, gnd, "NMOS", geom.pg),
        ]
    )
    return _finish(net, {"D": "D", "WE": "WE", "BL": "BL", "VDD": "VDD"})


def build_decoder_2to4(geom: CellGeometry | None = None) -> Netlist:
    """Two-bit row decoder: input inverters, four NAND2 gates, and output
    inverters driving WL0..WL3 (one-hot, WLk high when A1 A0 encode k)."""
    geom = geom or CellGeometry()
    gnd = Node(GROUND)
    vdd = Node("VDD")
    a0, a1 = Node("A0"), Node("A1")
    a0b, a1b = Node("A0B"), Node("A1B")
    net = Netlist(title="2-to-4 row decoder")

    def inverter(tag: str, inp: Node, out: Node) -> None:
        net.entries.append(_mos(f"M{tag}P", out, inp, vdd, vdd, "PMOS", geom.pu))
        net.entries.append(_mos(f"M{tag}N", out, inp, gnd, gnd, "NMOS", geom.pd))

    def nand2(tag: str, x: Node, y: Node, out: Node) -> None:
        mid = Node(f"{tag}M")
        net.entries.append(_mos(f"M{tag}PA", out, x, vdd, vdd, "PMOS", geom.pu))
        net.entries.append(_mos(f"M{tag}PB", out, y, vdd, vdd, "PMOS", geom.pu))
        net.entries.append(_mos(f"M{tag}NA", out, x, mid, gnd, "NMOS", geom.pd))
        net.entries.append(_mos(f"M{tag}NB", mid, y, gnd, gnd, "NMOS", geom.pd))

    inverter("INV0", a0, a0b)
    inverter("INV1", a1, a1b)
    selects = [(a1b, a0b), (a1b, a0), (a1, a0b), (a1, a0)]
    roles = {"A0": "A0", "A1": "A1", "VDD": "VDD"}
    for k, (hi, lo) in enumerate(selects):
        nand_out = Node(f"N{k}")
        wl = Node(f"WL{k}")
        nand2(f"ND{k}", hi, lo, nand_out)
        inverter(f"OUT{k}", nand_out, wl)
        roles[f"WL{k}"] = wl.name
    return _finish(net, roles)
