"""Command-line front end.

Every subcommand is a thin wrapper over one library operation; no analysis
logic lives here.  Each handler fills the report that main() then prints
as `name value unit [verdict]` lines (floats rendered %.9g) under the
card's `# ` header; `generate` without --out returns its netlist, which
main() prints instead.  Bulk data goes to CSV files via --out.  Identical
inputs produce byte-identical output.

Exit codes: 0 success, 1 analysis failure, 2 bad input.  main() alone
maps a command's exception to its code: EngineError (no convergence, a
floating node, a cell that will not write, a missing crossing) is an
analysis failure; NetlistError, ConfigError, OSError and ValueError, which
the library raises when it checks its own arguments, are bad input.
Handlers raise ConfigError only to add context to a message.  main()
prints each library warning as one `warning: <message>` line on stderr.
"""
from __future__ import annotations

import argparse
import re
import sys
import warnings
from pathlib import Path

from .config import ConfigError, load_config, tech_header_lines
from .devices import TechnologyParams, derive_tech_params
from .engine import (
    EngineError,
    dc_sweep,
    solve_dc,
    sweep_to_csv,
    transient,
    waveform_from_csv,
    waveform_to_csv,
)
from .genlib import (
    CellGeometry,
    DeviceSize,
    build_6t_cell,
    build_array,
    build_decoder_2to4,
    build_precharge,
    build_sense_amp,
    build_write_driver,
)
from .metrics import (
    DEFAULT_LAYOUT_QUOTED_TOTAL,
    DEFAULT_LAYOUT_RECTS,
    DelayMeasurement,
    area_report,
    bitline_delay,
    check_ratios,
    dynamic_power,
    propagation_delay,
)
from .netlist import NetlistError, parse_netlist, print_netlist, validate
from .numbers import parse_spice_number
from .report import AnalysisReport, write_columns
from .stability import (
    VariationModel,
    butterfly,
    butterfly_to_csv,
    drv_bruteforce,
    drv_closed_form,
    drv_inputs_from_cell,
    monte_carlo_snm,
    read_current,
    write_margin,
)


def _spice(text: str) -> float:
    try:
        return parse_spice_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_netlist(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read netlist {path}: {exc.strerror}") from None
    return parse_netlist(text)


def _geometry(args) -> CellGeometry:
    base = CellGeometry()

    def size(name: str, default: DeviceSize) -> DeviceSize:
        pair = getattr(args, name, None)
        return DeviceSize(pair[0], pair[1]) if pair else default

    return CellGeometry(
        pu=size("pu", base.pu), pd=size("pd", base.pd), pg=size("pg", base.pg)
    )


# ---------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse(args, tech, rep):
    net = _read_netlist(args.netlist)
    if net.title:
        rep.add("title", net.title)
    rep.add("nodes", net.node_count)
    rep.add("elements", net.element_count)
    if net.declared_node_count is not None:
        rep.add("declared_nodes", net.declared_node_count)
    if net.declared_element_count is not None:
        rep.add("declared_elements", net.declared_element_count)


def _cmd_validate(args, tech, rep):
    rep.entries.extend(validate(_read_netlist(args.netlist)).entries)


_GENERATE_KINDS = {
    "cell": build_6t_cell,
    "array": build_array,
    "sense-amp": build_sense_amp,
    "precharge": build_precharge,
    "write-driver": build_write_driver,
    "decoder": build_decoder_2to4,
}


def _cmd_generate(args, tech, rep):
    geom = _geometry(args)
    build = _GENERATE_KINDS[args.kind]
    parasitics = {} if args.no_parasitics else None
    if args.kind == "array":
        net = build(args.rows, args.cols, geom, parasitics)
    elif args.kind == "cell":
        net = build(geom, parasitics)
    elif args.no_parasitics:
        raise ConfigError(f"--no-parasitics applies to cell and array only, not {args.kind}")
    else:
        net = build(geom)
    text = print_netlist(net)
    if not args.out:
        return text
    Path(args.out).write_text(text)
    rep.add("nodes", net.node_count)
    rep.add("elements", net.element_count)


def _cmd_dc(args, tech, rep):
    net = _read_netlist(args.netlist)
    sol = solve_dc(net, tech)
    for name in sorted(sol.voltages):
        rep.add(f"V({name})", sol.voltages[name], "V")
    for sid in sorted(sol.branch_currents):
        rep.add(f"I({sid})", sol.branch_currents[sid], "A")
    rep.add("iterations", sol.iterations)


def _cmd_sweep(args, tech, rep):
    net = _read_netlist(args.netlist)
    result = dc_sweep(net, args.source, args.start, args.stop, args.step, tech)
    if args.out:
        sweep_to_csv(result, args.out)
    rep.add("points", result.values.size)
    unit = "A" if net.element(args.source).is_current else "V"
    rep.add("start", float(result.values[0]), unit)
    rep.add("stop", float(result.values[-1]), unit)


def _cmd_tran(args, tech, rep):
    net = _read_netlist(args.netlist)
    ics = {}
    for item in args.ic or []:
        name, _, value = item.partition("=")
        try:
            if not name:
                raise ValueError(item)
            ics[name] = parse_spice_number(value)
        except ValueError:
            raise ConfigError(f"bad --ic {item!r}; expected NODE=VOLTS") from None
    wave = transient(net, args.tstop, args.dt, tech, args.method, ics or None)
    if args.out:
        waveform_to_csv(wave, args.out)
    rep.add("points", wave.time.size)
    rep.add("t_stop", float(wave.time[-1]), "s")


def _cmd_snm(args, tech, rep):
    net = _read_netlist(args.netlist)
    data = butterfly(net, tech, args.mode, args.vdd, args.grid)
    if args.out:
        butterfly_to_csv(data, args.out)
    rep.add("snm_high", data.snm_high, "V")
    rep.add("snm_low", data.snm_low, "V")
    rep.add("snm", data.snm, "V", verdict="pass" if data.snm > 0 else "fail")


def _cmd_drv(args, tech, rep):
    net = _read_netlist(args.netlist)
    closed = brute = None
    if args.method in ("closed-form", "both"):
        closed = drv_closed_form(drv_inputs_from_cell(net, tech))
        rep.add("drv_closed_form", closed, "V")
    if args.method in ("bruteforce", "both"):
        brute = drv_bruteforce(net, tech, args.resolution, args.vmax)
        rep.add("drv_bruteforce", brute, "V")
    if closed is not None and brute is not None:
        rep.add("drv_delta", abs(closed - brute), "V")


def _cmd_write_margin(args, tech, rep):
    net = _read_netlist(args.netlist)
    wm = write_margin(net, tech, args.vdd, args.wl)
    rep.add("write_margin", wm, "V")


def _cmd_power(args, tech, rep):
    power = dynamic_power(args.cl, args.vdd, args.fsw)
    rep.add("dynamic_power", power, "W")


def _cmd_delay(args, tech, rep):
    if args.tplh is not None or args.tphl is not None:
        if args.tplh is None or args.tphl is None:
            raise ConfigError("--tplh and --tphl must be given together")
        m = DelayMeasurement(args.tplh, args.tphl)
        rep.add("t_plh", m.t_plh, "s")
        rep.add("t_phl", m.t_phl, "s")
        rep.add("t_p", m.t_p, "s")
    elif args.waveform:
        try:
            wave = waveform_from_csv(args.waveform)
        except OSError as exc:
            raise ConfigError(
                f"cannot read waveform {args.waveform}: {exc.strerror}"
            ) from None
        except ValueError as exc:
            raise ConfigError(f"bad waveform {args.waveform}: {exc}") from None
        for flag, name in (("--node", args.node), ("--input", args.input)):
            if name is None:
                raise ConfigError(f"--waveform needs {flag}")
            if name not in wave.nodes:
                raise ConfigError(f"{flag} {name} is not a node column of {args.waveform}")
        m = propagation_delay(wave, args.node, 0.0, args.vdd, args.input)
        rep.add("t_plh", m.t_plh, "s")
        rep.add("t_phl", m.t_phl, "s")
        rep.add("t_p", m.t_p, "s")
    elif args.cbit is not None:
        current = args.icell
        if current is None:
            if not args.netlist:
                raise ConfigError("bitline mode needs --icell or --netlist")
            current = lambda: rep.add("i_cell", read_current(_read_netlist(args.netlist), tech, args.vdd), "A")
        rep.add("bitline_delay", bitline_delay(args.cbit, args.dv, current), "s")
    else:
        raise ConfigError(
            "delay needs --tplh/--tphl, --waveform, or --cbit arguments"
        )


def _cmd_ratios(args, tech, rep):
    geom = _geometry(args)
    r = check_ratios(geom.pd, geom.pu, geom.pg)
    rep.add("cr_left", r.cr_left)
    rep.add("cr_right", r.cr_right)
    rep.add("pr_left", r.pr_left)
    rep.add("pr_right", r.pr_right)
    rep.add(
        "read_stable",
        "true" if r.read_stable else "false",
        verdict="pass" if r.read_stable else "fail",
    )
    rep.add(
        "write_stable",
        "true" if r.write_stable else "false",
        verdict="pass" if r.write_stable else "fail",
    )


def _cmd_area(args, tech, rep):
    rects = [tuple(r) for r in args.rect] if args.rect else list(DEFAULT_LAYOUT_RECTS)
    result = area_report(rects)
    for i, a in enumerate(result.areas):
        rep.add(f"area_{i}", a, "lambda^2")
    rep.add("total", result.total, "lambda^2")
    if not args.rect:
        # The drawn regions sum below the quoted figure; both are reported.
        rep.add("quoted_total", DEFAULT_LAYOUT_QUOTED_TOTAL, "lambda^2")


def _cmd_montecarlo(args, tech, rep):
    net = _read_netlist(args.netlist)
    if args.a_vth is not None:  # overrides both cards, so the header echoes it
        tech.nmos.a_vth = tech.pmos.a_vth = args.a_vth
    vm = VariationModel(a_vth=None, n_samples=args.samples, seed=args.seed)
    summary = monte_carlo_snm(net, tech, vm, args.mode, args.vdd, args.grid)
    if args.out:
        write_columns(args.out, ["sample", "snm"], [range(len(summary.samples)), summary.samples])
    rep.add("samples", args.samples)
    rep.add("snm_mean", summary.mean, "V")
    rep.add("snm_stddev", summary.stddev, "V")
    rep.add("snm_min", summary.minimum, "V")
    rep.add("failures", summary.failures)


# ---------------------------------------------------------------------
# Parser assembly


def _add_netlist(p):
    p.add_argument("netlist", help="netlist file")


def _add_size_flags(p):
    for name in ("pu", "pd", "pg"):
        p.add_argument(
            f"--{name}",
            nargs=2,
            type=_spice,
            metavar=("W", "L"),
            help=f"{name.upper()} device width and length (meters)",
        )


class _Parser(argparse.ArgumentParser):
    # argparse takes only plain numbers (-1, -.5) for negative values; no
    # option here starts with a digit, so -100m and -1e-9 are values too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sramlab",
        description="Transistor-level storage-cell analysis workbench",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="technology parameter file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse a netlist, report counts")
    _add_netlist(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", parents=[common], help="structural checks")
    _add_netlist(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("generate", parents=[common], help="emit a generated netlist")
    p.add_argument("--kind", choices=sorted(_GENERATE_KINDS), default="cell")
    p.add_argument("--rows", type=int, default=2)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--no-parasitics", action="store_true")
    p.add_argument("--out", help="destination file (default stdout)")
    _add_size_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("dc", parents=[common], help="operating point")
    _add_netlist(p)
    p.set_defaults(func=_cmd_dc)

    p = sub.add_parser("sweep", parents=[common], help="DC sweep of one source")
    _add_netlist(p)
    p.add_argument("--source", required=True, help="source element id")
    p.add_argument("--from", dest="start", type=_spice, required=True)
    p.add_argument("--to", dest="stop", type=_spice, required=True)
    p.add_argument("--step", type=_spice, required=True)
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("tran", parents=[common], help="transient analysis")
    _add_netlist(p)
    p.add_argument("--tstop", type=_spice, required=True)
    p.add_argument("--dt", type=_spice, required=True)
    p.add_argument("--method", choices=("be", "trap"), default="be")
    p.add_argument("--ic", action="append", metavar="NODE=VOLTS")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(func=_cmd_tran)

    p = sub.add_parser("snm", parents=[common], help="butterfly noise margins")
    p.add_argument("--netlist", required=True)
    p.add_argument("--mode", choices=("hold", "read"), default="hold")
    p.add_argument("--vdd", type=_spice, default=1.8)
    p.add_argument("--grid", type=_spice, default=1e-3)
    p.add_argument("--out", help="butterfly CSV destination")
    p.set_defaults(func=_cmd_snm)

    p = sub.add_parser("drv", parents=[common], help="data retention voltage")
    p.add_argument("--netlist", required=True)
    p.add_argument(
        "--method", choices=("closed-form", "bruteforce", "both"), default="both"
    )
    p.add_argument("--resolution", type=_spice, default=1e-3)
    p.add_argument("--vmax", type=_spice, default=1.8)
    p.set_defaults(func=_cmd_drv)

    p = sub.add_parser("write-margin", parents=[common], help="bitline write margin")
    p.add_argument("--netlist", required=True)
    p.add_argument("--vdd", type=_spice, default=1.8)
    p.add_argument("--wl", type=_spice, default=None, help="wordline drive (default vdd)")
    p.set_defaults(func=_cmd_write_margin)

    p = sub.add_parser("power", parents=[common], help="dynamic switching power")
    p.add_argument("--cl", type=_spice, required=True, help="load capacitance")
    p.add_argument("--vdd", type=_spice, required=True)
    p.add_argument("--fsw", type=_spice, required=True, help="switching frequency")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("delay", parents=[common], help="propagation or bitline delay")
    p.add_argument("--tplh", type=_spice, help="low-to-high delay (direct mode)")
    p.add_argument("--tphl", type=_spice, help="high-to-low delay (direct mode)")
    p.add_argument("--waveform", help="waveform CSV (measurement mode)")
    p.add_argument("--node", help="output node in the waveform")
    p.add_argument("--input", help="reference input node in the waveform")
    p.add_argument("--cbit", type=_spice, help="bitline capacitance (bitline mode)")
    p.add_argument("--dv", type=_spice, default=0.1, help="sense swing (bitline mode)")
    p.add_argument("--icell", type=_spice, help="cell read current (bitline mode)")
    p.add_argument("--netlist", help="cell netlist to compute read current from")
    p.add_argument("--vdd", type=_spice, default=1.8)
    p.set_defaults(func=_cmd_delay)

    p = sub.add_parser("ratios", parents=[common], help="cell and pull ratio checks")
    _add_size_flags(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("area", parents=[common], help="layout area accounting")
    p.add_argument(
        "--rect",
        nargs=2,
        type=_spice,
        action="append",
        metavar=("W", "H"),
        help="region size in lambda (repeatable; default drawn regions)",
    )
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("montecarlo", parents=[common], help="threshold-mismatch SNM")
    p.add_argument("--netlist", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--a-vth", type=_spice, help="mismatch coefficient V*m (default: card a_vth)")
    p.add_argument("--mode", choices=("hold", "read"), default="hold")
    p.add_argument("--vdd", type=_spice, default=1.8)
    p.add_argument("--grid", type=_spice, default=1e-2)
    p.add_argument("--out", help="per-sample CSV destination")
    p.set_defaults(func=_cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = AnalysisReport()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            tech = load_config(args.config) if args.config else TechnologyParams.default()
            text = args.func(args, tech, rep)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = f" {exc.filename}" if exc.filename else ""
        print(f"error: cannot access{name}: {exc.strerror}", file=sys.stderr)
        return 2
    except (NetlistError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text is None:
        # Built after the handler, which may override the card (montecarlo --a-vth).
        rep.header[:0] = tech_header_lines(derive_tech_params(tech))
        text = rep.render()
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
