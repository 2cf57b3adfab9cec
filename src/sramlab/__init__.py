"""Transistor-level storage-cell analysis workbench: a small SPICE-subset
netlist dialect, compact MOSFET models, a nodal DC/sweep/transient solver,
butterfly/retention/write-margin stability analyses, closed-form figures
of merit, and circuit generators."""

from .config import ConfigError, load_config, parse_config, tech_header_lines
from .devices import (
    BiasPoint,
    DeviceParams,
    MosOperatingPoint,
    TechnologyParams,
    derive_tech_params,
    leakage_current,
    mos_operating_point,
    thermal_voltage,
)
from .engine import (
    ConvergenceError,
    DcSolution,
    EngineError,
    FloatingNodeError,
    SweepResult,
    TransientResult,
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
)
from .metrics import (
    AreaReport,
    DelayMeasurement,
    MeasurementError,
    RatioReport,
    area_report,
    bitline_delay,
    check_ratios,
    dynamic_power,
    propagation_delay,
)
from .netlist import (
    Netlist,
    NetlistError,
    NetlistSemanticError,
    NetlistSyntaxError,
    instantiate,
    parse_netlist,
    print_netlist,
    structurally_equal,
    validate,
    with_elements,
)
from .numbers import format_spice_number, parse_spice_number
from .report import AnalysisReport, ReportEntry
from .stability import (
    ButterflyData,
    DrvInputs,
    McSummary,
    NonWritableError,
    SnmResult,
    TransferCurve,
    VariationModel,
    butterfly,
    butterfly_to_csv,
    drv_bruteforce,
    drv_closed_form,
    drv_ideal,
    drv_inputs_from_cell,
    inscribed_square_snm,
    monte_carlo_snm,
    read_current,
    sigma_vth,
    snm_macro,
    write_margin,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
