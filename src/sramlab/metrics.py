"""Closed-form figures of merit: switching power, propagation and bitline
delays, cell ratio checks, and layout area accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import TransientResult
from .genlib import DeviceSize


class MeasurementError(ValueError):
    pass


def dynamic_power(c_l: float, v_dd: float, f_sw: float) -> float:
    """Switching power C_L*V_dd^2*f_sw for full-rail charge/discharge."""
    if c_l < 0 or v_dd < 0 or f_sw < 0:
        raise ValueError("capacitance, supply, and frequency must be nonnegative")
    return c_l * v_dd * v_dd * f_sw


def bitline_delay(c_b: float, dv: float, i_cell: float | Callable[[], float]) -> float:
    """Time for a cell current to slew the bitline capacitance by dv; a
    callable i_cell is called for the current only once c_b and dv pass."""
    if c_b <= 0:
        raise ValueError("bitline capacitance must be positive")
    if dv <= 0:
        raise ValueError("sense swing must be positive")
    i_cell = i_cell() if callable(i_cell) else i_cell
    if i_cell <= 0:
        raise ValueError("cell current must be positive")
    return c_b * dv / i_cell


@dataclass(frozen=True)
class DelayMeasurement:
    t_plh: float
    t_phl: float
    input_threshold: float = float("nan")
    output_threshold: float = float("nan")

    @property
    def t_p(self) -> float:
        return 0.5 * (self.t_plh + self.t_phl)


def _crossings(t: np.ndarray, v: np.ndarray, level: float) -> list[tuple[float, int]]:
    """(time, direction) for each linear-interpolated crossing of `level`."""
    out: list[tuple[float, int]] = []
    for i in range(1, len(v)):
        a, b = v[i - 1], v[i]
        if a == b:
            continue
        if (a < level <= b) or (a > level >= b):
            tc = t[i - 1] + (level - a) * (t[i] - t[i - 1]) / (b - a)
            out.append((float(tc), 1 if b > a else -1))
    return out


def _reference_input(w: TransientResult, input_node: str | None) -> np.ndarray:
    if input_node is not None:
        return w.node(input_node)
    moving = [sid for sid, vals in w.drives.items() if np.ptp(vals) > 0]
    if len(moving) == 1:
        return w.drives[moving[0]]
    raise MeasurementError(
        "cannot infer the reference input (need exactly one time-varying "
        "source); pass input_node explicitly"
    )


def propagation_delay(
    w: TransientResult,
    node: str,
    v_low: float,
    v_high: float,
    input_node: str | None = None,
    fraction: float = 0.5,
) -> DelayMeasurement:
    """Input-to-output delay at the `fraction` level between v_low/v_high.

    t_pLH is measured to the output's rising crossing, t_pHL to its falling
    crossing, each from the nearest preceding input crossing, with linear
    interpolation between samples.
    """
    if not v_high > v_low:
        raise ValueError("v_high must exceed v_low")
    level = v_low + fraction * (v_high - v_low)
    vin = _reference_input(w, input_node)
    vout = w.node(node)
    in_x = _crossings(w.time, vin, level)
    out_x = _crossings(w.time, vout, level)
    if not in_x:
        raise MeasurementError(f"reference input never crosses {level:g} V")

    t_plh = t_phl = None
    for tc, direction in out_x:
        before = [ti for ti, _ in in_x if ti <= tc]
        if not before:
            continue
        d = tc - before[-1]
        if direction > 0 and t_plh is None:
            t_plh = d
        elif direction < 0 and t_phl is None:
            t_phl = d
    if t_plh is None or t_phl is None:
        missing = "rising" if t_plh is None else "falling"
        raise MeasurementError(f"node {node}: no {missing} output transition found")
    return DelayMeasurement(t_plh, t_phl, level, level)


@dataclass(frozen=True)
class RatioReport:
    cr_left: float
    cr_right: float
    pr_left: float
    pr_right: float
    read_stable: bool
    write_stable: bool


RATIO_MATCH_TOL = 1e-9


def _side_ratios(spec, what: str) -> tuple[float, float]:
    """Normalize a device-size argument into (left W/L, right W/L).

    Accepts one DeviceSize or (w, l) pair for a symmetric cell, or a pair
    of those for distinct sides.
    """

    def one(item) -> float:
        if isinstance(item, DeviceSize):
            size = item
        else:
            w, l = item
            size = DeviceSize(float(w), float(l))
        if size.w <= 0 or size.l <= 0:
            raise ValueError(f"{what} needs positive W and L")
        return size.ratio

    if isinstance(spec, DeviceSize):
        r = one(spec)
        return r, r
    seq = tuple(spec)
    if len(seq) == 2 and all(np.isscalar(v) for v in seq):
        r = one(seq)
        return r, r
    if len(seq) == 2:
        return one(seq[0]), one(seq[1])
    raise ValueError(f"cannot interpret {what} size spec {spec!r}")


def check_ratios(pd, pu, pg) -> RatioReport:
    """Cell ratio CR = (W/L)_PD/(W/L)_PG and pull-up ratio PR =
    (W/L)_PU/(W/L)_PG per side.  Read stability needs both CRs above one
    and matching; writability needs both PRs below one and matching."""
    pd_l, pd_r = _side_ratios(pd, "pull-down")
    pu_l, pu_r = _side_ratios(pu, "pull-up")
    pg_l, pg_r = _side_ratios(pg, "access")
    cr_l, cr_r = pd_l / pg_l, pd_r / pg_r
    pr_l, pr_r = pu_l / pg_l, pu_r / pg_r
    read = cr_l > 1.0 and cr_r > 1.0 and abs(cr_l - cr_r) <= RATIO_MATCH_TOL
    write = pr_l < 1.0 and pr_r < 1.0 and abs(pr_l - pr_r) <= RATIO_MATCH_TOL
    return RatioReport(cr_l, cr_r, pr_l, pr_r, read, write)


@dataclass(frozen=True)
class AreaReport:
    areas: tuple[float, ...]
    total: float


# Reference cell layout in scalable-lambda units: the PMOS region with its
# well, then the NMOS region.  The quoted full-cell figure exceeds the two
# block areas summed; the overhead convention is not stated, so both numbers
# are surfaced side by side.
DEFAULT_LAYOUT_RECTS: tuple[tuple[float, float], ...] = ((67.5, 37.0), (56.5, 32.5))
DEFAULT_LAYOUT_QUOTED_TOTAL = 4446.75


def area_report(rects) -> AreaReport:
    """Per-rectangle areas and their sum, all in lambda^2."""
    areas = []
    for w, h in rects:
        if w < 0 or h < 0:
            raise ValueError("rectangle sides must be nonnegative")
        areas.append(float(w) * float(h))
    return AreaReport(tuple(areas), float(sum(areas)))
