import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sramlab.engine import TransientResult
from sramlab.genlib import DeviceSize
from sramlab.metrics import (
    DEFAULT_LAYOUT_QUOTED_TOTAL,
    DEFAULT_LAYOUT_RECTS,
    DelayMeasurement,
    MeasurementError,
    area_report,
    bitline_delay,
    check_ratios,
    dynamic_power,
    propagation_delay,
)

NS = 1e-9

finite = st.floats(min_value=1e-18, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------
# Switching power


def test_dynamic_power_values():
    assert dynamic_power(10e-15, 1.0, 1e9) == pytest.approx(1e-5, rel=1e-12)
    assert dynamic_power(35e-15, 1.8, 100e6) == pytest.approx(1.134e-5, rel=1e-12)
    assert dynamic_power(35e-15, 1.8, 0.0) == 0.0
    assert dynamic_power(0.0, 1.8, 1e8) == 0.0


def test_dynamic_power_rejects_negative_inputs():
    for args in ((-1e-15, 1.0, 1e6), (1e-15, -1.0, 1e6), (1e-15, 1.0, -1e6)):
        with pytest.raises(ValueError):
            dynamic_power(*args)


@given(c=finite, v=finite, f=finite)
def test_dynamic_power_is_linear_in_c_and_f(c, v, f):
    base = dynamic_power(c, v, f)
    # Doubling is a pure exponent shift, so these hold bitwise.
    assert dynamic_power(2.0 * c, v, f) == 2.0 * base
    assert dynamic_power(c, v, 2.0 * f) == 2.0 * base


@given(c=finite, v=finite, f=finite)
def test_dynamic_power_is_quadratic_in_supply(c, v, f):
    assert dynamic_power(c, 2.0 * v, f) == 4.0 * dynamic_power(c, v, f)


# ---------------------------------------------------------------------
# Propagation delay


def test_delay_measurement_averages_the_edges():
    d = DelayMeasurement(12.01 * NS, 12.15 * NS)
    assert d.t_p == pytest.approx(12.08 * NS, rel=1e-12)
    d = DelayMeasurement(11.89 * NS, 12.09 * NS)
    assert d.t_p == pytest.approx(11.99 * NS, rel=1e-12)
    same = DelayMeasurement(3.0 * NS, 3.0 * NS)
    assert same.t_p == 3.0 * NS


def ramp_waveform(shift=0.0):
    """Input rises at t=0..1 ns and falls at 10..11 ns; the output answers
    with a fall at 2..3 ns and a rise at 12..14 ns.  All 50% crossings land
    on exact grid rationals: in 0.5/10.5, out 2.5/13.0."""
    t = (np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 14.0]) + shift) * NS
    vin = np.array([0.0, 1.8, 1.8, 1.8, 1.8, 0.0, 0.0, 0.0])
    vout = np.array([1.8, 1.8, 1.8, 0.0, 0.0, 0.0, 0.0, 1.8])
    return TransientResult(
        time=t,
        nodes={"in": vin, "out": vout},
        branch_currents={},
        drives={"VIN": vin, "VDD": np.full_like(vin, 1.8)},
    )


def test_propagation_delay_from_hand_built_ramps():
    d = propagation_delay(ramp_waveform(), "out", 0.0, 1.8, input_node="in")
    assert d.t_phl == pytest.approx(2.0 * NS, rel=1e-12)
    assert d.t_plh == pytest.approx(2.5 * NS, rel=1e-12)
    assert d.t_p == pytest.approx(2.25 * NS, rel=1e-12)
    assert d.input_threshold == 0.9
    assert d.output_threshold == 0.9


def test_propagation_delay_is_shift_invariant():
    a = propagation_delay(ramp_waveform(), "out", 0.0, 1.8, input_node="in")
    b = propagation_delay(ramp_waveform(shift=5.0), "out", 0.0, 1.8, input_node="in")
    assert b.t_plh == pytest.approx(a.t_plh, rel=1e-9)
    assert b.t_phl == pytest.approx(a.t_phl, rel=1e-9)


def test_propagation_delay_infers_single_moving_drive():
    w = ramp_waveform()
    d = propagation_delay(w, "out", 0.0, 1.8)  # VDD is flat, so VIN is it
    assert d.t_phl == pytest.approx(2.0 * NS, rel=1e-12)


def test_propagation_delay_with_ambiguous_drives():
    w = ramp_waveform()
    w.drives["VDD"] = w.drives["VIN"][::-1].copy()
    with pytest.raises(MeasurementError, match="cannot infer"):
        propagation_delay(w, "out", 0.0, 1.8)


def test_propagation_delay_names_node_on_missing_edge():
    w = ramp_waveform()
    out = w.nodes["out"]
    w.nodes["never_up"] = np.where(w.time > 5 * NS, 0.0, out)  # falls, stays low
    w.nodes["never_down"] = np.where(w.time > 5 * NS, out, 0.0)  # only rises
    with pytest.raises(MeasurementError, match="node never_up: no rising"):
        propagation_delay(w, "never_up", 0.0, 1.8, input_node="in")
    with pytest.raises(MeasurementError, match="node never_down: no falling"):
        propagation_delay(w, "never_down", 0.0, 1.8, input_node="in")


def test_propagation_delay_needs_a_crossing_input():
    w = ramp_waveform()
    w.nodes["in"] = np.full_like(w.time, 1.8)
    with pytest.raises(MeasurementError, match="never crosses"):
        propagation_delay(w, "out", 0.0, 1.8, input_node="in")


@pytest.mark.parametrize("v_high", [0.0, -1.8])
def test_propagation_delay_needs_v_high_above_v_low(v_high):
    with pytest.raises(ValueError, match="^v_high must exceed v_low$"):
        propagation_delay(ramp_waveform(), "out", 0.0, v_high, input_node="in")


def test_propagation_delay_fraction_moves_the_level():
    # At the 25% level (0.45 V) the output fall crossing moves later in the
    # falling ramp (2..3 ns spans 1.8..0, so 0.45 V sits at t = 2.75 ns) and
    # the input rise crossing earlier (0.25 ns).
    d = propagation_delay(ramp_waveform(), "out", 0.0, 1.8, input_node="in", fraction=0.25)
    assert d.t_phl == pytest.approx(2.5 * NS, rel=1e-12)
    assert d.input_threshold == pytest.approx(0.45, rel=1e-12)


# ---------------------------------------------------------------------
# Bitline slew


def test_bitline_delay_values():
    assert bitline_delay(100e-15, 0.1, 10e-6) == pytest.approx(1.0 * NS, rel=1e-12)


@pytest.mark.parametrize(
    "c_b, dv, message",
    [(0.0, 0.1, "capacitance"), (-1e-13, 0.1, "capacitance"), (100e-15, 0.0, "swing"), (100e-15, -0.1, "swing")],
)
def test_bitline_delay_rejects_nonpositive_capacitance_and_swing(c_b, dv, message):
    # A zero or negative delay is no delay a bitline can have.
    with pytest.raises(ValueError, match=message):
        bitline_delay(c_b, dv, 10e-6)


@given(c=finite, dv=finite, i=finite)
def test_bitline_delay_scales_linearly(c, dv, i):
    base = bitline_delay(c, dv, i)
    assert bitline_delay(2.0 * c, dv, i) == 2.0 * base
    assert bitline_delay(c, 2.0 * dv, i) == 2.0 * base
    assert bitline_delay(c, dv, 2.0 * i) == pytest.approx(0.5 * base, rel=1e-15)


def test_bitline_delay_rejects_nonpositive_current():
    with pytest.raises(ValueError):
        bitline_delay(100e-15, 0.1, 0.0)
    with pytest.raises(ValueError):
        bitline_delay(100e-15, 0.1, -1e-6)


# ---------------------------------------------------------------------
# Cell ratios


def test_default_cell_geometry_ratios():
    r = check_ratios(pd=(6.0, 2.0), pu=(10.5, 2.0), pg=(10.5, 2.5))
    assert r.cr_left == pytest.approx(3.0 / 4.2, rel=1e-12)
    assert round(r.cr_left, 3) == 0.714
    assert r.pr_left == pytest.approx(1.25, rel=1e-12)
    assert r.cr_left == r.cr_right and r.pr_left == r.pr_right
    # PD weaker than PG and PU stronger than PG: wrong on both counts.
    assert not r.read_stable
    assert not r.write_stable


def test_device_size_and_tuple_specs_agree():
    a = check_ratios(pd=DeviceSize(6e-6, 2e-6), pu=DeviceSize(10.5e-6, 2e-6), pg=DeviceSize(10.5e-6, 2.5e-6))
    b = check_ratios(pd=(6e-6, 2e-6), pu=(10.5e-6, 2e-6), pg=(10.5e-6, 2.5e-6))
    assert a == b


def test_ratio_verdicts_for_a_sized_cell():
    r = check_ratios(pd=(4.0, 1.0), pu=(1.0, 2.0), pg=(2.0, 1.0))
    assert r.cr_left == 2.0 and r.pr_left == 0.25
    assert r.read_stable and r.write_stable


def test_equal_strengths_fail_both_checks():
    r = check_ratios(pd=(2.0, 1.0), pu=(2.0, 1.0), pg=(2.0, 1.0))
    assert r.cr_left == 1.0 and r.pr_left == 1.0
    assert not r.read_stable and not r.write_stable


def test_mismatched_sides_are_flagged():
    r = check_ratios(pd=((4.0, 1.0), (6.0, 1.0)), pu=(1.0, 2.0), pg=(2.0, 1.0))
    assert r.cr_left == 2.0 and r.cr_right == 3.0
    assert not r.read_stable  # both above one, but the sides disagree
    assert r.write_stable


def test_ratios_are_scale_invariant():
    a = check_ratios(pd=(6.0, 2.0), pu=(10.5, 2.0), pg=(10.5, 2.5))
    b = check_ratios(
        pd=(6.0 * 4, 2.0 * 4), pu=(10.5 * 4, 2.0 * 4), pg=(10.5 * 4, 2.5 * 4)
    )
    assert a == b


def test_ratio_input_validation():
    with pytest.raises(ValueError, match="pull-down"):
        check_ratios(pd=(0.0, 1.0), pu=(1.0, 1.0), pg=(1.0, 1.0))
    with pytest.raises(ValueError, match="access"):
        check_ratios(pd=(1.0, 1.0), pu=(1.0, 1.0), pg=(1.0, -1.0))
    with pytest.raises(ValueError, match="cannot interpret"):
        check_ratios(pd=(1.0, 1.0, 1.0), pu=(1.0, 1.0), pg=(1.0, 1.0))


# ---------------------------------------------------------------------
# Layout area


def test_reference_layout_areas():
    report = area_report(DEFAULT_LAYOUT_RECTS)
    assert report.areas == (2497.5, 1836.25)
    assert report.total == 4333.75
    # The quoted full-cell number carries overhead beyond the two blocks.
    assert DEFAULT_LAYOUT_QUOTED_TOTAL == 4446.75
    assert DEFAULT_LAYOUT_QUOTED_TOTAL > report.total


def test_area_report_basics():
    assert area_report([]).total == 0.0
    assert area_report([(2.0, 3.0)]).areas == (6.0,)
    with pytest.raises(ValueError):
        area_report([(2.0, -3.0)])


@given(
    rects=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e3),
            st.floats(min_value=0, max_value=1e3),
        ),
        max_size=8,
    )
)
def test_area_total_is_the_sum(rects):
    report = area_report(rects)
    assert report.total == pytest.approx(sum(w * h for w, h in rects), abs=1e-9)
    assert all(a >= 0 for a in report.areas)
