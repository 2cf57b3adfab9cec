"""Acceptance gate: one test per shipping criterion, one printed verdict
line each.  Every expected number here is pinned; the tests state measured
values in their verdict lines so a red criterion documents itself."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import sramlab
from sramlab.engine import MnaSystem, solve_dc, transient
from sramlab.genlib import build_6t_cell
from sramlab.kernels import mos_stamp
from sramlab.metrics import DelayMeasurement, check_ratios, dynamic_power
from sramlab.netlist import parse_netlist, print_netlist, structurally_equal, validate
from sramlab.stability import (
    DrvInputs,
    TransferCurve,
    VariationModel,
    butterfly,
    drv_bruteforce,
    drv_closed_form,
    drv_inputs_from_cell,
    inscribed_square_snm,
    monte_carlo_snm,
    sigma_vth,
)

CORPUS = Path(sramlab.__file__).parent / "corpus"


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_dynamic_power():
    # Full-rail switching power is C*V^2*f in watts; dividing by the supply
    # gives C*V*f, the average supply current in amperes.
    c, v, f = 35e-15, 1.8, 100e6
    t0 = time.monotonic()
    p = dynamic_power(c, v, f)
    elapsed = time.monotonic() - t0
    i_avg = p / v
    power_ok = math.isclose(p, c * v**2 * f, rel_tol=1e-9)
    current_ok = math.isclose(i_avg, 6.3e-6, rel_tol=1e-9)
    ok = power_ok and current_ok and elapsed < 1.0
    verdict(
        1,
        ok,
        f"power(35 fF, 1.8 V, 100 MHz) = {p:.6g} W, required 1.134e-05 W (C*V^2*f); "
        f"supply current {i_avg:.6g} A, required 6.3e-06 A (C*V*f); {elapsed:.3f} s",
    )
    assert ok, (
        f"measured {p:.6g} W and {i_avg:.6g} A in {elapsed:.3f} s; required "
        "1.134e-05 W = 35e-15 * 1.8^2 * 1e8 (C*V^2*f), 6.3e-06 A = C*V*f, "
        "and under 1 s."
    )


def test_criterion_2_propagation_delay_pairs():
    first = DelayMeasurement(12.01e-9, 12.15e-9)
    second = DelayMeasurement(11.89e-9, 12.09e-9)
    ok = (
        format(first.t_p, ".9g") == "1.208e-08"
        and format(second.t_p, ".9g") == "1.199e-08"
        and math.isclose(first.t_p, 12.08e-9, rel_tol=1e-12)
        and math.isclose(second.t_p, 11.99e-9, rel_tol=1e-12)
    )
    verdict(2, ok, f"t_p pairs give {first.t_p * 1e9:.6g} ns and {second.t_p * 1e9:.6g} ns")
    assert ok


def test_criterion_3_ratio_ledger():
    r = check_ratios(pd=(6.0, 2.0), pu=(10.5, 2.0), pg=(10.5, 2.5))
    pr_ok = abs(r.pr_left - 1.25) <= 1e-9 and abs(r.pr_right - 1.25) <= 1e-9
    cr_ok = (
        abs(r.cr_left - 3.0 / 4.2) <= 1e-9
        and round(r.cr_left, 3) == 0.714
        and r.cr_left == r.cr_right
    )
    flags_ok = not r.read_stable and not r.write_stable
    ok = pr_ok and cr_ok and flags_ok
    verdict(3, ok, f"PR = {r.pr_left:.9g}, CR = {r.cr_left:.9g}, read_stable = {r.read_stable}, write_stable = {r.write_stable}")
    assert ok


def test_criterion_4_drv_ideal_case():
    v = drv_closed_form(DrvInputs((1e-12,) * 6, (1.0,) * 6, 0.026))
    ok = abs(v - 0.036) <= 1e-4
    verdict(4, ok, f"matched n = 1 retention voltage = {v * 1e3:.4g} mV, required 36.0 +- 0.1 mV")
    assert ok


def test_criterion_5_parser_corpus():
    t0 = time.monotonic()
    results = []
    for name in ("cell_extract.sp", "array_extract.sp"):
        text = (CORPUS / name).read_text()
        net = parse_netlist(text)
        printed = print_netlist(net)
        again = parse_netlist(printed)
        rep = validate(net)
        results.append(
            structurally_equal(net, again)
            and print_netlist(again) == printed
            and rep.get("declared_nodes_match").verdict == "pass"
            and rep.get("declared_elements_match").verdict == "pass"
        )
    cell = parse_netlist((CORPUS / "cell_extract.sp").read_text())
    arr = parse_netlist((CORPUS / "array_extract.sp").read_text())
    counts_ok = (
        cell.node_count == 6
        and cell.element_count == 10
        and arr.element_count == 79
        and len(arr.degenerate_elements()) > 0
    )
    elapsed = time.monotonic() - t0
    ok = all(results) and counts_ok and elapsed < 1.0
    verdict(5, ok, f"cell 6 nodes/10 elements, array 79 elements with stubs, round-trip stable, {elapsed:.3f} s")
    assert ok


RC_NETLIST = """\
* series RC charging from a unit step
V1 in 0 DC 1.0
R1 in out 1k
C1 out 0 1u
.END
"""


def _random_circuit_text(rng) -> str:
    nodes = ["a", "b", "c", "d"]
    lines = [
        "* random resistor-transistor mesh",
        "V1 a 0 DC 1.8",
        "R1 a b %.6g" % rng.uniform(1e3, 2e4),
        "R2 b c %.6g" % rng.uniform(1e3, 2e4),
        "R3 c d %.6g" % rng.uniform(1e3, 2e4),
        "R4 d 0 %.6g" % rng.uniform(1e3, 2e4),
    ]
    if rng.random() < 0.5:
        lines.append("I1 0 c DC %.6g" % rng.uniform(1e-6, 5e-5))
    for k in range(int(rng.integers(2, 6))):
        d, g, s = rng.choice(nodes, size=3, replace=False)
        if rng.random() < 0.3:
            lines.append(f"MP{k} {d} {g} {s} a PMOS L=2u W=10.5u")
        else:
            lines.append(f"MN{k} {d} {g} {s} 0 NMOS L=2u W=6u")
    lines.append(".END")
    return "\n".join(lines)


def _fd_jacobian_worst(net_text: str) -> float:
    """Worst relative mismatch between the assembled Jacobian and central
    finite differences of the residual, at the solved operating point."""
    sys = MnaSystem(parse_netlist(net_text))
    x, _, _ = sys.solve_dc_vector()
    b = sys.rhs()

    def residual(xv):
        return sys.residual(xv, b)[: sys.size].copy()

    vals, res = sys.g_static.copy(), b.copy()
    mos_stamp(np.append(x, 0.0), sys.mos_idx, sys.mos_par, sys.vt, vals, res, sys._stamp_at)
    jac = np.zeros((sys.size + 1, sys.size + 1))
    jac[np.divmod(sys._keys, sys.size + 1)] = vals[:-1]
    jac = jac[: sys.size, : sys.size]

    h = 1e-7
    worst = 0.0
    for j in range(sys.size):
        e = np.zeros(sys.size)
        e[j] = h
        col = (residual(x + e) - residual(x - e)) / (2.0 * h)
        denom = np.maximum(np.abs(jac[:, j]), 1e-4)
        worst = max(worst, float(np.max(np.abs(col - jac[:, j]) / denom)))
    return worst


def test_criterion_6_engine_oracles():
    t0 = time.monotonic()
    wave = transient(parse_netlist(RC_NETLIST), t_stop=1e-3, dt=1e-6, ics={"out": 0.0})
    exact = 1.0 - math.exp(-1.0)
    rc_err = abs(wave.node("out")[-1] - exact) / exact

    rng = np.random.default_rng(2024)
    worst = max(_fd_jacobian_worst(_random_circuit_text(rng)) for _ in range(20))
    elapsed = time.monotonic() - t0
    ok = rc_err < 0.01 and worst < 1e-5 and elapsed < 10.0
    verdict(6, ok, f"RC error at t = RC is {rc_err:.3e} (< 1e-2), worst Jacobian mismatch {worst:.3e} (< 1e-5), {elapsed:.2f} s")
    assert ok


def test_criterion_7_butterfly_properties():
    t0 = time.monotonic()
    fixture_ok = True
    for v_dd in (0.9, 1.8):
        half = v_dd / 2.0
        step = TransferCurve(
            np.array([0.0, half, half, v_dd]), np.array([v_dd, v_dd, 0.0, 0.0])
        )
        r = inscribed_square_snm(step, step)
        fixture_ok = fixture_ok and r.snm_high == half and r.snm_low == half

    cell = build_6t_cell()
    grid = 0.01
    hold = butterfly(cell, mode="hold", v_dd=1.8, grid=grid)
    read = butterfly(cell, mode="read", v_dd=1.8, grid=grid)
    symmetric_ok = abs(hold.snm_high - hold.snm_low) <= 2.0 * grid
    read_ok = read.snm <= hold.snm

    drv = drv_bruteforce(cell, resolution=2e-3)
    margins = []
    for v in (drv, 0.2, 0.5, 0.9, 1.35, 1.8):
        margins.append(butterfly(cell, mode="hold", v_dd=v, grid=max(v / 200.0, 1e-4)).snm)
    monotone_ok = all(b >= a - 1e-9 for a, b in zip(margins, margins[1:]))
    elapsed = time.monotonic() - t0
    ok = fixture_ok and symmetric_ok and read_ok and monotone_ok and elapsed < 60.0
    verdict(
        7,
        ok,
        f"fixture SNM exact, |high-low| = {abs(hold.snm_high - hold.snm_low):.2e}, "
        f"read {read.snm:.4g} <= hold {hold.snm:.4g}, monotone over [{drv:.3g}, 1.8], {elapsed:.1f} s",
    )
    assert ok


def test_criterion_8_drv_cross_check():
    cell = build_6t_cell()
    closed = drv_closed_form(drv_inputs_from_cell(cell))
    brute = drv_bruteforce(cell, resolution=1e-3)
    delta = abs(closed - brute)
    ok = delta <= 0.020
    verdict(8, ok, f"closed form {closed * 1e3:.3g} mV vs bisection {brute * 1e3:.3g} mV, delta {delta * 1e3:.3g} mV (<= 20 mV)")
    assert ok, f"closed form and bisection retention voltages differ by {delta * 1e3:.3g} mV"


def test_criterion_9_monte_carlo():
    t0 = time.monotonic()
    cell = build_6t_cell()

    vm = VariationModel(a_vth=3e-9, n_samples=8, seed=77)
    a = monte_carlo_snm(cell, vm=vm, grid=0.02)
    b = monte_carlo_snm(cell, vm=vm, grid=0.02)
    deterministic = a.samples.tobytes() == b.samples.tobytes() and a.mean == b.mean

    nominal = butterfly(cell, mode="hold", v_dd=1.8, grid=0.02).snm
    zero = monte_carlo_snm(cell, vm=VariationModel(0.0, 4, 5), grid=0.02)
    degenerate = bool(np.all(zero.samples == nominal))

    quartered = all(
        sigma_vth(3e-9, 4.0 * w, 4.0 * l) == sigma_vth(3e-9, w, l) / 4.0
        for w, l in ((10.5e-6, 2e-6), (6e-6, 2e-6), (1e-6, 1e-6))
    )

    big = monte_carlo_snm(cell, vm=VariationModel(3e-9, 200, 1))
    elapsed = time.monotonic() - t0
    ok = (
        deterministic
        and degenerate
        and quartered
        and big.samples.size == 200
        and math.isfinite(big.mean)
        and elapsed < 300.0
    )
    verdict(
        9,
        ok,
        f"byte-exact reruns, A_Vth = 0 nominal, sigma quarters at 16x area, "
        f"N = 200 mean {big.mean:.4g} V stddev {big.stddev:.4g} V in {elapsed:.1f} s",
    )
    assert ok
