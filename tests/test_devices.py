import math
from typing import NamedTuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sramlab.devices import (
    K_BOLTZMANN,
    Q_ELECTRON,
    DeviceParams,
    TechnologyParams,
    derive_tech_params,
    leakage_current,
    thermal_voltage,
)
from sramlab.kernels import BLEND_SPAN, mos_eval, pack_device

mp.mp.dps = 50

TECH = derive_tech_params(TechnologyParams.default())
VT = TECH.v_t
NMOS = TECH.nmos
PMOS = TECH.pmos


class Bias(NamedTuple):
    """One device's terminal-frame bias (negative for a conducting PMOS)
    and its geometry."""

    v_gs: float
    v_ds: float
    v_sb: float = 0.0
    w: float = 10.5e-6
    l: float = 2e-6


class Op(NamedTuple):
    """Drain current, with the PMOS sign, and its partials wrt (v_gs, v_ds,
    v_sb); g_mb is negative for an NMOS whose source rides above bulk."""

    i_d: float
    g_m: float
    g_ds: float
    g_mb: float


def mos_point(dev, bias, v_t=VT, polarity="NMOS"):
    """The model the solver stamps, kernels.mos_eval, on one pack_device row."""
    par = pack_device(dev, polarity, bias.w, bias.l, v_t)[None, :]
    v = (np.array([x]) for x in (bias.v_gs, bias.v_ds, bias.v_sb))
    return Op(*(float(a[0]) for a in mos_eval(par, *v, v_t)))


# ---------------------------------------------------------------------
# Arbitrary-precision oracles


def oracle_vth(vth0, gamma, phi_f, alpha, l, v_sb, v_ds):
    vth0, gamma, phi_f = mp.mpf(vth0), mp.mpf(gamma), mp.mpf(phi_f)
    body = mp.sqrt(abs(-2 * phi_f + mp.mpf(v_sb))) - mp.sqrt(abs(-2 * phi_f))
    return vth0 + gamma * body - mp.mpf(v_ds) * mp.e ** (-mp.mpf(alpha) * mp.mpf(l))


def oracle_subthreshold(beta, i0, n, vth, v_gs, v_ds, v_t):
    beta, i0, n, v_t = mp.mpf(beta), mp.mpf(i0), mp.mpf(n), mp.mpf(v_t)
    i_off = beta * i0 * mp.e ** (-mp.mpf(vth) / (n * v_t))
    return (
        i_off
        * mp.e ** (mp.mpf(v_gs) / (n * v_t))
        * (1 - mp.e ** (-mp.mpf(v_ds) / v_t))
    )


def current(dev, bias, polarity="NMOS"):
    return mos_point(dev, bias, polarity=polarity).i_d


def model_vth(dev, bias, v_t=VT):
    """Threshold read back from the model in weak inversion (NMOS frame,
    v_gs below threshold): from the drain current
    i = beta*I0*exp((v_gs - vth)/(n*v_T))*(1 - exp(-v_ds/v_T)),
    or at v_ds = 0 from the channel conductance beta*I0*exp(...)/v_T."""
    op = mos_point(dev, bias, v_t)
    beta_i0 = mp.mpf(bias.w) / mp.mpf(bias.l) * mp.mpf(dev.i0)
    v_t = mp.mpf(v_t)
    if bias.v_ds == 0.0:
        ratio = mp.mpf(op.g_ds) * v_t / beta_i0
    else:
        ratio = mp.mpf(op.i_d) / (beta_i0 * (1 - mp.e ** (-mp.mpf(bias.v_ds) / v_t)))
    vth = mp.mpf(bias.v_gs) - mp.mpf(dev.n) * v_t * mp.log(ratio)
    assert vth >= bias.v_gs, "read-back needs the weak-inversion branch"
    return float(vth)


def test_thermal_voltage_near_26mv():
    assert abs(thermal_voltage(300.15) - 0.026) < 1e-3
    oracle = mp.mpf(K_BOLTZMANN) * mp.mpf("300.15") / mp.mpf(Q_ELECTRON)
    assert abs(thermal_voltage(300.15) - float(oracle)) < 1e-18
    with pytest.raises(ValueError):
        thermal_voltage(0.0)


def test_threshold_against_oracle():
    dev = DeviceParams(vth0=0.4, gamma=0.3, phi_f=-0.35, alpha=1e7)
    bias = Bias(v_gs=0.0, v_ds=1.2, v_sb=0.9, w=1e-6, l=130e-9)
    expected = oracle_vth(0.4, 0.3, -0.35, 1e7, 130e-9, 0.9, 1.2)
    assert abs(model_vth(dev, bias) - float(expected)) < 1e-14
    # Random cards and weak-inversion biases, v_ds = 0 included.
    rng = np.random.default_rng(20261018)
    for k in range(100):
        dev = DeviceParams(
            vth0=rng.uniform(0.3, 0.7), gamma=rng.uniform(0.0, 0.6), alpha=rng.uniform(1e5, 1e7)
        )
        v_ds = 0.0 if k % 10 == 0 else rng.uniform(1e-6, 2.0)
        v_sb, l = rng.uniform(0.0, 1.2), rng.uniform(0.2e-6, 4e-6)
        expected = float(oracle_vth(dev.vth0, dev.gamma, dev.phi_f, dev.alpha, l, v_sb, v_ds))
        bias = Bias(expected - rng.uniform(0.01, 0.5), v_ds, v_sb, 1e-6, l)
        assert abs(model_vth(dev, bias) - expected) < 1e-14


def test_threshold_trivial_corners():
    # The read-back passes through exp and log, so the corners hold to the
    # oracle tolerance rather than exactly.
    bias0 = Bias(v_gs=0.0, v_ds=0.0, v_sb=0.0)
    assert abs(model_vth(NMOS, bias0) - NMOS.vth0) < 1e-14
    # alpha*L large enough that the barrier-lowering factor underflows.
    far = DeviceParams(alpha=1e12)
    for v_ds in (0.1, 1.0, 1.8):
        b = Bias(v_gs=0.0, v_ds=v_ds, v_sb=0.0)
        assert abs(model_vth(far, b) - far.vth0) < 1e-14


def test_threshold_monotonicity():
    vds_grid = np.linspace(0.0, 1.8, 40)
    vth_dibl = [model_vth(NMOS, Bias(0.0, float(v), 0.0)) for v in vds_grid]
    assert all(a >= b for a, b in zip(vth_dibl, vth_dibl[1:]))
    vsb_grid = np.linspace(0.0, 1.5, 40)
    vth_body = [model_vth(NMOS, Bias(0.0, 0.0, float(v))) for v in vsb_grid]
    assert all(a <= b for a, b in zip(vth_body, vth_body[1:]))


def test_subthreshold_against_oracle():
    # beta = 2 via W/L; gamma = 0 and huge alpha pin the threshold at 0.4 V.
    dev = DeviceParams(vth0=0.4, gamma=0.0, alpha=1e12, n=1.25, i0=1e-12)
    bias = Bias(v_gs=0.2, v_ds=0.5, v_sb=0.0, w=2e-6, l=1e-6)
    v_t = thermal_voltage(300.15)
    expected = oracle_subthreshold(2, 1e-12, 1.25, 0.4, 0.2, 0.5, v_t)
    got = mos_point(dev, bias, v_t).i_d
    assert abs(got - float(expected)) <= 1e-12 * float(expected)


def test_subthreshold_trivial_corners():
    bias = Bias(v_gs=0.3, v_ds=0.0, v_sb=0.0)
    assert current(NMOS, bias) == 0.0
    # Deep drain bias saturates the (1 - e^{-vds/vT}) factor.
    far = DeviceParams(alpha=1e12)
    shallow = mos_point(far, Bias(0.0, 10 * VT, 0.0), VT).i_d
    i_off = leakage_current(far, 10.5e-6, 2e-6, VT)
    assert abs(shallow - i_off * (1 - math.exp(-10.0))) < 1e-12 * i_off


def test_leakage_current_definition():
    got = leakage_current(NMOS, 6e-6, 2e-6, VT)
    expected = (6e-6 / 2e-6) * NMOS.i0 * math.exp(-NMOS.vth0 / (NMOS.n * VT))
    assert got == expected
    with pytest.raises(ValueError):
        leakage_current(NMOS, 0.0, 2e-6, VT)


# ---------------------------------------------------------------------
# Strong inversion and blending


def square_law_dev(lam=0.0):
    # gamma = 0 and huge alpha pin the threshold at vth0 for hand numbers.
    return DeviceParams(vth0=0.4, gamma=0.0, alpha=1e12, lam=lam, kp=100e-6)


def test_square_law_hand_value():
    dev = square_law_dev()
    bias = Bias(v_gs=0.9, v_ds=1.0, v_sb=0.0, w=3e-6, l=1e-6)
    assert abs(current(dev, bias) - 37.5e-6) < 1e-12


def test_zero_vds_zero_current():
    for v_gs in (-0.5, 0.0, 0.35, 0.45, 1.8):
        assert current(NMOS, Bias(v_gs, 0.0, 0.0)) == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_triode_saturation_seam(lam):
    # The (1 + lambda*v_ds) factor applies on both sides of the seam.
    dev = square_law_dev(lam)
    vov = 0.5
    lo = current(dev, Bias(0.9, vov - 1e-12, 0.0))
    hi = current(dev, Bias(0.9, vov + 1e-12, 0.0))
    assert abs(lo - hi) <= 1e-9 * hi


@pytest.mark.parametrize("v_ds", [0.004, 0.05, 0.2, 0.9, 1.8])
def test_blend_seams_continuous(v_ds):
    wlim = BLEND_SPAN * NMOS.n * VT
    l = Bias(0.0, v_ds).l
    vth = float(oracle_vth(NMOS.vth0, NMOS.gamma, NMOS.phi_f, NMOS.alpha, l, 0.0, v_ds))
    for seam in (vth, vth + wlim):
        lo = current(NMOS, Bias(seam - 1e-12, v_ds, 0.0))
        hi = current(NMOS, Bias(seam + 1e-12, v_ds, 0.0))
        assert abs(lo - hi) <= 1e-9 * max(lo, hi)


def test_monotone_in_vgs_and_vds_over_grid():
    vgs_grid = np.linspace(-0.2, 1.8, 101)
    vds_grid = np.linspace(0.0, 1.8, 101)
    for v_ds in vds_grid[::10]:
        iv = [current(NMOS, Bias(float(v), float(v_ds), 0.0)) for v in vgs_grid]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(iv, iv[1:]))
    for v_gs in vgs_grid[::10]:
        iv = [current(NMOS, Bias(float(v_gs), float(v), 0.0)) for v in vds_grid]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(iv, iv[1:]))


# ---------------------------------------------------------------------
# Small-signal conductances vs finite differences


def fd_partials(dev, bias, polarity="NMOS", h=1e-6):
    def cur(v_gs, v_ds, v_sb):
        b = Bias(v_gs, v_ds, v_sb, bias.w, bias.l)
        return current(dev, b, polarity)

    g, d, s = bias.v_gs, bias.v_ds, bias.v_sb
    return (
        (cur(g + h, d, s) - cur(g - h, d, s)) / (2 * h),
        (cur(g, d + h, s) - cur(g, d - h, s)) / (2 * h),
        (cur(g, d, s + h) - cur(g, d, s - h)) / (2 * h),
    )


def near_kink(dev, bias, polarity="NMOS", tol=5e-6):
    """True when the bias sits close to a region seam or the body-effect
    sqrt kink, where a straddling central difference measures nothing."""
    sign = -1.0 if polarity == "PMOS" else 1.0
    v_gs, v_ds, v_sb = sign * bias.v_gs, sign * bias.v_ds, sign * bias.v_sb
    if v_ds < 0:
        v_gs, v_ds, v_sb = v_gs - v_ds, -v_ds, v_sb + v_ds
    vth = float(oracle_vth(dev.vth0, dev.gamma, dev.phi_f, dev.alpha, bias.l, v_sb, v_ds))
    vov = v_gs - vth
    wlim = BLEND_SPAN * dev.n * VT
    seam = min(abs(vov), abs(vov - wlim), abs(v_ds - vov), abs(v_ds - wlim), v_ds)
    return seam < tol or abs(-2.0 * dev.phi_f + v_sb) < 0.02


def test_conductances_match_finite_differences():
    rng = np.random.default_rng(20260814)
    checked = 0
    for _ in range(400):
        polarity = "PMOS" if rng.random() < 0.4 else "NMOS"
        dev = PMOS if polarity == "PMOS" else NMOS
        sign = -1.0 if polarity == "PMOS" else 1.0
        bias = Bias(
            v_gs=sign * rng.uniform(-0.2, 1.8),
            v_ds=sign * rng.uniform(-1.8, 1.8),
            v_sb=sign * rng.uniform(0.0, 0.9),
            w=rng.uniform(1e-6, 20e-6),
            l=rng.uniform(0.5e-6, 4e-6),
        )
        if near_kink(dev, bias, polarity):
            continue
        op = mos_point(dev, bias, polarity=polarity)
        fd_gm, fd_gds, fd_gsb = fd_partials(dev, bias, polarity)
        for an, fd in ((op.g_m, fd_gm), (op.g_ds, fd_gds), (op.g_mb, fd_gsb)):
            assert abs(an - fd) <= 1e-6 * max(abs(an), abs(fd)) + 1e-16
        checked += 1
    assert checked > 300


def test_gmb_sign_convention():
    # g_mb is the derivative with respect to v_sb: raising source-bulk
    # reverse bias weakens an NMOS, so the partial is negative.
    bias = Bias(v_gs=0.3, v_ds=0.6, v_sb=0.4)
    op = mos_point(NMOS, bias)
    assert op.g_mb < 0.0


# ---------------------------------------------------------------------
# Polarity and terminal symmetry


@pytest.mark.parametrize("v_ds", [-0.9, 0.9])
def test_pmos_sign_reflection(v_ds):
    # A PMOS evaluation is an NMOS evaluation of the negated bias with the
    # current sign restored; the conductances come back unreflected.
    bias_p = Bias(v_gs=-1.2, v_ds=v_ds, v_sb=-0.3)
    bias_n = Bias(v_gs=1.2, v_ds=-v_ds, v_sb=0.3)
    op_p = mos_point(PMOS, bias_p, polarity="PMOS")
    op_n = mos_point(PMOS, bias_n, polarity="NMOS")
    assert op_p.i_d == -op_n.i_d
    assert op_p.g_m == op_n.g_m
    assert op_p.g_ds == op_n.g_ds
    assert op_p.g_mb == op_n.g_mb


def test_pmos_conducts_with_negative_current():
    op = mos_point(PMOS, Bias(-1.2, -0.9, 0.0), polarity="PMOS")
    assert op.i_d < 0
    assert op.g_m > 0 and op.g_ds > 0


def test_drain_source_swap_antisymmetry():
    # Exchanging drain and source negates the current.
    for v in (0.05, 0.3, 1.1):
        fwd = mos_point(NMOS, Bias(0.9, v, 0.2))
        rev = mos_point(NMOS, Bias(0.9 - v, -v, 0.2 + v))
        assert abs(fwd.i_d + rev.i_d) <= 1e-15 + 1e-12 * abs(fwd.i_d)


@settings(max_examples=60, deadline=None)
@given(
    v_gs=st.floats(-0.5, 2.0),
    v_ds=st.floats(-2.0, 2.0),
    v_sb=st.floats(0.0, 1.0),
)
def test_partials_consistent_with_fd(v_gs, v_ds, v_sb):
    bias = Bias(v_gs, v_ds, v_sb)
    if near_kink(NMOS, bias, tol=1e-4):
        return
    op = mos_point(NMOS, bias)
    fd_gm, fd_gds, fd_gsb = fd_partials(NMOS, bias)
    scale = max(abs(op.g_m), abs(op.g_ds), abs(op.g_mb), 1e-12)
    assert abs(op.g_m - fd_gm) <= 1e-4 * scale
    assert abs(op.g_ds - fd_gds) <= 1e-4 * scale
    assert abs(op.g_mb - fd_gsb) <= 1e-4 * scale


# ---------------------------------------------------------------------
# Parameter derivation


def test_cox_from_oxide():
    derived = derive_tech_params(TechnologyParams.default())
    # 3.5e-11 F/m over 20 nm is 1.75e-3 F/m^2, i.e. 1.75e-7 F/cm^2.
    assert abs(derived.nmos.c_ox - 1.75e-3) < 1e-18
    assert abs(derived.nmos.c_ox * 1e-4 - 1.75e-7) < 1e-21


def test_doubling_tox_halves_cox():
    tech = TechnologyParams.default()
    base = derive_tech_params(tech).nmos.c_ox
    tech.nmos.t_ox *= 2
    assert derive_tech_params(tech).nmos.c_ox == base / 2


def test_gamma_from_doping():
    tech = TechnologyParams.default()
    tech.nmos.gamma = None
    tech.nmos.n_a = 1e23  # 1e17 cm^-3
    derived = derive_tech_params(tech)
    oracle = mp.sqrt(
        2 * mp.mpf(Q_ELECTRON) * mp.mpf("1.04e-10") * mp.mpf("1e23")
    ) / mp.mpf("1.75e-3")
    assert abs(derived.nmos.gamma - float(oracle)) < 1e-12
    tech.nmos.n_a = None
    with pytest.raises(ValueError):
        derive_tech_params(tech)
    tech.nmos.n_a = -1e23
    with pytest.raises(ValueError, match="^gamma derivation needs nonnegative n_a and eps_si$"):
        derive_tech_params(tech)


def test_vth0_from_charges():
    tech = TechnologyParams.default()
    tech.nmos.vth0 = None
    tech.nmos.phi_ms = -0.6
    tech.nmos.q_b0 = -8e-4
    tech.nmos.q_ox = 2e-4
    tech.nmos.q_i = 1e-4
    derived = derive_tech_params(tech)
    c_ox = 1.75e-3
    expected = -0.6 - 2.0 * (-0.35) - (-8e-4 + 2e-4 + 1e-4) / c_ox
    assert abs(derived.nmos.vth0 - expected) < 1e-15


def test_missing_charge_terms_rejected():
    tech = TechnologyParams.default()
    tech.nmos.vth0 = None
    tech.nmos.phi_ms = -0.6
    with pytest.raises(ValueError):
        derive_tech_params(tech)


def test_explicit_values_win_over_derivation():
    tech = TechnologyParams.default()
    tech.nmos.c_ox = 123.0
    assert derive_tech_params(tech).nmos.c_ox == 123.0


def test_bad_tox_rejected():
    tech = TechnologyParams.default()
    tech.nmos.t_ox = 0.0
    with pytest.raises(ValueError):
        derive_tech_params(tech)


def test_geometry_validation():
    with pytest.raises(ValueError):
        current(NMOS, Bias(1.0, 1.0, 0.0, w=0.0, l=1e-6))
    with pytest.raises(ValueError):
        current(NMOS, Bias(1.0, 1.0, 0.0, w=1e-6, l=0.0))
    with pytest.raises(ValueError):
        TECH.device("CMOS")
