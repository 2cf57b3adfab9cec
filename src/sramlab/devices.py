"""Cards for the compact MOSFET model: body-effect/DIBL threshold,
subthreshold conduction and a level-1 square law, blended C0-continuously.

This module holds the model cards, their derivation from physical inputs,
and the closed-form off-state leakage.  The model itself is one function,
kernels.mos_eval; mos_operating_point evaluates a single device through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels

K_BOLTZMANN = 1.380649e-23  # J/K
Q_ELECTRON = 1.602176634e-19  # C

# Working defaults for a generic long-channel process.  alpha is sized so
# that alpha*L = 10 at the 2 um minimum drawn length used by the bundled
# cell geometry, making drain-induced barrier lowering a small correction.
DEFAULT_VTH0 = 0.4  # V
DEFAULT_KP_NMOS = 100e-6  # A/V^2
DEFAULT_KP_PMOS = 40e-6  # A/V^2
DEFAULT_GAMMA = 0.3  # sqrt(V)
DEFAULT_PHI_F_NMOS = -0.35  # V
DEFAULT_PHI_F_PMOS = 0.35  # V
DEFAULT_LAMBDA = 0.05  # 1/V
DEFAULT_N = 1.25
DEFAULT_I0 = 1e-12  # A
DEFAULT_ALPHA = 10.0 / 2e-6  # 1/m
DEFAULT_A_VTH = 3e-9  # V*m (3 mV*um) mismatch coefficient
DEFAULT_T_OX = 20e-9  # m
DEFAULT_EPS_OX = 3.5e-11  # F/m
DEFAULT_EPS_SI = 1.04e-10  # F/m
DEFAULT_TEMPERATURE = 300.15  # K


def thermal_voltage(temperature: float) -> float:
    """kT/q in volts."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return K_BOLTZMANN * temperature / Q_ELECTRON


@dataclass
class DeviceParams:
    """Per-polarity model card.  All voltages are magnitudes in the device's
    own frame; kernels.mos_eval reflects PMOS terminals before evaluating.

    Fields left as None are filled by derive_tech_params() when the physical
    inputs (oxide, doping, charge terms) allow it; explicit values always win.
    """

    vth0: float | None = DEFAULT_VTH0
    kp: float = DEFAULT_KP_NMOS
    gamma: float | None = DEFAULT_GAMMA
    phi_f: float = DEFAULT_PHI_F_NMOS
    lam: float = DEFAULT_LAMBDA
    n: float = DEFAULT_N
    i0: float = DEFAULT_I0
    alpha: float = DEFAULT_ALPHA
    a_vth: float = DEFAULT_A_VTH
    t_ox: float = DEFAULT_T_OX
    eps_ox: float = DEFAULT_EPS_OX
    eps_si: float = DEFAULT_EPS_SI
    n_a: float | None = None  # 1/m^3
    c_ox: float | None = None  # F/m^2
    phi_ms: float | None = None
    q_b0: float | None = None  # C/m^2
    q_ox: float | None = None
    q_i: float | None = None


@dataclass
class TechnologyParams:
    nmos: DeviceParams
    pmos: DeviceParams
    temperature: float = DEFAULT_TEMPERATURE

    @classmethod
    def default(cls) -> "TechnologyParams":
        return cls(
            nmos=DeviceParams(),
            pmos=DeviceParams(kp=DEFAULT_KP_PMOS, phi_f=DEFAULT_PHI_F_PMOS),
        )

    @property
    def v_t(self) -> float:
        return thermal_voltage(self.temperature)

    def device(self, polarity: str) -> DeviceParams:
        polarity = polarity.upper()
        if polarity == "NMOS":
            return self.nmos
        if polarity == "PMOS":
            return self.pmos
        raise ValueError(f"unknown polarity {polarity!r}")


@dataclass(frozen=True)
class BiasPoint:
    v_gs: float
    v_ds: float
    v_sb: float = 0.0
    w: float = 10.5e-6
    l: float = 2e-6


@dataclass(frozen=True)
class MosOperatingPoint:
    """Drain current and its partials wrt (v_gs, v_ds, v_sb).

    g_mb is d(i_d)/d(v_sb), i.e. negative for an NMOS whose source rides
    above bulk; the node-frame stamp code derives all four terminal
    derivatives from these three.
    """

    i_d: float
    g_m: float
    g_ds: float
    g_mb: float


def _derive_device(dev: DeviceParams) -> DeviceParams:
    out = replace(dev)
    if out.c_ox is None:
        if out.t_ox <= 0:
            raise ValueError("t_ox must be positive")
        out.c_ox = out.eps_ox / out.t_ox
    if out.c_ox <= 0:
        raise ValueError("c_ox must be positive")
    if out.gamma is None:
        if out.n_a is None:
            raise ValueError("gamma derivation needs n_a")
        if out.n_a < 0 or out.eps_si < 0:
            raise ValueError("gamma derivation needs nonnegative n_a and eps_si")
        out.gamma = math.sqrt(2.0 * Q_ELECTRON * out.eps_si * out.n_a) / out.c_ox
    if out.vth0 is None:
        charges = (out.q_b0, out.q_ox, out.q_i)
        if out.phi_ms is None or any(q is None for q in charges):
            raise ValueError("vth0 derivation needs phi_ms and the charge terms")
        out.vth0 = out.phi_ms - 2.0 * out.phi_f - sum(charges) / out.c_ox
    return out


def derive_tech_params(params: TechnologyParams) -> TechnologyParams:
    """Fill C_ox, gamma, and V_th0 from physical inputs where absent."""
    return TechnologyParams(
        nmos=_derive_device(params.nmos),
        pmos=_derive_device(params.pmos),
        temperature=params.temperature,
    )


def leakage_current(dev: DeviceParams, w: float, l: float, v_t: float) -> float:
    """I_off at V_GS = 0 and zero back/drain bias: (W/L) I_0 exp(-Vth0/(n vT))."""
    if w <= 0 or l <= 0:
        raise ValueError("device geometry must be positive")
    return (w / l) * dev.i0 * math.exp(-dev.vth0 / (dev.n * v_t))


def mos_operating_point(
    dev: DeviceParams,
    bias: BiasPoint,
    v_t: float | None = None,
    polarity: str = "NMOS",
) -> MosOperatingPoint:
    """Drain current and small-signal conductances at a bias point.

    Pass terminal-frame voltages (negative for a conducting PMOS) and
    magnitude parameters; the returned current carries the PMOS sign.  The
    device is evaluated as a one-row array by kernels.mos_eval, the model
    the solver stamps.
    """
    if v_t is None:
        v_t = thermal_voltage(DEFAULT_TEMPERATURE)
    par = kernels.pack_device(dev, polarity, bias.w, bias.l, v_t)[None, :]
    i_d, g_m, g_ds, g_mb = kernels.mos_eval(
        par, np.array([bias.v_gs]), np.array([bias.v_ds]), np.array([bias.v_sb]), v_t
    )
    return MosOperatingPoint(float(i_d[0]), float(g_m[0]), float(g_ds[0]), float(g_mb[0]))
