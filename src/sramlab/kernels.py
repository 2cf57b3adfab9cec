"""The compact MOS model and its stamping into the nodal solver.

The model is one array-valued function, mos_eval: packed device parameters
and terminal voltage differences in, drain current and its three partials
out.  mos_stamp evaluates every device of every lane through mos_eval in one
call and scatters the results into each lane's Jacobian and residual, and
devices.mos_operating_point evaluates single devices through mos_eval.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .devices import DeviceParams

# Column layout of the per-device parameter matrix.
COL_SIGN = 0  # +1 NMOS, -1 PMOS
COL_BETA = 1  # W/L
COL_VTH0 = 2
COL_GAMMA = 3
COL_TWO_PHI = 4  # -2*phi_f
COL_SQRT0 = 5  # sqrt(|-2*phi_f|)
COL_DIBL = 6  # exp(-alpha*L)
COL_KP = 7
COL_LAM = 8
COL_NVT = 9  # n*v_T
COL_I0 = 10
COL_WLIM = 11  # blend span above threshold, BLEND_SPAN*n*v_T
N_PAR = 12

# Width of the blending band above threshold, in units of n*v_T.
BLEND_SPAN = 3.0


def pack_device(dev: DeviceParams, polarity: str, w: float, l: float, v_t: float) -> np.ndarray:
    """One parameter-matrix row for a device instance."""
    if w <= 0 or l <= 0:
        raise ValueError("device geometry must be positive")
    row = np.empty(N_PAR)
    row[COL_SIGN] = -1.0 if polarity.upper() == "PMOS" else 1.0
    row[COL_BETA] = w / l
    row[COL_VTH0] = dev.vth0
    row[COL_GAMMA] = dev.gamma
    row[COL_TWO_PHI] = -2.0 * dev.phi_f
    row[COL_SQRT0] = math.sqrt(abs(2.0 * dev.phi_f))
    row[COL_DIBL] = math.exp(-dev.alpha * l)
    row[COL_KP] = dev.kp
    row[COL_LAM] = dev.lam
    row[COL_NVT] = dev.n * v_t
    row[COL_I0] = dev.i0
    row[COL_WLIM] = BLEND_SPAN * dev.n * v_t
    return row


def get_backend() -> str:
    """Name of the stamp kernel, for benchmark provenance records."""
    return "numpy"


# Terminal columns (drain, gate, source, bulk) of the eight Jacobian entries
# and two residual entries each device stamps.
_JAC_ROW = np.array([0, 0, 0, 0, 2, 2, 2, 2])
_JAC_COL = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_RES_ROW = np.array([0, 2])


def mos_eval(par, vgs, vds, vsb, vt):
    """Drain current and its partials (i, gm, gds, gmb) for a device array.

    vgs, vds and vsb are terminal-frame voltage differences, one per row of
    par.  The PMOS sign and the drain/source exchange for vds < 0 are applied
    here: i is the signed current into the drain terminal, and gm, gds and
    gmb are its derivatives with respect to vgs, vds and vsb.
    """
    sgn = par[:, COL_SIGN]
    vgs = sgn * vgs
    vds = sgn * vds
    vsb = sgn * vsb
    flip = vds < 0.0
    vgs = np.where(flip, vgs - vds, vgs)
    vsb = np.where(flip, vsb + vds, vsb)
    vds = np.abs(vds)

    beta = par[:, COL_BETA]
    dibl = par[:, COL_DIBL]
    nvt = par[:, COL_NVT]
    wlim = par[:, COL_WLIM]
    i0 = par[:, COL_I0]
    kp = par[:, COL_KP]
    lam = par[:, COL_LAM]

    # Unused branch lanes are computed on clamped inputs and masked off, so
    # warnings are suppressed wholesale.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        arg = par[:, COL_TWO_PHI] + vsb
        absarg = np.abs(arg)
        sq = np.sqrt(absarg)
        dsq = np.where(absarg < 1e-12, 0.0, np.copysign(0.5, arg) / np.where(sq > 0.0, sq, 1.0))
        vth = par[:, COL_VTH0] + par[:, COL_GAMMA] * (sq - par[:, COL_SQRT0]) - vds * dibl
        dvthb = par[:, COL_GAMMA] * dsq
        vov = vgs - vth

        tiny_ds = vds < 1e-12
        emv = np.exp(-vds / vt)
        fds = 1.0 - emv
        fds_safe = np.where(fds > 0.0, fds, 1.0)

        i_sub = beta * i0 * np.exp(vov / nvt) * fds
        dg_sub = 1.0 / nvt
        dd_sub = dibl / nvt + emv / (vt * fds_safe)
        db_sub = -dvthb / nvt

        vov_pos = np.maximum(vov, 1e-300)
        lam_term = 1.0 + lam * vds
        tri = vds < vov
        p = vov * vds - 0.5 * vds * vds
        p_safe = np.where(p > 0.0, p, 1.0)
        i_sq = np.where(
            tri, kp * beta * p * lam_term, 0.5 * kp * beta * vov_pos * vov_pos * lam_term
        )
        dg_sq = np.where(tri, vds / p_safe, 2.0 / vov_pos)
        dd_sq = np.where(tri, (vov - vds + vds * dibl) / p_safe, 2.0 * dibl / vov_pos)
        dd_sq = dd_sq + lam / lam_term
        db_sq = np.where(tri, -vds * dvthb / p_safe, -2.0 * dvthb / vov_pos)

        sub = vov <= 0.0
        sq_only = vov >= wlim
        frac = np.clip(vov / wlim, 0.0, 1.0)

        # Blend lanes: log-linear chord between the fixed-overdrive anchors.
        i_lo = beta * i0 * fds
        i_lo_safe = np.where(i_lo > 0.0, i_lo, 1.0)
        dd_lo = emv / (vt * fds_safe)
        tri_hi = vds < wlim
        p_hi = wlim * vds - 0.5 * vds * vds
        p_hi_safe = np.where(p_hi > 0.0, p_hi, 1.0)
        i_hi = np.where(
            tri_hi, kp * beta * p_hi * lam_term, 0.5 * kp * beta * wlim * wlim * lam_term
        )
        i_hi_safe = np.where(i_hi > 0.0, i_hi, 1.0)
        dd_hi = np.where(tri_hi, (wlim - vds) / p_hi_safe, 0.0) + lam / lam_term
        span = np.log(i_hi_safe / i_lo_safe)
        i_blend = np.exp((1.0 - frac) * np.log(i_lo_safe) + frac * np.log(i_hi_safe))

        im = np.where(sub, i_sub, np.where(sq_only, i_sq, i_blend))
        gm = np.where(
            sub,
            i_sub * dg_sub,
            np.where(sq_only, i_sq * dg_sq, i_blend * span / wlim),
        )
        gds = np.where(
            sub,
            i_sub * dd_sub,
            np.where(
                sq_only,
                i_sq * dd_sq,
                i_blend * ((1.0 - frac) * dd_lo + frac * dd_hi + span * dibl / wlim),
            ),
        )
        gmb = np.where(
            sub,
            i_sub * db_sub,
            np.where(sq_only, i_sq * db_sq, -i_blend * span * dvthb / wlim),
        )

        g0_sub = beta * i0 * np.exp(vov / nvt) / vt
        g0_sq = kp * beta * vov_pos
        g0_blend = (beta * i0 / vt) ** (1.0 - frac) * (kp * beta * wlim) ** frac
        g0 = np.where(sub, g0_sub, np.where(sq_only, g0_sq, g0_blend))
        im = np.where(tiny_ds, 0.0, im)
        gm = np.where(tiny_ds, 0.0, gm)
        gds = np.where(tiny_ds, g0, gds)
        gmb = np.where(tiny_ds, 0.0, gmb)

    im2 = np.where(flip, -im, im)
    gm2 = np.where(flip, -gm, gm)
    gds2 = np.where(flip, gm + gds - gmb, gds)
    gmb2 = np.where(flip, -gmb, gmb)
    return sgn * im2, gm2, gds2, gmb2


def mos_stamp(x_ext, idx, par, vt, jac, res) -> None:
    """Accumulate MOS drain currents and conductances in place.

    x_ext holds the solver unknowns plus one trailing slot pinned at 0.0 for
    ground; idx rows index (drain, gate, source, bulk) into it.  jac and res
    carry the same trailing slot, so stamps landing on ground are simply
    ignored by the caller.  jac and res must be C-contiguous.

    A leading lane axis stamps many states of one circuit at once: x_ext
    and res are then (lanes, n+1) and jac is (lanes, n+1, n+1).  idx is
    shared by every lane; par is either shared, (devices, N_PAR), or one
    parameter matrix per lane, (lanes, devices, N_PAR).  Each lane's stamp
    is the one it would get on its own.
    """
    if idx.shape[0] == 0:
        return
    if not (jac.flags.c_contiguous and res.flags.c_contiguous):
        raise ValueError("jac and res must be C-contiguous")
    n_ext = res.shape[-1]
    lanes = res.size // n_ext
    # Terminal slots, Jacobian and residual targets as flat indices into the
    # (lanes, n+1) stacks, lane-major: every lane's devices go through
    # mos_eval as one flat array.
    terminals = idx.T
    jac_flat = terminals[_JAC_ROW] * n_ext + terminals[_JAC_COL]
    lane = np.arange(lanes)[:, None]
    terminals = (terminals[:, None, :] + lane * n_ext).reshape(4, -1)
    jac_flat = (jac_flat[:, None, :] + lane * (n_ext * n_ext)).reshape(8, -1)
    par = par.reshape(-1, N_PAR) if par.ndim == 3 else np.tile(par, (lanes, 1))
    v_d, v_g, v_s, v_b = x_ext.reshape(-1)[terminals]
    i_term, dgv, dd, gmb = mos_eval(par, v_g - v_s, v_d - v_s, v_s - v_b, vt)
    dsv = -dgv - dd + gmb
    dbv = -gmb

    # One scatter per array, ordered entry by entry (every drain-drain term,
    # then every drain-gate term, ...) and lane by lane within an entry.
    # Each target belongs to one lane, so repeated indices accumulate in the
    # order a lone lane would use.
    vals = np.concatenate((dd, dgv, dsv, dbv, -dd, -dgv, -dsv, -dbv))
    np.add.at(jac.reshape(-1), jac_flat.reshape(-1), vals)
    np.add.at(res.reshape(-1), terminals[_RES_ROW].reshape(-1), np.concatenate((i_term, -i_term)))
