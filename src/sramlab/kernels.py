"""The compact MOS model and its stamping into the nodal solver.

The model is one array-valued function, mos_eval: packed device parameters
and terminal voltage differences in, drain current and its three partials
out.  mos_stamp evaluates every device of every lane through mos_eval in one
call and scatters the results into each lane's Jacobian values and
residual, at targets the caller plans once, and devices.mos_operating_point
evaluates single devices through mos_eval.
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
JAC_ROW = np.array([0, 0, 0, 0, 2, 2, 2, 2])
JAC_COL = np.array([0, 1, 2, 3, 0, 1, 2, 3])
RES_ROW = np.array([0, 2])


def mos_eval(par, vgs, vds, vsb, vt):
    """Drain current and its partials (i, gm, gds, gmb) for a device array.

    vgs, vds and vsb are terminal-frame voltage differences, one per row of
    par (or a stack of such arrays, broadcast against par's rows).  The
    PMOS sign and the drain/source exchange for vds < 0 are applied here: i
    is the signed current into the drain terminal, and gm, gds and gmb are
    its derivatives with respect to vgs, vds and vsb.
    """
    # One contiguous array per parameter column, shaped as par's rows.
    p = np.ascontiguousarray(par.reshape(-1, N_PAR).T).reshape((N_PAR,) + par.shape[:-1])
    sgn, beta, dibl, nvt, wlim = p[COL_SIGN], p[COL_BETA], p[COL_DIBL], p[COL_NVT], p[COL_WLIM]
    kp, lam, gamma = p[COL_KP], p[COL_LAM], p[COL_GAMMA]
    vgs = sgn * vgs
    vds = sgn * vds
    vsb = sgn * vsb
    flip = vds < 0.0
    vgs = np.where(flip, vgs - vds, vgs)
    vsb = np.where(flip, vsb + vds, vsb)
    vds = np.abs(vds)

    # Unused branch lanes are computed on clamped inputs and masked off, so
    # warnings are suppressed wholesale.  Each shared subexpression is
    # formed once, in the order every use of it had.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        arg = p[COL_TWO_PHI] + vsb
        absarg = np.abs(arg)
        sq = np.sqrt(absarg)
        dsq = np.where(absarg < 1e-12, 0.0, np.copysign(0.5, arg) / np.where(sq > 0.0, sq, 1.0))
        vth = p[COL_VTH0] + gamma * (sq - p[COL_SQRT0]) - vds * dibl
        dvthb = gamma * dsq
        vov = vgs - vth

        bi0 = beta * p[COL_I0]
        kb = kp * beta
        half_kb = 0.5 * kp * beta
        emv = np.exp(-vds / vt)
        fds = 1.0 - emv
        fds_safe = np.where(fds > 0.0, fds, 1.0)
        dd_lo = emv / (vt * fds_safe)
        e_sub = np.exp(vov / nvt)

        i_sub = bi0 * e_sub * fds
        dd_sub = dibl / nvt + dd_lo

        vov_pos = np.maximum(vov, 1e-300)
        lam_term = 1.0 + lam * vds
        lam_dd = lam / lam_term
        half_vds2 = 0.5 * vds * vds
        tri = vds < vov
        p_tri = vov * vds - half_vds2
        p_safe = np.where(p_tri > 0.0, p_tri, 1.0)
        i_sq = np.where(tri, kb * p_tri * lam_term, half_kb * vov_pos * vov_pos * lam_term)
        dg_sq = np.where(tri, vds / p_safe, 2.0 / vov_pos)
        dd_sq = np.where(tri, (vov - vds + vds * dibl) / p_safe, 2.0 * dibl / vov_pos)
        dd_sq = dd_sq + lam_dd
        db_sq = np.where(tri, -vds * dvthb / p_safe, -2.0 * dvthb / vov_pos)

        # Each output's weak-inversion and square-law values, and the
        # vds = 0 channel conductance where some device needs it.  The blend
        # region between them is formed only when some device lies in it.
        sub = vov <= 0.0
        sq_only = vov >= wlim
        tiny_ds = vds < 1e-12
        tiny = bool(tiny_ds.any())
        outs = [
            (i_sub, i_sq),
            (i_sub * (1.0 / nvt), i_sq * dg_sq),
            (i_sub * dd_sub, i_sq * dd_sq),
            (i_sub * (-dvthb / nvt), i_sq * db_sq),
        ]
        if tiny:
            outs.append((bi0 * e_sub / vt, kb * vov_pos))
        if not (sub | sq_only).all():
            # Blend lanes: log-linear chord between the fixed-overdrive
            # anchors.
            frac = np.clip(vov / wlim, 0.0, 1.0)
            one_frac = 1.0 - frac
            i_lo = bi0 * fds
            i_lo_safe = np.where(i_lo > 0.0, i_lo, 1.0)
            tri_hi = vds < wlim
            p_hi = wlim * vds - half_vds2
            p_hi_safe = np.where(p_hi > 0.0, p_hi, 1.0)
            i_hi = np.where(tri_hi, kb * p_hi * lam_term, half_kb * wlim * wlim * lam_term)
            i_hi_safe = np.where(i_hi > 0.0, i_hi, 1.0)
            dd_hi = np.where(tri_hi, (wlim - vds) / p_hi_safe, 0.0) + lam_dd
            span = np.log(i_hi_safe / i_lo_safe)
            i_blend = np.exp(one_frac * np.log(i_lo_safe) + frac * np.log(i_hi_safe))
            blends = [
                i_blend,
                i_blend * span / wlim,
                i_blend * (one_frac * dd_lo + frac * dd_hi + span * dibl / wlim),
                -i_blend * span * dvthb / wlim,
            ]
            if tiny:
                blends.append((bi0 / vt) ** one_frac * (kb * wlim) ** frac)
            outs = [(a_sub, np.where(sq_only, a_sq, a_blend)) for (a_sub, a_sq), a_blend in zip(outs, blends)]
        im, gm, gds, gmb, *g0 = (np.where(sub, a_sub, a_rest) for a_sub, a_rest in outs)
        if tiny:
            im = np.where(tiny_ds, 0.0, im)
            gm = np.where(tiny_ds, 0.0, gm)
            gds = np.where(tiny_ds, g0[0], gds)
            gmb = np.where(tiny_ds, 0.0, gmb)

    im2 = np.where(flip, -im, im)
    gm2 = np.where(flip, -gm, gm)
    gds2 = np.where(flip, gm + gds - gmb, gds)
    gmb2 = np.where(flip, -gmb, gmb)
    return sgn * im2, gm2, gds2, gmb2


def mos_stamp(x_ext, idx, par, vt, jac, res, at) -> None:
    """Accumulate MOS drain currents and conductances in place.

    x_ext holds the solver unknowns plus one trailing slot pinned at 0.0 for
    ground; idx rows index (drain, gate, source, bulk) into it.  jac holds
    the Jacobian's values in whatever layout the caller planned, and at is
    that plan: at[j, k] is the flat index, into jac.reshape(-1), of device
    k's Jacobian entry (JAC_ROW[j], JAC_COL[j]) for j < 8, and, into
    res.reshape(-1), of its residual entry RES_ROW[j - 8] for j = 8, 9.
    jac and res must be C-contiguous.

    A leading lane axis stamps many states of one circuit at once: x_ext
    and res are then (lanes, n+1), jac is one value array per lane and at
    is (10, lanes, devices), each lane's targets in that lane's arrays.
    idx is shared by every lane; par is either shared, (devices, N_PAR),
    or one parameter matrix per lane, (lanes, devices, N_PAR).  Each lane's
    stamp is the one it would get on its own.
    """
    if idx.shape[0] == 0:
        return
    if not (jac.flags.c_contiguous and res.flags.c_contiguous):
        raise ValueError("jac and res must be C-contiguous")
    # Terminal voltages, (4, devices) or (4, lanes, devices).
    v_d, v_g, v_s, v_b = x_ext.take(idx.T, axis=-1).swapaxes(0, -2)
    i_term, dgv, dd, gmb = mos_eval(par, v_g - v_s, v_d - v_s, v_s - v_b, vt)
    dsv = -dgv - dd + gmb
    dbv = -gmb

    # One scatter per array, ordered entry by entry (every drain-drain term,
    # then every drain-gate term, ...), lane by lane within an entry and
    # device by device within a lane.  Each target belongs to one lane, so
    # repeated indices accumulate in the order a lone lane would use.
    vals = np.concatenate((dd, dgv, dsv, dbv, -dd, -dgv, -dsv, -dbv), axis=None)
    np.add.at(jac.reshape(-1), at[:8].reshape(-1), vals)
    np.add.at(res.reshape(-1), at[8:].reshape(-1), np.concatenate((i_term, -i_term), axis=None))
