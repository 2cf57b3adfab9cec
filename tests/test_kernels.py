import math

import numpy as np
import pytest

from sramlab import kernels
from sramlab.engine import MnaSystem
from sramlab.genlib import build_array
from sramlab.devices import TechnologyParams, derive_tech_params
from sramlab.kernels import (
    COL_BETA,
    COL_DIBL,
    COL_GAMMA,
    COL_I0,
    COL_KP,
    COL_LAM,
    COL_NVT,
    COL_SIGN,
    COL_SQRT0,
    COL_TWO_PHI,
    COL_VTH0,
    COL_WLIM,
    JAC_COL,
    JAC_ROW,
    N_PAR,
    RES_ROW,
    get_backend,
    mos_eval,
    mos_stamp,
    pack_device,
)

TECH = derive_tech_params(TechnologyParams.default())
VT = TECH.v_t


# ---------------------------------------------------------------------
# Parameter packing


def test_pack_device_row_contents():
    row = pack_device(TECH.nmos, "NMOS", 10.5e-6, 2e-6, VT)
    assert row.shape == (N_PAR,)
    assert row[COL_SIGN] == 1.0
    assert row[COL_BETA] == 10.5e-6 / 2e-6
    assert row[COL_VTH0] == TECH.nmos.vth0
    assert row[COL_GAMMA] == TECH.nmos.gamma
    assert row[COL_TWO_PHI] == 0.7
    assert row[COL_SQRT0] == math.sqrt(0.7)
    assert row[COL_DIBL] == math.exp(-TECH.nmos.alpha * 2e-6)
    assert row[COL_KP] == TECH.nmos.kp
    assert row[COL_LAM] == TECH.nmos.lam
    assert row[COL_NVT] == TECH.nmos.n * VT
    assert row[COL_I0] == TECH.nmos.i0
    assert row[COL_WLIM] == kernels.BLEND_SPAN * TECH.nmos.n * VT


def test_pack_device_pmos_sign():
    row = pack_device(TECH.pmos, "pmos", 10.5e-6, 2e-6, VT)
    assert row[COL_SIGN] == -1.0
    assert row[COL_KP] == TECH.pmos.kp


def test_pack_device_rejects_bad_geometry():
    with pytest.raises(ValueError):
        pack_device(TECH.nmos, "NMOS", 0.0, 2e-6, VT)
    with pytest.raises(ValueError):
        pack_device(TECH.nmos, "NMOS", 1e-6, -1.0, VT)


# ---------------------------------------------------------------------
# Stamp correctness


def _stamp_loop(x_ext, idx, par, vt, jac, res, at):
    """mos_stamp's model and scatter for one lane, written as a scalar loop.

    The reference the vectorised stamp and mos_eval are checked against: one
    device at a time, with the branch taken per device rather than selected
    by masks, each entry added at its planned target.
    """
    jac, res = jac.reshape(-1), res.reshape(-1)
    n_dev = idx.shape[0]
    for k in range(n_dev):
        d = idx[k, 0]
        g = idx[k, 1]
        s_n = idx[k, 2]
        b = idx[k, 3]
        sgn = par[k, COL_SIGN]
        vgs = sgn * (x_ext[g] - x_ext[s_n])
        vds = sgn * (x_ext[d] - x_ext[s_n])
        vsb = sgn * (x_ext[s_n] - x_ext[b])
        flip = vds < 0.0
        if flip:  # conduction with drain/source roles exchanged
            vgs = vgs - vds
            vsb = vsb + vds
            vds = -vds

        beta = par[k, COL_BETA]
        dibl = par[k, COL_DIBL]
        nvt = par[k, COL_NVT]
        wlim = par[k, COL_WLIM]
        i0 = par[k, COL_I0]
        kp = par[k, COL_KP]
        lam = par[k, COL_LAM]

        arg = par[k, COL_TWO_PHI] + vsb
        absarg = abs(arg)
        sq = math.sqrt(absarg)
        if absarg < 1e-12:
            dsq = 0.0
        else:
            dsq = math.copysign(0.5 / sq, arg)
        vth = par[k, COL_VTH0] + par[k, COL_GAMMA] * (sq - par[k, COL_SQRT0]) - vds * dibl
        dvthb = par[k, COL_GAMMA] * dsq
        vov = vgs - vth

        if vds < 1e-12:
            im = 0.0
            gm = 0.0
            gmb = 0.0
            if vov <= 0.0:
                gds = beta * i0 * math.exp(vov / nvt) / vt
            elif vov >= wlim:
                gds = kp * beta * vov
            else:
                frac = vov / wlim
                gds = (beta * i0 / vt) ** (1.0 - frac) * (kp * beta * wlim) ** frac
        else:
            emv = math.exp(-vds / vt)
            fds = 1.0 - emv
            if vov <= 0.0:
                im = beta * i0 * math.exp(vov / nvt) * fds
                gm = im / nvt
                gds = im * (dibl / nvt + emv / (vt * fds))
                gmb = -im * dvthb / nvt
            else:
                lam_term = 1.0 + lam * vds
                if vds < vov:  # triode; lam_term kept for continuity at the seam
                    p = vov * vds - 0.5 * vds * vds
                    i_sq = kp * beta * p * lam_term
                    dg_sq = vds / p
                    dd_sq = (vov - vds + vds * dibl) / p + lam / lam_term
                    db_sq = -vds * dvthb / p
                else:
                    i_sq = 0.5 * kp * beta * vov * vov * lam_term
                    dg_sq = 2.0 / vov
                    dd_sq = 2.0 * dibl / vov + lam / lam_term
                    db_sq = -2.0 * dvthb / vov
                if vov >= wlim:
                    im = i_sq
                    gm = i_sq * dg_sq
                    gds = i_sq * dd_sq
                    gmb = i_sq * db_sq
                else:
                    # Log-linear chord between the fixed-overdrive anchors:
                    # the weak-inversion current at vov = 0 and the
                    # square-law current at vov = wlim, both at this vds.
                    # The anchors carry no vth dependence, so threshold
                    # shifts act only through frac.
                    i_lo = beta * i0 * fds
                    dd_lo = emv / (vt * fds)
                    if vds < wlim:
                        p_hi = wlim * vds - 0.5 * vds * vds
                        i_hi = kp * beta * p_hi * lam_term
                        dd_hi = (wlim - vds) / p_hi + lam / lam_term
                    else:
                        i_hi = 0.5 * kp * beta * wlim * wlim * lam_term
                        dd_hi = lam / lam_term
                    frac = vov / wlim
                    span = math.log(i_hi / i_lo)
                    im = math.exp((1.0 - frac) * math.log(i_lo) + frac * math.log(i_hi))
                    gm = im * span / wlim
                    gds = im * ((1.0 - frac) * dd_lo + frac * dd_hi + span * dibl / wlim)
                    gmb = -im * span * dvthb / wlim

        if flip:
            # Map partials back to the unswapped frame: the current negates
            # and the swapped-frame terminal differences mix the conductances.
            t_gm = -gm
            t_gds = gm + gds - gmb
            t_gmb = -gmb
            gm = t_gm
            gds = t_gds
            gmb = t_gmb
            im = -im

        i_term = sgn * im
        dd = gds
        dgv = gm
        dsv = -gm - gds + gmb
        dbv = -gmb

        res[at[8, k]] += i_term
        res[at[9, k]] -= i_term
        jac[at[0, k]] += dd
        jac[at[1, k]] += dgv
        jac[at[2, k]] += dsv
        jac[at[3, k]] += dbv
        jac[at[4, k]] -= dd
        jac[at[5, k]] -= dgv
        jac[at[6, k]] -= dsv
        jac[at[7, k]] -= dbv


def random_lanes(rng, n_dev, n_nodes=6):
    """Random device array over a small node set, ground in the last slot."""
    idx = rng.integers(0, n_nodes + 1, size=(n_dev, 4)).astype(np.int64)
    x = rng.uniform(-1.8, 1.8, n_nodes)
    x[rng.integers(0, n_nodes)] = 0.0  # at least one node at ground potential
    x_ext = np.concatenate([x, [0.0]])
    rows = []
    for _ in range(n_dev):
        if rng.random() < 0.5:
            dev, pol = TECH.pmos, "PMOS"
        else:
            dev, pol = TECH.nmos, "NMOS"
        w = rng.uniform(1e-6, 20e-6)
        l = rng.uniform(0.5e-6, 4e-6)
        rows.append(pack_device(dev, pol, w, l, VT))
    return x_ext, idx, np.array(rows)


def dense_targets(idx, n_ext, lanes=None):
    """The stamp's targets in a dense (n+1)-square Jacobian and its
    residual, for one lane or for a stack of them."""
    t = idx.T
    at = np.concatenate((t[JAC_ROW] * n_ext + t[JAC_COL], t[RES_ROW]))
    if lanes is None:
        return at
    stride = np.where(np.arange(10) < 8, n_ext * n_ext, n_ext)
    return at[:, None, :] + (stride[:, None] * np.arange(lanes))[:, :, None]


def run_stamp(fn, x_ext, idx, par):
    n_ext = x_ext.shape[0]
    jac = np.zeros((n_ext, n_ext))
    res = np.zeros(n_ext)
    fn(x_ext, idx, par, VT, jac, res, dense_targets(idx, n_ext))
    return jac, res


def random_states(rng, x_ext, lanes):
    """Stack of lane states over x_ext's node set, ground slot at zero."""
    x = np.zeros((lanes, x_ext.size))
    x[:, :-1] = rng.uniform(-1.8, 1.8, (lanes, x_ext.size - 1))
    return x


def run_lane_stamp(fn, x, idx, par):
    lanes, n_ext = x.shape
    jac = np.zeros((lanes, n_ext, n_ext))
    res = np.zeros((lanes, n_ext))
    fn(x, idx, par, VT, jac, res, dense_targets(idx, n_ext, lanes))
    return jac, res


def lane_params(rng, par, lanes):
    """One parameter matrix per lane: par with each lane's V_th0 shifted."""
    per_lane = np.repeat(par[None], lanes, axis=0)
    per_lane[:, :, COL_VTH0] += rng.normal(0.0, 0.03, per_lane.shape[:2])
    return per_lane


def test_numpy_matches_python_loop():
    rng = np.random.default_rng(42)
    for _ in range(10):
        x_ext, idx, par = random_lanes(rng, 25)
        jac_a, res_a = run_stamp(mos_stamp, x_ext, idx, par)
        jac_b, res_b = run_stamp(_stamp_loop, x_ext, idx, par)
        # The 1e-18 floor absorbs cancellation noise in entries where
        # opposing stamps nearly annihilate; it sits far below the solver's
        # own tolerances.
        np.testing.assert_allclose(jac_a, jac_b, rtol=5e-13, atol=1e-18)
        np.testing.assert_allclose(res_a, res_b, rtol=5e-13, atol=1e-18)

    # Lane stacks, with one shared parameter matrix and with one per lane:
    # each lane matches the scalar stamp of that lane alone.
    rng = np.random.default_rng(48)
    for _ in range(5):
        x_ext, idx, par = random_lanes(rng, 25)
        x = random_states(rng, x_ext, 7)
        for lanes_par in (par, lane_params(rng, par, 7)):
            jac_a, res_a = run_lane_stamp(mos_stamp, x, idx, lanes_par)
            for lane in range(x.shape[0]):
                lane_par = lanes_par if lanes_par.ndim == 2 else lanes_par[lane]
                jac_b, res_b = run_stamp(_stamp_loop, x[lane], idx, lane_par)
                np.testing.assert_allclose(jac_a[lane], jac_b, rtol=5e-13, atol=1e-18)
                np.testing.assert_allclose(res_a[lane], res_b, rtol=5e-13, atol=1e-18)


def test_planned_targets_match_the_scalar_loop():
    # The solver stamps into one value per planned Jacobian entry, at the
    # targets its plan fixes.  At those targets the vectorised stamp must
    # match the scalar loop, lane by lane, and hold exactly the dense
    # stamp's entries, with the ground row and column left in the sink.
    rng = np.random.default_rng(49)
    sys = MnaSystem(build_array(2, 3))
    n_ext, m = sys.size + 1, sys.g_static.size
    rows, cols = np.divmod(sys._keys, n_ext)
    lanes = 5
    x = random_states(rng, np.zeros(n_ext), lanes)
    par = lane_params(rng, sys.mos_par, lanes)
    stride = np.where(np.arange(10) < 8, m, n_ext)
    at = sys._stamp_at[:, None, :] + (stride[:, None] * np.arange(lanes))[:, :, None]
    jac, res = np.zeros((lanes, m)), np.zeros((lanes, n_ext))
    mos_stamp(x, sys.mos_idx, par, VT, jac, res, at)
    for lane in range(lanes):
        jac_1, res_1 = np.zeros(m), np.zeros(n_ext)
        _stamp_loop(x[lane], sys.mos_idx, par[lane], VT, jac_1, res_1, sys._stamp_at)
        np.testing.assert_allclose(jac[lane], jac_1, rtol=5e-13, atol=1e-18)
        np.testing.assert_allclose(res[lane], res_1, rtol=5e-13, atol=1e-18)
        full, full_res = run_stamp(mos_stamp, x[lane], sys.mos_idx, par[lane])
        assert np.array_equal(jac[lane, :-1], full[rows, cols])
        assert np.array_equal(res[lane], full_res)
        off_plan = full[:-1, :-1].copy()
        off_plan[rows, cols] = 0.0
        assert not off_plan.any()


def test_stamp_against_operating_point():
    # One device at a time: the stamped current and the four Jacobian
    # entries of the drain row must equal the operating point's partials.
    # mos_operating_point evaluates through mos_eval, the model mos_stamp
    # uses, so the scalar loop is the independent side of the comparison.
    rng = np.random.default_rng(44)
    for _ in range(40):
        if rng.random() < 0.5:
            dev, pol = TECH.pmos, "PMOS"
        else:
            dev, pol = TECH.nmos, "NMOS"
        w = rng.uniform(1e-6, 20e-6)
        l = rng.uniform(0.5e-6, 4e-6)
        x_ext = np.concatenate([rng.uniform(-1.8, 1.8, 4), [0.0]])
        d, g, s, b = 0, 1, 2, 3
        idx = np.array([[d, g, s, b]], dtype=np.int64)
        par = pack_device(dev, pol, w, l, VT)[None, :]
        jac, res = run_stamp(_stamp_loop, x_ext, idx, par)

        v_gs, v_ds, v_sb = (np.array([x_ext[i] - x_ext[j]]) for i, j in ((g, s), (d, s), (s, b)))
        i_d, g_m, g_ds, g_mb = (float(a[0]) for a in mos_eval(par, v_gs, v_ds, v_sb, VT))
        np.testing.assert_allclose(res[d], i_d, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(res[s], -i_d, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(jac[d, d], g_ds, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(jac[d, g], g_m, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(
            jac[d, s], -g_m - g_ds + g_mb, rtol=1e-9, atol=1e-30
        )
        np.testing.assert_allclose(jac[d, b], -g_mb, rtol=1e-9, atol=1e-30)
        # Source row is the exact negation, and each row sums to zero.
        np.testing.assert_allclose(jac[s], -jac[d], rtol=0, atol=0)
        assert abs(jac[d].sum()) <= 1e-16 + 1e-12 * np.abs(jac[d]).max()


def test_lane_stamp_is_the_single_stamp_per_lane():
    rng = np.random.default_rng(47)
    for _ in range(10):
        x_ext, idx, par = random_lanes(rng, 25)
        x = random_states(rng, x_ext, int(rng.integers(1, 40)))
        per_lane = lane_params(rng, par, x.shape[0])
        jac, res = run_lane_stamp(mos_stamp, x, idx, par)
        jac_p, res_p = run_lane_stamp(mos_stamp, x, idx, per_lane)
        for lane in range(x.shape[0]):
            jac_1, res_1 = run_stamp(mos_stamp, x[lane].copy(), idx, par)
            assert np.array_equal(jac[lane], jac_1)
            assert np.array_equal(res[lane], res_1)
            jac_1, res_1 = run_stamp(mos_stamp, x[lane].copy(), idx, per_lane[lane])
            assert np.array_equal(jac_p[lane], jac_1)
            assert np.array_equal(res_p[lane], res_1)


def test_stamp_accumulates_in_place():
    rng = np.random.default_rng(45)
    x_ext, idx, par = random_lanes(rng, 8)
    jac1, res1 = run_stamp(mos_stamp, x_ext, idx, par)
    n_ext = x_ext.shape[0]
    jac2 = np.zeros((n_ext, n_ext))
    res2 = np.zeros(n_ext)
    at = dense_targets(idx, n_ext)
    mos_stamp(x_ext, idx, par, VT, jac2, res2, at)
    mos_stamp(x_ext, idx, par, VT, jac2, res2, at)
    np.testing.assert_allclose(jac2, 2.0 * jac1, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res2, 2.0 * res1, rtol=1e-12, atol=0)


def test_stamp_zero_vds_lane():
    # Drain tied to source: zero current, pure conductance on the diagonal.
    x_ext = np.array([0.9, 1.2, 0.9, 0.0, 0.0])
    idx = np.array([[0, 1, 2, 3]], dtype=np.int64)
    par = pack_device(TECH.nmos, "NMOS", 10.5e-6, 2e-6, VT)[None, :]
    for fn in (mos_stamp, _stamp_loop):
        jac, res = run_stamp(fn, x_ext, idx, par)
        assert res[0] == 0.0 and res[2] == 0.0
        assert jac[0, 0] > 0.0
        assert jac[0, 1] == 0.0  # no transconductance at v_ds = 0


def test_mos_stamp_empty_and_dispatch():
    x_ext = np.array([1.0, 0.0])
    empty = np.empty((0, 4), dtype=np.int64)
    par = np.empty((0, N_PAR))
    jac = np.zeros((2, 2))
    res = np.zeros(2)
    mos_stamp(x_ext, empty, par, VT, jac, res, dense_targets(empty, 2))
    assert not jac.any() and not res.any()
    assert get_backend() == "numpy"
