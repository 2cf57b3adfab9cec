import math

import numpy as np
import pytest

from sramlab import kernels
from sramlab.devices import (
    BiasPoint,
    TechnologyParams,
    derive_tech_params,
    mos_operating_point,
)
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
    N_PAR,
    get_backend,
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


def run_stamp(fn, x_ext, idx, par):
    n_ext = x_ext.shape[0]
    jac = np.zeros((n_ext, n_ext))
    res = np.zeros(n_ext)
    fn(x_ext, idx, par, VT, jac, res)
    return jac, res


def test_numpy_matches_python_loop():
    rng = np.random.default_rng(42)
    for _ in range(10):
        x_ext, idx, par = random_lanes(rng, 25)
        jac_a, res_a = run_stamp(kernels._stamp_numpy, x_ext, idx, par)
        jac_b, res_b = run_stamp(kernels._stamp_loop, x_ext, idx, par)
        # The 1e-18 floor absorbs cancellation noise in entries where
        # opposing stamps nearly annihilate; it sits far below the solver's
        # own tolerances.
        np.testing.assert_allclose(jac_a, jac_b, rtol=5e-13, atol=1e-18)
        np.testing.assert_allclose(res_a, res_b, rtol=5e-13, atol=1e-18)


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")
def test_numba_matches_python_loop():
    rng = np.random.default_rng(43)
    for _ in range(10):
        x_ext, idx, par = random_lanes(rng, 25)
        jac_a, res_a = run_stamp(kernels._stamp_numba, x_ext, idx, par)
        jac_b, res_b = run_stamp(kernels._stamp_loop, x_ext, idx, par)
        np.testing.assert_allclose(jac_a, jac_b, rtol=5e-13, atol=1e-18)
        np.testing.assert_allclose(res_a, res_b, rtol=5e-13, atol=1e-18)


def test_stamp_against_operating_point():
    # One device at a time: the stamped current and the four Jacobian
    # entries of the drain row must equal the operating point's partials.
    # mos_operating_point evaluates through mos_eval, the model the numpy
    # stamp uses, so the scalar loop is the independent side of the
    # comparison.
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
        jac, res = run_stamp(kernels._stamp_loop, x_ext, idx, par)

        bias = BiasPoint(
            v_gs=x_ext[g] - x_ext[s],
            v_ds=x_ext[d] - x_ext[s],
            v_sb=x_ext[s] - x_ext[b],
            w=w,
            l=l,
        )
        op = mos_operating_point(dev, bias, None, pol)
        np.testing.assert_allclose(res[d], op.i_d, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(res[s], -op.i_d, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(jac[d, d], op.g_ds, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(jac[d, g], op.g_m, rtol=1e-9, atol=1e-30)
        np.testing.assert_allclose(
            jac[d, s], -op.g_m - op.g_ds + op.g_mb, rtol=1e-9, atol=1e-30
        )
        np.testing.assert_allclose(jac[d, b], -op.g_mb, rtol=1e-9, atol=1e-30)
        # Source row is the exact negation, and each row sums to zero.
        np.testing.assert_allclose(jac[s], -jac[d], rtol=0, atol=0)
        assert abs(jac[d].sum()) <= 1e-16 + 1e-12 * np.abs(jac[d]).max()


def random_states(rng, x_ext, lanes):
    """Stack of lane states over x_ext's node set, ground slot at zero."""
    x = np.zeros((lanes, x_ext.size))
    x[:, :-1] = rng.uniform(-1.8, 1.8, (lanes, x_ext.size - 1))
    return x


def run_lane_stamp(fn, x, idx, par):
    lanes, n_ext = x.shape
    jac = np.zeros((lanes, n_ext, n_ext))
    res = np.zeros((lanes, n_ext))
    fn(x, idx, par, VT, jac, res)
    return jac, res


def lane_params(rng, par, lanes):
    """One parameter matrix per lane: par with each lane's V_th0 shifted."""
    per_lane = np.repeat(par[None], lanes, axis=0)
    per_lane[:, :, COL_VTH0] += rng.normal(0.0, 0.03, per_lane.shape[:2])
    return per_lane


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


def test_numba_branch_loops_the_lanes(monkeypatch):
    # The compiled branch stamps lane by lane with the scalar kernel; run it
    # with the plain-Python kernel in place of the compiled one.
    rng = np.random.default_rng(48)
    cases = []
    for _ in range(5):
        x_ext, idx, par = random_lanes(rng, 25)
        cases.append((random_states(rng, x_ext, 7), idx, par))
        # The same states with one parameter matrix per lane.
        cases.append((cases[-1][0], idx, lane_params(rng, par, 7)))
    want = [run_lane_stamp(kernels._stamp_numpy, *case) for case in cases]
    monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
    monkeypatch.setattr(kernels, "_stamp_numba", kernels._stamp_loop)
    for case, (jac_b, res_b) in zip(cases, want):
        jac_a, res_a = run_lane_stamp(mos_stamp, *case)
        np.testing.assert_allclose(jac_a, jac_b, rtol=5e-13, atol=1e-18)
        np.testing.assert_allclose(res_a, res_b, rtol=5e-13, atol=1e-18)
        lane_0 = case[2] if case[2].ndim == 2 else case[2][0]
        jac_1, res_1 = run_stamp(mos_stamp, case[0][0], case[1], lane_0)
        assert np.array_equal(jac_1, jac_a[0]) and np.array_equal(res_1, res_a[0])


def test_stamp_accumulates_in_place():
    rng = np.random.default_rng(45)
    x_ext, idx, par = random_lanes(rng, 8)
    jac1, res1 = run_stamp(kernels._stamp_numpy, x_ext, idx, par)
    n_ext = x_ext.shape[0]
    jac2 = np.zeros((n_ext, n_ext))
    res2 = np.zeros(n_ext)
    kernels._stamp_numpy(x_ext, idx, par, VT, jac2, res2)
    kernels._stamp_numpy(x_ext, idx, par, VT, jac2, res2)
    np.testing.assert_allclose(jac2, 2.0 * jac1, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res2, 2.0 * res1, rtol=1e-12, atol=0)


def test_stamp_zero_vds_lane():
    # Drain tied to source: zero current, pure conductance on the diagonal.
    x_ext = np.array([0.9, 1.2, 0.9, 0.0, 0.0])
    idx = np.array([[0, 1, 2, 3]], dtype=np.int64)
    par = pack_device(TECH.nmos, "NMOS", 10.5e-6, 2e-6, VT)[None, :]
    for fn in (kernels._stamp_numpy, kernels._stamp_loop):
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
    mos_stamp(x_ext, empty, par, VT, jac, res)
    assert not jac.any() and not res.any()

    rng = np.random.default_rng(46)
    x_ext, idx, par = random_lanes(rng, 12)
    backend = {"numba": kernels._stamp_numba, "numpy": kernels._stamp_numpy}[get_backend()]
    jac_a, res_a = run_stamp(mos_stamp, x_ext, idx, par)
    jac_b, res_b = run_stamp(backend, x_ext, idx, par)
    np.testing.assert_allclose(jac_a, jac_b, rtol=0, atol=0)
    np.testing.assert_allclose(res_a, res_b, rtol=0, atol=0)
