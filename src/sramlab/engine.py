"""Modified-nodal-analysis solver.

DC operating points use damped Newton iteration with an adaptive
gmin-stepping fallback; sweeps warm-start each point from the last;
transient runs fixed-step backward Euler (default) or trapezoidal companions
for the capacitors.  The Newton loop runs on lanes, a stack of states of one
system each with its own right-hand side and device parameter set, so that
many independent points (every sample's butterfly lobe grid) share every
device evaluation; a single solve is one lane.  Lanes queue for a pool of
at most MAX_LANES live ones, and each lane that finishes hands its place to
the next in the queue.  In a decoupled system, where every free unknown is
a block of its own, each lane is a set of bracketed scalar root-finds:
independent lanes start with every driven node at its drive, and a Newton
target that leaves the bracket the residual signs give falls back to the
bracket's midpoint, so such lanes converge in the pool and take no
fallback.  The fallback serves coupled systems (DC solves, sweeps and
write-margin probes), and runs on lanes too: the lanes plain Newton fails
walk the gmin ladder from their own starts, each with its own step, and
the lanes at one rung share one Newton call.  Unknown ordering is
named nodes first, in netlist first-use order, then one branch current per
voltage source.  Extended vectors carry a trailing ground slot pinned at
zero so every stamp writes unconditionally.

Each Newton step is solved exactly, but not as one dense system.  A voltage
source from ground to a node that no other grounded source drives fixes that
node's step outright; the remaining unknowns fall apart into the connected
components of their coupling graph, and each component is solved as its own
dense block, all blocks of one size and every lane in a single stacked
call.  The branch current of an eliminated source then follows from its
node's KCL row.  No (n+1)-square matrix is formed: each system fixes once
the plan of Jacobian entries that can be nonzero, a lane's Jacobian is one
value per planned entry, and every reset, product, gather and stamp runs
over those entries alone.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .devices import TechnologyParams, derive_tech_params
from .kernels import COL_VTH0, JAC_COL, JAC_ROW, N_PAR, RES_ROW, mos_stamp, pack_device
from .netlist import (
    GROUND,
    CapElement,
    MosElement,
    Netlist,
    Node,
    ResElement,
    SourceElement,
    with_elements,
)

ABSTOL = 1e-9  # A, node-row residual
RELTOL = 1e-3
VNTOL = 1e-6  # V
MAX_STEP = 0.3  # V per unknown per Newton iteration
MAX_ITER = 100
# Most lanes live at once in the Newton pool.  Memory grows with the live
# lane count, so a longer batch queues and refills the pool as lanes finish.
MAX_LANES = 128

_SINGULAR = "singular system matrix; some node has no conductive path to ground"


class EngineError(Exception):
    pass


class ConvergenceError(EngineError):
    pass


class FloatingNodeError(EngineError):
    pass


@dataclass
class DcSolution:
    voltages: dict[str, float]
    branch_currents: dict[str, float]
    iterations: int
    gmin_ladder: bool  # whether plain Newton failed and the gmin ladder solved it
    max_residual: float  # A, worst node KCL residual at the solution

    def voltage(self, name: str) -> float:
        if name == GROUND:
            return 0.0
        return self.voltages[name]


@dataclass
class SweepResult:
    source_id: str
    values: np.ndarray
    nodes: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray]

    def node(self, name: str) -> np.ndarray:
        if name == GROUND:
            return np.zeros_like(self.values)
        return self.nodes[name]


@dataclass
class TransientResult:
    time: np.ndarray
    nodes: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray]
    # Source drive values sampled at each time point (volts or amps);
    # empty when the result was loaded back from CSV.
    drives: dict[str, np.ndarray] = field(default_factory=dict)

    def node(self, name: str) -> np.ndarray:
        if name == GROUND:
            return np.zeros_like(self.time)
        return self.nodes[name]


def _passed(lanes: int, failed: dict[int, str]) -> np.ndarray:
    """Mask of the lanes, out of `lanes`, that `failed` does not name."""
    ok = np.ones(lanes, dtype=bool)
    ok[list(failed)] = False
    return ok


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each run of equal values in the sorted rows starts, and its value."""
    first = np.ones(rows.shape, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    starts = first.nonzero()[0]
    return starts, rows[starts]


def _row_sums(terms: np.ndarray, runs: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Sum of terms (..., k) over each run of runs, placed at the run's row of
    an (..., n) array whose other rows are zero."""
    starts, rows = runs
    if rows.size == n:  # a run on every row
        return np.add.reduceat(terms, starts, axis=-1)
    out = np.zeros(terms.shape[:-1] + (n,))
    if starts.size:
        out[..., rows] = np.add.reduceat(terms, starts, axis=-1)
    return out


class MnaSystem:
    """Equation assembly for one netlist against one technology card.

    vth_shift maps element ids to additive V_th0 perturbations, or is a list
    of such maps; each map gives one device parameter set, a row of
    par_sets, which lanes pick by index.  Single solves use the first set,
    mos_par.  Degenerate elements (zero geometry or placeholder terminals)
    are left unstamped.
    """

    def __init__(
        self,
        net: Netlist,
        tech: TechnologyParams | None = None,
        vth_shift: dict[str, float] | list[dict[str, float]] | None = None,
    ):
        self.net = net
        self.tech = derive_tech_params(tech if tech is not None else TechnologyParams.default())
        self.vt = self.tech.v_t

        self.nodes = net.named_nodes()
        self.node_index = {name: i for i, name in enumerate(self.nodes)}
        self.n_nodes = len(self.nodes)

        live = [e for e in net.elements if not e.degenerate]
        self.vsources = [e for e in live if isinstance(e, SourceElement) and not e.is_current]
        self.isources = [e for e in live if isinstance(e, SourceElement) and e.is_current]
        self.caps = [e for e in live if isinstance(e, CapElement)]
        resistors = [e for e in live if isinstance(e, ResElement)]
        mos = [e for e in live if isinstance(e, MosElement)]

        self.n_branch = len(self.vsources)
        self.size = self.n_nodes + self.n_branch
        self.ground = self.size  # trailing extended slot
        self.branch_index = {e.id: self.n_nodes + k for k, e in enumerate(self.vsources)}

        shifts = vth_shift if isinstance(vth_shift, list) else [vth_shift or {}]
        if not shifts:
            raise ValueError("need at least one device parameter set")
        self.mos_idx = np.zeros((len(mos), 4), dtype=np.int64)
        par = np.zeros((len(mos), N_PAR))
        for k, m in enumerate(mos):
            par[k] = pack_device(self.tech.device(m.polarity), m.polarity, m.w, m.l, self.vt)
            self.mos_idx[k] = (
                self._slot(m.drain),
                self._slot(m.gate),
                self._slot(m.source),
                self._slot(m.bulk),
            )
        self.par_sets = np.repeat(par[None], len(shifts), axis=0)
        self.par_sets[:, :, COL_VTH0] += np.array(
            [[shift.get(m.id, 0.0) for m in mos] for shift in shifts]
        ).reshape(len(shifts), len(mos))
        self.mos_par = self.par_sets[0]

        # The linear elements' (row, column, value) entries, in the order
        # they accumulate.
        static = []
        for r in resistors:
            if r.value <= 0:
                raise EngineError(f"resistor {r.id} needs a positive value")
            a, b = self._slot(r.n1), self._slot(r.n2)
            gg = 1.0 / r.value
            static += [(a, a, gg), (a, b, -gg), (b, b, gg), (b, a, -gg)]
        for e in self.vsources:
            k = self.branch_index[e.id]
            a, b = self._slot(e.n_plus), self._slot(e.n_minus)
            static += [(a, k, 1.0), (b, k, -1.0), (k, a, 1.0), (k, b, -1.0)]
        rows, cols, vals = np.array(static).reshape(-1, 3).T
        self._overrides: dict[str, float] = {}
        self._plan_step(resistors, (rows * (self.size + 1) + cols).astype(np.int64))
        self.g_static = np.zeros(self._sink + 1)
        np.add.at(self.g_static, self._static_pos, vals)

    def _slot(self, node: Node) -> int:
        if node.is_ground:
            return self.ground
        return self.node_index[node.name]

    def _plan_step(self, resistors: list[ResElement], static_keys: np.ndarray) -> None:
        # Eliminated sources: grounded, and the only grounded source on
        # their node.  sign is +1 when the node is the + terminal.
        size, ground = self.size, self.ground
        drives: dict[int, list[tuple[int, float]]] = {}
        for e in self.vsources:
            a, b = self._slot(e.n_plus), self._slot(e.n_minus)
            if (a == ground) != (b == ground):
                node, sign = (a, 1.0) if b == ground else (b, -1.0)
                drives.setdefault(node, []).append((self.branch_index[e.id], sign))
        fixed = sorted((node, *ks[0]) for node, ks in drives.items() if len(ks) == 1)
        self._drv_node = np.array([f[0] for f in fixed], dtype=np.int64)
        self._drv_branch = np.array([f[1] for f in fixed], dtype=np.int64)
        self._drv_sign = np.array([f[2] for f in fixed])
        eliminated = set(self._drv_node.tolist()) | set(self._drv_branch.tolist())

        # Connected components of the free unknowns (union-find); a driven
        # node or ground joins nothing.
        parent = list(range(size))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def join(slots) -> None:
            free = [root(s) for s in slots if s != ground and s not in eliminated]
            for r in free[1:]:
                parent[r] = root(free[0])

        for row in self.mos_idx.tolist():
            join(row)
        for e in resistors + self.caps:
            join((self._slot(e.n1), self._slot(e.n2)))
        for e in self.vsources:
            k = self.branch_index[e.id]
            if k not in eliminated:
                join((self._slot(e.n_plus), self._slot(e.n_minus), k))
        components: dict[int, list[int]] = {}
        for i in range(size):
            if i not in eliminated:
                components.setdefault(root(i), []).append(i)
        by_size: dict[int, list[list[int]]] = {}
        for members in components.values():
            by_size.setdefault(len(members), []).append(members)

        # The plan: every entry of the Jacobian that can be nonzero, off the
        # ground row and column, as sorted keys row * (n+1) + column.  It
        # holds the linear elements' entries (static_keys), every node's and
        # free unknown's diagonal (for gmin shunts and the bracket), each
        # device's eight targets, and every pair within each capacitor and
        # each block.  A lane's Jacobian is one value per key plus a last
        # slot, the sink, where entries on ground land.
        n_ext = size + 1
        self._free = free = np.array(sorted(set(range(size)) - eliminated), dtype=np.int64)
        blocks = [np.array(by_size[m], dtype=np.int64) for m in sorted(by_size)]
        caps = np.array([(self._slot(c.n1), self._slot(c.n2)) for c in self.caps], dtype=np.int64).reshape(-1, 2)
        terminals = self.mos_idx.T
        parts = [static_keys, np.arange(self.n_nodes) * (n_ext + 1), free * (n_ext + 1)]
        parts += [terminals[JAC_ROW] * n_ext + terminals[JAC_COL]]
        parts += [sq[:, :, None] * n_ext + sq[:, None, :] for sq in [caps] + blocks]
        query = np.concatenate([part.ravel() for part in parts])
        off = (query >= size * n_ext) | (query % n_ext == size)
        keys = np.sort(query[~off])
        self._keys = keys[_runs(keys)[0]]  # deduplicated by hand: np.unique would import numpy.ma
        self._sink = self._keys.size
        pos = np.searchsorted(self._keys, query)
        pos[off] = self._sink
        ends = np.cumsum([part.size for part in parts])
        pos = [pos[end - part.size : end].reshape(part.shape) for part, end in zip(parts, ends)]
        self._static_pos, self._node_diag, self._free_diag, stamp_pos, self._cap_pos, *block_pos = pos
        row, col = np.divmod(self._keys, n_ext)
        self._col, self._row_runs = col, _runs(row)

        # The step's gathers, as positions in a lane's values: each size
        # class of blocks (with their unknowns' positions in the free
        # vector), the free-by-driven coupling, and the rows of the driven
        # nodes, each with its columns and row runs.
        self._blocks = [(idx.shape[1], np.searchsorted(free, idx), idx, at) for idx, at in zip(blocks, block_pos)]
        free_of, drv_of = np.full(size, -1), np.full(size, -1)
        free_of[free], drv_of[self._drv_node] = np.arange(free.size), np.arange(self._drv_node.size)
        at = np.flatnonzero((free_of[row] >= 0) & (drv_of[col] >= 0))
        self._coupling = (at, drv_of[col[at]], _runs(free_of[row[at]]))
        at = np.flatnonzero(drv_of[row] >= 0)
        self._drv_rows = (at, col[at], _runs(drv_of[row[at]]))
        # The stamp's targets: each device's Jacobian entries as positions,
        # and its residual entries as slots.
        self._stamp_at = np.concatenate((stamp_pos, terminals[RES_ROW]))
        # Tolerance of each residual row: KCL in amps, then branch volts.
        self._res_tol = np.where(np.arange(size) < self.n_nodes, ABSTOL, VNTOL)

    # -- source drive -------------------------------------------------

    def set_source(self, source_id: str, value: float) -> None:
        """Override one source's drive, replacing its card waveform."""
        if source_id not in self.branch_index and all(
            e.id != source_id for e in self.isources
        ):
            raise EngineError(f"no stamped source named {source_id!r}")
        self._overrides[source_id] = float(value)

    def _source_value(self, e: SourceElement, t: float) -> float:
        if e.id in self._overrides:
            return self._overrides[e.id]
        return e.value_at(t)

    def rhs(self, t: float = 0.0) -> np.ndarray:
        b = np.zeros(self.size + 1)
        for e in self.vsources:
            b[self.branch_index[e.id]] -= self._source_value(e, t)
        for e in self.isources:
            val = self._source_value(e, t)
            b[self._slot(e.n_plus)] += val
            b[self._slot(e.n_minus)] -= val
        return b

    # -- solving ------------------------------------------------------

    def _linear(self, g: np.ndarray, x_ext: np.ndarray, b: np.ndarray) -> np.ndarray:
        """b plus g @ x_ext over the planned entries of Jacobian values g,
        for one extended state or a stack of lanes."""
        res = b.copy()
        res[..., :-1] += _row_sums(g[:-1] * x_ext.take(self._col, axis=-1), self._row_runs, self.size)
        return res

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        x_ext = np.append(x, 0.0)
        res = self._linear(self.g_static, x_ext, b)
        mos_stamp(x_ext, self.mos_idx, self.mos_par, self.vt, self.g_static.copy(), res, self._stamp_at)
        return res

    def _worst_node(self, res: np.ndarray) -> str:
        if self.n_nodes == 0:
            return "<none>"
        return self.nodes[int(np.argmax(np.abs(res[: self.n_nodes])))]

    def newton_step(self, jac: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Solve J @ delta = -res[:n] over the n unknowns, J the Jacobian
        whose planned entries jac holds.

        jac holds this system's Jacobian values, one per planned entry plus
        the sink, and res its extended residual: one of each or a stack of
        lanes, (lanes, entries + 1) and (lanes, n+1), whose steps come back
        as (lanes, n).  The step is exact: it equals the dense solve to
        rounding.  A singular block raises FloatingNodeError.
        """
        if res.ndim == 1:
            return self.newton_step(jac[None], res[None])[0]
        lanes = res.shape[0]
        # Worked in the negated step e = -delta, which saves negations.
        # Gathers use take, several times faster here than fancy indexing.
        e = np.zeros((lanes, self.size))
        e_drv = res.take(self._drv_branch, axis=1) * self._drv_sign
        e[:, self._drv_node] = e_drv
        at, col, runs = self._coupling
        coupled = jac.take(at, axis=1) * e_drv.take(col, axis=1)
        rhs = res.take(self._free, axis=1) - _row_sums(coupled, runs, self._free.size)
        for m, pos, idx, flat in self._blocks:
            block = jac.take(flat, axis=1)
            if m == 1:
                if not block.all():
                    raise FloatingNodeError(_SINGULAR)
                e[:, idx] = rhs.take(pos, axis=1) / block[..., 0]
                continue
            try:
                e[:, idx] = np.linalg.solve(block, rhs.take(pos, axis=1)[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise FloatingNodeError(_SINGULAR) from exc
        # The eliminated branch entries of e are still zero here, so each
        # driven row's product leaves out its own source's term.
        at, col, runs = self._drv_rows
        row_e = _row_sums(jac.take(at, axis=1) * e.take(col, axis=1), runs, self._drv_node.size)
        e[:, self._drv_branch] = self._drv_sign * (res.take(self._drv_node, axis=1) - row_e)
        return -e

    def _newton_lanes(
        self, x0: np.ndarray, b: np.ndarray, g_dyn: np.ndarray, sets: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Damped Newton on a queue of lanes, x0 (lanes, n) against b
        (lanes, n+1), all sharing g_dyn; sets gives each lane's row of
        par_sets (default the first).  It is the only stage decoupled lanes
        run, and the first of the coupled solves' stages (_solve_lanes).

        At most MAX_LANES lanes are live.  Every iteration stamps them in one
        call; each stops on its own test and its place goes to the next
        queued lane.  A lane that passes returns x plus the step already
        solved at x, which costs no stamp and leaves it converged to
        rounding rather than to the stop tolerance.  A lane fails when its
        step is not finite, after MAX_ITER iterations of its own, or as soon
        as its state, x and the small-step flag, equals its state two
        iterations back.  The iteration is a fixed map of that state, so
        such a lane cycles and can never pass; its message names the node
        that iteration MAX_ITER would have named.  Returns the states, the
        iteration count of each lane, and a failure message for each lane
        that did not converge (its state is then its start).

        In a decoupled system each free unknown's KCL, once the eliminated
        sources' rows hold exactly, is a scalar function of that unknown
        alone, increasing wherever its Jacobian entry is positive; the sign
        of its residual then tells on which side of the state its root lies.
        Each lane keeps that bracket per free unknown, and once the
        residual has changed sign twice, a Newton target outside the
        bracket is replaced by the bracket's midpoint (the safeguard of
        rtsafe, Numerical Recipes section 9.4), so an oscillating lane
        converges instead of cycling.
        """
        n, lanes = self.size, x0.shape[0]
        sets = np.zeros(lanes, dtype=np.int64) if sets is None else sets
        x = np.array(x0, dtype=float)
        its = np.full(lanes, MAX_ITER)
        failed: dict[int, str] = {}
        pool = min(lanes, MAX_LANES)
        bracket = self.decoupled
        if bracket:
            # Per pool slot and free unknown: the bracket, the residual's
            # last nonzero sign, and how often that sign has changed.
            free = self._free
            lo, hi = np.full((pool, free.size), -np.inf), np.full((pool, free.size), np.inf)
            side, flips = np.zeros((pool, free.size)), np.zeros((pool, free.size), dtype=np.int64)
        # One buffer of Jacobian values, reset in place each iteration, and
        # the stamp's targets in it and in the residuals, per pool slot.
        jac_buf = np.empty((pool, g_dyn.size))
        stride = np.repeat([g_dyn.size, n + 1], [8, 2])
        stamp_at = self._stamp_at[:, None, :] + (stride[:, None] * np.arange(pool))[:, :, None]
        # Per pool slot: the live lane's id, iteration count, right-hand
        # side, parameter rows, extended state and whether its last step was
        # small, then its state and residual of the iteration before, NaN
        # (equal to nothing) for an entering lane.  A finished lane's slot
        # takes the next queued lane; once the queue is empty the pool
        # shrinks.
        ids = np.arange(pool)
        count = np.zeros(pool, dtype=np.int64)
        bl, parl = b[ids], self.par_sets[sets[ids]]
        xl = np.concatenate((x[ids], np.zeros((pool, 1))), axis=1)
        small, small_last = np.zeros(pool, dtype=bool), np.zeros(pool, dtype=bool)
        x_last, res_last = np.full((pool, n), np.nan), np.zeros((pool, n + 1))
        queued = pool
        while ids.size:
            count += 1
            jac = jac_buf[: ids.size]
            jac[...] = g_dyn
            res = self._linear(g_dyn, xl, bl)
            mos_stamp(xl, self.mos_idx, parl, self.vt, jac, res, stamp_at[:, : ids.size])
            delta = self.newton_step(jac, res)
            if bracket:
                xf, df = xl.take(free, axis=1), delta.take(free, axis=1)
                known = (res.take(self._drv_branch, axis=1) == 0).all(axis=1)[:, None] & (
                    jac.take(self._free_diag, axis=1) > 0
                )
                s = np.where(known, np.sign(res.take(free, axis=1)), 0.0)
                flips += s * side < 0
                side = np.where(s != 0, s, side)
                hi = np.where(s > 0, np.minimum(hi, xf), hi)
                lo = np.where(s < 0, np.maximum(lo, xf), lo)
                t = xf + df
                out = (flips >= 2) & ((t < lo) | (t > hi))
                if out.any():
                    df[out] = 0.5 * (lo[out] + hi[out]) - xf[out]
                    delta[:, free] = df
            bad = ~np.isfinite(delta).all(axis=1)
            converged = small & ~bad & (np.abs(res[:, :n]) < self._res_tol).all(axis=1)
            applied = np.minimum(np.maximum(delta, -MAX_STEP), MAX_STEP)
            x_new = xl[:, :n] + applied
            tol = RELTOL * np.maximum(np.abs(x_new), np.abs(xl[:, :n])) + VNTOL
            small_new = (np.abs(applied) <= tol).all(axis=1)
            cycled = (x_new == x_last).all(axis=1) & (small_new == small_last)
            stuck = ~converged & ~bad & (cycled | (count >= MAX_ITER))
            done = converged | bad | stuck
            res_before = res_last
            x_last, small_last, res_last = xl[:, :n].copy(), small, res
            xl[:, :n] = x_new
            small = small_new
            if not done.any():
                continue
            x[ids[converged]] = x_new[converged]
            its[ids[converged]] = count[converged]
            failed.update(dict.fromkeys(ids[bad].tolist(), "Newton iteration produced non-finite values"))
            for lane, c, r, r_before in zip(ids[stuck].tolist(), count[stuck], res[stuck], res_before[stuck]):
                # A cycle alternates this state with the one before.
                worst = self._worst_node(r if (MAX_ITER - c) % 2 == 0 else r_before)
                failed[lane] = (
                    f"no convergence within {MAX_ITER} Newton iterations; "
                    f"worst residual at node {worst}"
                )
            vacant = np.flatnonzero(done)
            new = np.arange(queued, min(lanes, queued + vacant.size))
            if new.size:
                queued += new.size
                slots = vacant[: new.size]
                ids[slots], count[slots], bl[slots], parl[slots] = new, 0, b[new], self.par_sets[sets[new]]
                xl[slots, :n], small[slots], x_last[slots], small_last[slots] = x[new], False, np.nan, False
                if bracket:
                    lo[slots], hi[slots], side[slots], flips[slots] = -np.inf, np.inf, 0.0, 0
            if new.size < vacant.size:
                keep = np.ones(ids.size, dtype=bool)
                keep[vacant[new.size :]] = False
                ids, count, bl, parl, xl, small, x_last, small_last, res_last = (
                    a[keep] for a in (ids, count, bl, parl, xl, small, x_last, small_last, res_last)
                )
                if bracket:
                    lo, hi, side, flips = lo[keep], hi[keep], side[keep], flips[keep]
        return x, its, failed

    def _newton(self, x0: np.ndarray, b: np.ndarray, g_dyn: np.ndarray) -> tuple[np.ndarray, int]:
        """One lane of _newton_lanes; raises ConvergenceError on failure."""
        x, its, failed = self._newton_lanes(x0[None], b[None], g_dyn)
        if failed:
            raise ConvergenceError(failed[0])
        return x[0], int(its[0])

    def _gmin_stepping(
        self, x0: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Adaptive gmin stepping on lanes, x0 (lanes, n) against b (lanes,
        n+1): a shunt from every node to ground, relaxed rung by rung, then
        none (the SPICE2 ladder of Nagel, ERL-M520, 1975, with ngspice's
        dynamic step).  Near a bistable trip point the exact Jacobian is
        close to singular and plain Newton wanders; the shunted system stays
        well conditioned, and each rung starts at the state the last passed
        rung accepted, the first at the lane's own start, so the walk stays
        in the caller's basin.

        Each lane starts at 1e-3 S and lowers the shunt by its own step, a
        decade at first.  A passed rung regrows the step by half, to at most
        a decade; a failed rung is retried from the last accepted state with
        half the step, and a lane whose step falls below 0.01 decade fails.
        Once the next shunt would not exceed 1e-12 S the rung has none, and
        passing it ends the walk; a lane that fails it fails at once if half
        its step would still give no shunt.  A lane that fails no rung walks
        the fixed decade ladder.  The lanes at one rung share one
        _newton_lanes call.
        Returns the states, each lane's iteration count over its passed
        rungs, and the failure message of each lane that stalled, whose
        state is then not a solution."""
        lanes = x0.shape[0]
        x = np.array(x0, dtype=float)
        its = np.zeros(lanes, dtype=np.int64)
        failed: dict[int, str] = {}
        # Per lane: the last accepted shunt (the start counts as a decade
        # above the first rung) and the step, in decades, to the next.
        shunt, step = np.full(lanes, 1e-2), np.ones(lanes)
        live = np.arange(lanes)
        while live.size:
            rung = shunt[live] * 10.0 ** -step[live]
            rung[rung <= 1e-12] = 0.0
            for gmin in sorted(set(rung.tolist()), reverse=True):
                at = live[rung == gmin]
                g = self.g_static.copy()
                g[self._node_diag] += gmin
                x[at], n, stuck = self._newton_lanes(x[at], b[at], g)
                ok = _passed(at.size, stuck)
                good, bad = at[ok], at[~ok]
                its[good] += n[ok]
                shunt[good], step[good] = gmin, np.minimum(1.0, 1.5 * step[good])
                step[bad] *= 0.5
                # A lane whose halved step still gives no shunt would repeat
                # the unshunted solve it just failed, from the same state.
                step[bad[shunt[bad] * 10.0 ** -step[bad] <= 1e-12]] = 0.0
                failed.update(
                    dict.fromkeys(bad[step[bad] < 0.01].tolist(), "gmin stepping stalled below the minimum step")
                )
            live = live[(shunt[live] > 0.0) & (step[live] >= 0.01)]
        return x, its, failed

    def _solve_lanes(
        self, x0: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
        """Newton, then gmin stepping, on lanes x0 (lanes, n) against b
        (lanes, n+1): the one stage that coupled solves share.

        Plain Newton runs all lanes through one pool, and the lanes it fails
        walk the adaptive gmin ladder, each from its own start.  Returns the
        states, each lane's iteration count, whether it needed the ladder,
        and the failure message of each lane that stalled on the ladder,
        whose state is then not a solution.
        """
        x, its, stuck = self._newton_lanes(x0, b, self.g_static)
        fallback = ~_passed(x0.shape[0], stuck)
        rescue = np.flatnonzero(fallback)
        if not rescue.size:
            return x, its, fallback, {}
        x[rescue], its[rescue], left = self._gmin_stepping(x0[rescue], b[rescue])
        return x, its, fallback, {int(rescue[j]): msg for j, msg in left.items()}

    def solve_dc_vector(
        self, x0: np.ndarray | None = None, t: float = 0.0
    ) -> tuple[np.ndarray, int, bool]:
        """One DC solution from x0 (default zero): _solve_lanes on one lane.
        Returns the state, its iteration count and whether it needed the
        gmin ladder; a lane that stalls on the ladder raises
        ConvergenceError with its message."""
        start = np.zeros(self.size) if x0 is None else x0
        x, its, fallback, left = self._solve_lanes(start[None], self.rhs(t)[None])
        if left:
            raise ConvergenceError(left[0])
        return x[0], int(its[0]), bool(fallback[0])

    @property
    def decoupled(self) -> bool:
        """Whether every free unknown is a block of its own.  Each then
        solves one scalar KCL, monotone in that unknown, so the system has
        at most one solution at any drive."""
        return all(m == 1 for m, *_ in self._blocks)

    def solve_dc_lanes(
        self, source_id: str, values: np.ndarray, x0: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict[int, EngineError]]:
        """DC solutions, one lane per parameter set and drive value of one
        voltage source, as a (sets, values, n) array, and the
        ConvergenceError of each set in which a lane failed, with the first
        such lane's message and drive (a failed lane's state is its start).
        Every set's lane at point i starts at x0[i], of shape (values, n),
        by default cold: each eliminated source's node at its drive and all
        else zero, or at the nominal lobe's state when x0 holds it.  Lanes
        share no warm start, so this needs a decoupled system, in which no
        lane can choose between two states and the start changes only the
        path to the one solution; any other raises EngineError, as does a
        singular step in any lane.  Each lane is then a bracketed scalar
        root-find, which converges in the pool, so the lanes run plain
        Newton alone, with no fallback."""
        if not self.decoupled:
            raise EngineError("independent lanes need a decoupled system; sweep it instead")
        if source_id not in self.branch_index:
            raise EngineError(f"no stamped voltage source named {source_id!r}")
        k = self.branch_index[source_id]
        sets, points = self.par_sets.shape[0], len(values)
        b = self.rhs()
        b[k] = 0.0
        b = np.repeat(b[None], points, axis=0)
        b[:, k] -= values
        lane_sets = np.repeat(np.arange(sets), points)
        start = x0
        if x0 is None:
            start = np.zeros((points, self.size))
            start[:, self._drv_node] = -b[:, self._drv_branch] * self._drv_sign
        try:
            x, _, failed = self._newton_lanes(
                np.tile(start, (sets, 1)), np.tile(b, (sets, 1)), self.g_static, lane_sets
            )
        except EngineError as exc:
            raise type(exc)(f"{exc} (sweeping {source_id})") from exc
        errors: dict[int, EngineError] = {}
        for lane in sorted(failed):
            if lane // points not in errors:
                msg = f"{failed[lane]} (sweeping {source_id}={values[lane % points]:g})"
                errors[lane // points] = ConvergenceError(msg)
        return x.reshape(sets, points, self.size), errors

    # -- state packing ------------------------------------------------

    def pack_state(self, volts: dict[str, float] | None) -> np.ndarray:
        x = np.zeros(self.size)
        for name, v in (volts or {}).items():
            if name == GROUND:
                continue
            if name not in self.node_index:
                raise EngineError(f"unknown node {name!r} in initial state")
            x[self.node_index[name]] = v
        return x

    def solution(self, x: np.ndarray, iterations: int, gmin_ladder: bool, t: float = 0.0) -> DcSolution:
        volts = {name: float(x[i]) for name, i in self.node_index.items()}
        currents = {sid: float(x[k]) for sid, k in self.branch_index.items()}
        res = self.residual(x, self.rhs(t))
        worst = float(np.abs(res[: self.n_nodes]).max(initial=0.0))
        return DcSolution(volts, currents, iterations, gmin_ladder, worst)


def solve_dc(
    net: Netlist,
    tech: TechnologyParams | None = None,
    vth_shift: dict[str, float] | None = None,
    initial: dict[str, float] | None = None,
) -> DcSolution:
    sys = MnaSystem(net, tech, vth_shift)
    x0 = sys.pack_state(initial) if initial else None
    x, its, ladder = sys.solve_dc_vector(x0=x0)
    return sys.solution(x, its, ladder)


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform grid from `start` toward `stop`, up or down, in
    steps of `step`; the last point lands on `stop` exactly, and is the
    only point when `start` equals `stop`."""
    if not step > 0:
        raise ValueError("sweep step must be positive")
    n = max(1, int(round(abs(stop - start) / step))) if start != stop else 0
    values = start + math.copysign(step, stop - start) * np.arange(n + 1)
    values[-1] = stop
    return values


def dc_sweep(
    net: Netlist,
    source_id: str,
    start: float,
    stop: float,
    step: float,
    tech: TechnologyParams | None = None,
    vth_shift: dict[str, float] | None = None,
    initial: dict[str, float] | None = None,
) -> SweepResult:
    """Sweep one source's drive over an inclusive grid, warm-starting each
    point from the previous solution."""
    sys = MnaSystem(net, tech, vth_shift)
    values = sweep_grid(start, stop, step)
    xs = np.zeros((values.size, sys.size))
    x = sys.pack_state(initial) if initial else None
    for i, v in enumerate(values):
        sys.set_source(source_id, v)
        try:
            x, _, _ = sys.solve_dc_vector(x0=x)
        except EngineError as exc:
            raise type(exc)(f"{exc} (sweeping {source_id}={v:g})") from exc
        xs[i] = x
    nodes = {name: xs[:, k].copy() for name, k in sys.node_index.items()}
    currents = {sid: xs[:, k].copy() for sid, k in sys.branch_index.items()}
    return SweepResult(source_id, values, nodes, currents)


def transient(
    net: Netlist,
    t_stop: float,
    dt: float,
    tech: TechnologyParams | None = None,
    method: str = "be",
    ics: dict[str, float] | None = None,
    vth_shift: dict[str, float] | None = None,
) -> TransientResult:
    """Fixed-step transient; `method` is "be" or "trap".

    `ics` pins the named nodes with temporary voltage sources for the t=0
    solve only; the pins are absent from the time stepping itself.  A bad
    step, a t_stop that rounds to zero steps, to no finite number of them
    or to more than the time grid and state table can hold in this
    machine's physical memory, and an initial condition on a node the
    circuit lacks raise ValueError.
    """
    if dt <= 0 or t_stop <= 0:
        raise ValueError("t_stop and dt must be positive")
    if not math.isfinite(t_stop / dt):
        raise ValueError(f"t_stop {t_stop:g} s is not a finite number of steps of {dt:g} s")
    n_steps = int(round(t_stop / dt))
    if n_steps == 0:
        raise ValueError(f"t_stop {t_stop:g} s rounds to zero steps of {dt:g} s")
    if method not in ("be", "trap"):
        raise ValueError(f"unknown integration method {method!r}")

    sys = MnaSystem(net, tech, vth_shift)
    unknown = sorted(set(ics or ()) - set(sys.node_index))
    if unknown:
        raise ValueError(f"initial condition on unknown node {unknown[0]!r}")
    # The time grid, the state table and the drive table, one float per step
    # each: refused before any of them is allocated if they cannot fit.
    table = 8 * (n_steps + 1) * (1 + sys.size + len(sys.vsources) + len(sys.isources))
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if table > memory:
        raise ValueError(
            f"{n_steps} steps of {dt:g} s need {table / 2**30:.3g} GiB for the time grid and "
            f"state table, more than the {memory / 2**30:.3g} GiB of physical memory"
        )
    for e in sys.vsources + sys.isources:
        if e.kind == "PULSE" and (dt > e.params[3] or dt > e.params[4]):
            warnings.warn(
                f"time step {dt:g} s exceeds a rise/fall time of source {e.id}; "
                "edges will be under-resolved",
                stacklevel=2,
            )

    if ics:
        pins = [
            SourceElement(f"VIC{i}", Node(name), Node(GROUND), "DC", (float(v),))
            for i, (name, v) in enumerate(ics.items())
        ]
        pinned = solve_dc(with_elements(net, pins), tech, vth_shift=vth_shift)
        x0 = sys.pack_state({n: pinned.voltages[n] for n in sys.nodes})
        for sid, k in sys.branch_index.items():
            x0[k] = pinned.branch_currents[sid]
    else:
        x0, _, _ = sys.solve_dc_vector(t=0.0)

    times = np.arange(n_steps + 1) * dt
    # One row per unknown, so each waveform is a row of this one table.
    xs = np.zeros((sys.size, n_steps + 1))
    xs[:, 0] = x0

    # Every source's drive at every time point, a DC one evaluated once;
    # each step's right-hand side is built from this table, and it is the
    # result's drives.  Voltage drives enter their branch rows negated;
    # current drives enter their two nodes in source order.
    drives = {
        e.id: np.full(times.size, e.value_at(0.0))
        if e.kind == "DC"
        else np.array([e.value_at(t) for t in times])
        for e in sys.vsources + sys.isources
    }
    v_rows = np.array([sys.branch_index[e.id] for e in sys.vsources], dtype=np.int64)
    v_drive = np.array([drives[e.id] for e in sys.vsources]).reshape(v_rows.size, times.size).T
    i_rows = np.array(
        [sys._slot(node) for e in sys.isources for node in (e.n_plus, e.n_minus)], dtype=np.int64
    )
    i_drive = np.array(
        [sign * drives[e.id] for e in sys.isources for sign in (1.0, -1.0)]
    ).reshape(i_rows.size, times.size).T

    cap_a = np.array([sys._slot(c.n1) for c in sys.caps], dtype=np.int64)
    cap_b = np.array([sys._slot(c.n2) for c in sys.caps], dtype=np.int64)
    cap_c = np.array([c.value for c in sys.caps])
    # Scatter targets interleaved per capacitor, so shared slots accumulate
    # in capacitor order.
    cap_ab = np.stack((cap_a, cap_b), axis=1).reshape(-1)
    cap_pos = sys._cap_pos[:, [0, 0, 1, 1], [0, 1, 1, 0]].reshape(-1)

    def companion_matrix(factor: float) -> np.ndarray:
        g = sys.g_static.copy()
        geq = factor * cap_c
        np.add.at(g, cap_pos, np.stack((geq, -geq, geq, -geq), axis=1).reshape(-1))
        return g

    factor = 2.0 / dt if method == "trap" else 1.0 / dt
    g_dyn = companion_matrix(factor)
    # The trapezoidal companion needs each capacitor's branch current from
    # the previous step, which the t = 0 solve does not provide; the first
    # step runs backward Euler to seed it.  One first-order step leaves the
    # global order at two.
    g_start = companion_matrix(1.0 / dt) if method == "trap" else g_dyn

    i_hist = np.zeros(cap_c.size)  # trapezoidal branch-current history
    x = x0.copy()
    for k in range(1, n_steps + 1):
        startup = method == "trap" and k == 1
        fac_k = 1.0 / dt if startup else factor
        b_vec = np.zeros(sys.size + 1)
        b_vec[v_rows] -= v_drive[k]
        np.add.at(b_vec, i_rows, i_drive[k])
        x_ext_prev = np.append(x, 0.0)
        v_prev = x_ext_prev[cap_a] - x_ext_prev[cap_b]
        hist = fac_k * cap_c * v_prev
        if method == "trap" and not startup:
            hist += i_hist
        np.add.at(b_vec, cap_ab, np.stack((-hist, hist), axis=1).reshape(-1))
        try:
            x, _ = sys._newton(x, b_vec, g_start if startup else g_dyn)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} (at t={times[k]:g} s)") from exc
        if method == "trap":
            x_ext = np.append(x, 0.0)
            dv = (x_ext[cap_a] - x_ext[cap_b]) - v_prev
            if startup:
                i_hist = cap_c * dv / dt
            else:
                i_hist = factor * cap_c * dv - i_hist
        xs[:, k] = x

    nodes = {name: xs[i] for name, i in sys.node_index.items()}
    currents = {sid: xs[i] for sid, i in sys.branch_index.items()}
    return TransientResult(times, nodes, currents, drives)


# -- CSV export -------------------------------------------------------


def _write_columns(out, first_name: str, first_col: np.ndarray, result) -> None:
    writer = csv.writer(out)
    writer.writerow(
        [first_name]
        + [f"V({n})" for n in result.nodes]
        + [f"I({s})" for s in result.branch_currents]
    )
    cols = list(result.nodes.values()) + list(result.branch_currents.values())
    for i in range(first_col.size):
        writer.writerow([repr(float(first_col[i]))] + [repr(float(c[i])) for c in cols])


def _open_for(dest):
    if isinstance(dest, (str,)) or hasattr(dest, "__fspath__"):
        return open(dest, "w", newline=""), True
    return dest, False


def sweep_to_csv(result: SweepResult, dest) -> None:
    out, owned = _open_for(dest)
    try:
        _write_columns(out, result.source_id, result.values, result)
    finally:
        if owned:
            out.close()


def waveform_to_csv(result: TransientResult, dest) -> None:
    out, owned = _open_for(dest)
    try:
        _write_columns(out, "time", result.time, result)
    finally:
        if owned:
            out.close()


def waveform_from_csv(src) -> TransientResult:
    """Read back a waveform CSV written by waveform_to_csv."""
    if isinstance(src, (str,)) or hasattr(src, "__fspath__"):
        with open(src, newline="") as fh:
            text = fh.read()
    else:
        text = src.read()
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("needs a header row and at least one data row")
    header, data = rows[0], np.array([[float(v) for v in row] for row in rows[1:]])
    nodes: dict[str, np.ndarray] = {}
    currents: dict[str, np.ndarray] = {}
    for j, name in enumerate(header[1:], start=1):
        if name.startswith("V(") and name.endswith(")"):
            nodes[name[2:-1]] = data[:, j]
        elif name.startswith("I(") and name.endswith(")"):
            currents[name[2:-1]] = data[:, j]
        else:
            nodes[name] = data[:, j]
    return TransientResult(data[:, 0], nodes, currents)
