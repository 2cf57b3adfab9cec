"""Modified-nodal-analysis solver.

DC operating points use damped Newton iteration with an adaptive
gmin-stepping fallback; sweeps warm-start each point from the last;
transient runs fixed-step backward Euler (default) or trapezoidal companions
for the capacitors.  The Newton loop runs on lanes, a stack of states of one
system each with its own right-hand side, linear Jacobian and device
parameter set, so that many independent points (every sample's butterfly
lobe grid) share every device evaluation; a single solve or transient step
is one lane.  Drives are data: rhs builds the right-hand sides of any source
values, one row per value, and nothing sets a drive on the system itself.
Lanes queue for a pool of at most MAX_LANES live ones, and each lane that
finishes hands its place to the next in the queue.  Every DC solve goes
through one driver, solve_lanes, whose cold lanes start with every driven
node at its drive.  It runs plain Newton on every lane, and the lanes
Newton fails walk the gmin ladder, each from its own start with its own
parameter set and step; each round is one Newton call with every lane at
its own rung.  In a decoupled system, where every free unknown is a block
of its own, each lane is a set of bracketed scalar root-finds: a Newton
target that leaves the bracket the residual signs give falls back to the
bracket's midpoint, so such lanes mostly converge in the pool.  A lane
whose solution lies further than MAX_ITER clipped steps of MAX_STEP from
its start still needs the ladder, whose rungs each bring their own
iterations.
Unknown ordering is named nodes first, in netlist first-use order, then one
branch current per voltage source.  Extended vectors carry a trailing ground
slot pinned at zero so every stamp writes unconditionally.

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

A backward-Euler step whose drives equal the step before's, once the node
moves have contracted to a geometric tail within VNTOL, is latent: it keeps
the state of the step before and solves nothing (see transient).
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
    iterations: int  # Newton iterations (stamps) to the solution, the passing one included
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

    def rhs(self, t: float = 0.0, drive: dict[str, float | np.ndarray] | None = None) -> np.ndarray:
        """Extended right-hand side: each source at drive[id] where drive
        names it, else at its card waveform's value at t.  A drive value may
        be an array; the right-hand sides then stack, one row per value, as
        (values, n+1).  Voltage drives enter their branch rows negated,
        current drives their two nodes, in source order."""
        drive = drive or {}
        stamped = {e.id for e in self.vsources + self.isources}
        unknown = sorted(set(drive) - stamped)
        if unknown:
            raise EngineError(f"no stamped source named {unknown[0]!r}")
        b = np.zeros(np.broadcast_shapes(*map(np.shape, drive.values())) + (self.size + 1,))
        for e in self.vsources:
            b[..., self.branch_index[e.id]] -= drive[e.id] if e.id in drive else e.value_at(t)
        for e in self.isources:
            val = drive[e.id] if e.id in drive else e.value_at(t)
            b[..., self._slot(e.n_plus)] += val
            b[..., self._slot(e.n_minus)] -= val
        return b

    # -- solving ------------------------------------------------------

    def _linear(self, g: np.ndarray, x_ext: np.ndarray, b: np.ndarray) -> np.ndarray:
        """b plus g @ x_ext over the planned entries of Jacobian values g,
        for one extended state or a stack of lanes, each with its own g or
        all sharing one."""
        res = b.copy()
        res[..., :-1] += _row_sums(g[..., :-1] * x_ext.take(self._col, axis=-1), self._row_runs, self.size)
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

    @np.errstate(invalid="ignore", over="ignore")
    def newton_step(self, jac: np.ndarray, res: np.ndarray) -> np.ndarray:
        """Solve J @ delta = -res[:n] over the n unknowns, J the Jacobian
        whose planned entries jac holds.

        jac holds this system's Jacobian values, one per planned entry plus
        the sink, and res its extended residual: one of each or a stack of
        lanes, (lanes, entries + 1) and (lanes, n+1), whose steps come back
        as (lanes, n).  The step is exact: it equals the dense solve to
        rounding.  A singular block raises FloatingNodeError; a nearly
        singular one may give a non-finite step, without a warning.
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
        self, x0: np.ndarray, b: np.ndarray, g: np.ndarray, sets: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Damped Newton on a queue of lanes, x0 (lanes, n) against b
        (lanes, n+1), with linear Jacobian values g, one row shared by all
        lanes, (entries+1,), or one per lane, (lanes, entries+1); sets
        gives each lane's row of par_sets (default the first).  It is the
        plain Newton of every DC solve (solve_lanes), the only stage
        decoupled lanes run, each round of the gmin ladder, and each
        transient step.

        At most MAX_LANES lanes are live.  Every iteration stamps them in one
        call; each stops on its own test and its place goes to the next
        queued lane.  A lane passes when its residual at x is within
        tolerance and the clipped step solved at x is small (Deuflhard 2004,
        section 2.1), and returns x plus that step, converged to rounding;
        a lane that starts at its solution costs one stamp.  A lane fails
        when its step is not finite, after MAX_ITER iterations, or once x
        plus its step is its x of the iteration before: the iteration is a
        fixed map of x, so it cycles and can never pass.  Its message names
        the node iteration MAX_ITER would have named.  Returns the states,
        each lane's iteration count (its stamps), and a failure message for
        each lane that did not converge (its state is then its start).

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
        g = np.broadcast_to(g, (lanes, g.shape[-1]))  # a view: rows are gathered as lanes enter
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
        jac_buf = np.empty((pool, g.shape[-1]))
        stride = np.repeat([g.shape[-1], n + 1], [8, 2])
        stamp_at = self._stamp_at[:, None, :] + (stride[:, None] * np.arange(pool))[:, :, None]
        # Per pool slot: the live lane's id, iteration count, right-hand
        # side, linear Jacobian, parameter rows and extended state, then its
        # state and residual of the iteration before, NaN (equal to nothing)
        # for an entering lane.  A finished lane's slot takes the next queued
        # lane; once the queue is empty the pool shrinks.
        ids = np.arange(pool)
        count = np.zeros(pool, dtype=np.int64)
        bl, gl, parl = b[ids], g[ids], self.par_sets[sets[ids]]
        xl = np.concatenate((x[ids], np.zeros((pool, 1))), axis=1)
        x_last, res_last = np.full((pool, n), np.nan), np.zeros((pool, n + 1))
        queued = pool
        while ids.size:
            count += 1
            jac = jac_buf[: ids.size]
            jac[...] = gl
            res = self._linear(gl, xl, bl)
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
            applied = np.minimum(np.maximum(delta, -MAX_STEP), MAX_STEP)
            x_new = xl[:, :n] + applied
            tol = RELTOL * np.maximum(np.abs(x_new), np.abs(xl[:, :n])) + VNTOL
            small = (np.abs(applied) <= tol).all(axis=1)
            converged = small & ~bad & (np.abs(res[:, :n]) < self._res_tol).all(axis=1)
            cycled = (x_new == x_last).all(axis=1)
            stuck = ~converged & ~bad & (cycled | (count >= MAX_ITER))
            done = converged | bad | stuck
            res_before = res_last
            x_last, res_last = xl[:, :n].copy(), res
            xl[:, :n] = x_new
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
                ids[slots], count[slots], bl[slots], gl[slots] = new, 0, b[new], g[new]
                parl[slots] = self.par_sets[sets[new]]
                xl[slots, :n], x_last[slots] = x[new], np.nan
                if bracket:
                    lo[slots], hi[slots], side[slots], flips[slots] = -np.inf, np.inf, 0.0, 0
            if new.size < vacant.size:
                keep = np.ones(ids.size, dtype=bool)
                keep[vacant[new.size :]] = False
                ids, count, bl, gl, parl, xl, x_last, res_last = (
                    a[keep] for a in (ids, count, bl, gl, parl, xl, x_last, res_last)
                )
                if bracket:
                    lo, hi, side, flips = lo[keep], hi[keep], side[keep], flips[keep]
        return x, its, failed

    def _gmin_stepping(
        self, x0: np.ndarray, b: np.ndarray, sets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Adaptive gmin stepping on lanes, x0 (lanes, n) against b (lanes,
        n+1), each lane with its row sets of par_sets: the lanes that
        solve_lanes's plain Newton fails.  A shunt from every node to ground
        is relaxed rung by rung, then none (the SPICE2 ladder of Nagel,
        ERL-M520, 1975, with ngspice's dynamic step).  Near a bistable trip
        point the exact Jacobian is close to singular and plain Newton
        wanders; the shunted system stays well conditioned, and each rung
        starts at the state the last passed rung accepted, the first at the
        lane's own start, so the walk stays in the caller's basin.

        Each lane starts at 1e-3 S and lowers the shunt by its own step, a
        decade at first.  A passed rung regrows the step by half, to at most
        a decade; a failed rung is retried from the last accepted state with
        half the step, and a lane whose step falls below 0.01 decade fails.
        Once the next shunt would not exceed 1e-12 S the rung has none, and
        passing it ends the walk; a lane that fails it fails at once if half
        its step would still give no shunt.  A lane that fails no rung walks
        the fixed decade ladder.  Each round is one _newton_lanes call, every
        live lane at its own rung.
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
            g = np.repeat(self.g_static[None], live.size, axis=0)
            g[:, self._node_diag] += rung[:, None]
            x[live], n, stuck = self._newton_lanes(x[live], b[live], g, sets[live])
            ok = _passed(live.size, stuck)
            good, bad = live[ok], live[~ok]
            its[good] += n[ok]
            shunt[good], step[good] = rung[ok], np.minimum(1.0, 1.5 * step[good])
            step[bad] *= 0.5
            # A lane whose halved step still gives no shunt would repeat the
            # unshunted solve it just failed, from the same state.
            step[bad[shunt[bad] * 10.0 ** -step[bad] <= 1e-12]] = 0.0
            failed.update(
                dict.fromkeys(bad[step[bad] < 0.01].tolist(), "gmin stepping stalled below the minimum step")
            )
            live = live[(shunt[live] > 0.0) & (step[live] >= 0.01)]
        return x, its, failed

    def solve_lanes(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        sets: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
        """DC solutions of lanes against b (lanes, n+1): the one driver of
        every DC solve.  Each lane starts at x0, (lanes, n) or one (n,) state
        they all share, by default cold (each eliminated source's node at
        its drive, all else zero), with its row sets of par_sets (default
        the first).  Plain Newton runs every lane, and the lanes it fails
        walk the gmin ladder from their own starts.  A decoupled system has
        at most one solution, so the ladder cannot move its lane into
        another basin, but a lane further than MAX_ITER steps of MAX_STEP
        from it still needs the ladder.  Returns the states, each
        lane's iteration count, whether it walked the ladder, and the
        message of each lane that failed, whose state is then not a
        solution.  A singular step raises FloatingNodeError."""
        lanes = b.shape[0]
        if x0 is None:
            x0 = np.zeros((lanes, self.size))
            x0[:, self._drv_node] = -b[:, self._drv_branch] * self._drv_sign
        x0 = np.broadcast_to(x0, (lanes, self.size))
        sets = np.zeros(lanes, dtype=np.int64) if sets is None else sets
        x, its, failed = self._newton_lanes(x0, b, self.g_static, sets)
        ladder = ~_passed(lanes, failed)
        rescue = np.flatnonzero(ladder)
        if rescue.size:
            x[rescue], its[rescue], left = self._gmin_stepping(x0[rescue], b[rescue], sets[rescue])
            failed = {int(rescue[j]): msg for j, msg in left.items()}
        return x, its, ladder, failed

    def solve_dc_vector(
        self, x0: np.ndarray | None = None, b: np.ndarray | None = None
    ) -> tuple[np.ndarray, int, bool]:
        """One DC solution from x0 (default zero) against the right-hand
        side b (default rhs(), every source at its card value):
        solve_lanes on one lane.  Returns the state, its iteration count
        and whether it needed the gmin ladder; a lane that fails raises
        ConvergenceError with its message."""
        start = np.zeros(self.size) if x0 is None else x0
        b = self.rhs() if b is None else b
        x, its, ladder, failed = self.solve_lanes(b[None], start)
        if failed:
            raise ConvergenceError(failed[0])
        return x[0], int(its[0]), bool(ladder[0])

    @property
    def decoupled(self) -> bool:
        """Whether every free unknown is a block of its own.  Each then
        solves one scalar KCL, monotone in that unknown, so the system has
        at most one solution at any drive."""
        return all(m == 1 for m, *_ in self._blocks)

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

    def solution(self, x: np.ndarray, iterations: int, gmin_ladder: bool) -> DcSolution:
        volts = {name: float(x[i]) for name, i in self.node_index.items()}
        currents = {sid: float(x[k]) for sid, k in self.branch_index.items()}
        res = self.residual(x, self.rhs())
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


def _refuse_beyond_memory(nbytes: int, what: str, tables: str) -> None:
    """Raise ValueError if tables of nbytes, for `what`, cannot fit in this
    machine's physical memory; called before any of them is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ValueError(
            f"{what} need {nbytes / 2**30:.3g} GiB for {tables}, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )


def _sweep_points(start: float, stop: float, step: float) -> int:
    """The number of points sweep_grid gives; a bound or step that gives no
    finite number of them raises ValueError."""
    if not step > 0:
        raise ValueError("sweep step must be positive")
    steps = abs(stop - start) / step
    if not (math.isfinite(steps) and math.isfinite(step)):
        raise ValueError(f"a sweep from {start:g} to {stop:g} in steps of {step:g} has no finite number of points")
    return max(1, int(round(steps))) + 1 if start != stop else 1


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive uniform grid from `start` toward `stop`, up or down, in
    steps of `step`; the last point lands on `stop` exactly, and is the
    only point when `start` equals `stop`.  A grid of no finite number of
    points, or larger than this machine's physical memory, raises ValueError."""
    points = _sweep_points(start, stop, step)
    _refuse_beyond_memory(8 * points, f"{points:g} sweep points", "the grid")
    values = start + math.copysign(step, stop - start) * np.arange(points)
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
    point from the previous solution.  A grid that sweep_grid refuses, or
    whose tables cannot fit in physical memory, raises ValueError."""
    sys = MnaSystem(net, tech, vth_shift)
    # The grid, the right-hand side and state tables, and the result's copy
    # of each unknown: refused before any of them is allocated if they
    # cannot fit.
    points = _sweep_points(start, stop, step)
    _refuse_beyond_memory(
        8 * points * (3 * sys.size + 2), f"{points:g} sweep points", "the grid, right-hand side and state tables"
    )
    values = sweep_grid(start, stop, step)
    x = sys.pack_state(initial) if initial else None
    xs = _warm_sweep(sys, x, sys.rhs(drive={source_id: values}), values, source_id)
    nodes = {name: xs[:, k].copy() for name, k in sys.node_index.items()}
    currents = {sid: xs[:, k].copy() for sid, k in sys.branch_index.items()}
    return SweepResult(source_id, values, nodes, currents)


def _warm_sweep(sys: MnaSystem, x: np.ndarray | None, b: np.ndarray, values: np.ndarray, label: str) -> np.ndarray:
    """The states of a sweep, (points, n): each right-hand side of b solved
    in turn from the state before, the first from x (None: zero).  A failed
    point raises its error, annotated with `label` at its value."""
    xs = np.zeros((values.size, sys.size))
    for i, v in enumerate(values):
        try:
            x, _, _ = sys.solve_dc_vector(x, b[i])
        except EngineError as exc:
            raise type(exc)(f"{exc} (sweeping {label}={v:g})") from exc
        xs[i] = x
    return xs


def _latent(v: np.ndarray) -> bool:
    """Whether node voltages v, (nodes, 3) over the last three steps, have
    settled: the geometric tail d1 rho / (1 - rho) = d1^2 / (d0 - d1), rho
    = d1 / d0, that the moves left would sum to is within VNTOL, with d1
    the last step's largest move and d0 the largest move before.  It holds
    when d1 is zero, and never unless d1 < d0: a constant or growing drift
    never settles.  Nodes relax at rates of their own, so each node whose
    move shrinks must also have its own tail within VNTOL; the others are
    bounded by the largest move's."""
    d0, d1 = np.abs(np.diff(v, axis=1)).T
    big0, big1 = d0.max(initial=0.0), d1.max(initial=0.0)
    shrinks = d1 < d0
    each = (d1[shrinks] ** 2 <= VNTOL * (d0 - d1)[shrinks]).all()
    return bool(big1 * big1 <= VNTOL * (big0 - big1) and each)


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

    A backward-Euler step k is latent when every source drive equals step
    k-1's and _latent holds on the node voltages of steps k-3 to k-1: the
    geometric tail of their moves is within VNTOL.  A latent step copies
    the state of step k-1, node voltages and branch currents, and makes no
    stamp and no Newton call; the next step then sees no move and stays
    latent until a drive changes.  Trapezoidal steps are always solved,
    since their companions carry each capacitor's current from the step
    before, which a copied state would freeze.

    `ics` pins the named nodes with temporary voltage sources for the t=0
    solve only; the pins are absent from the time stepping itself.  A bad
    step, a t_stop that rounds to zero steps, to no finite number of them
    or to more than the time grid and the per-step tables can hold in this
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
    # The time grid, the state table, the drive table and the right-hand
    # side table, one row per step each: refused before any of them is
    # allocated if they cannot fit.
    table = 8 * (n_steps + 1) * (2 + 2 * sys.size + len(sys.vsources) + len(sys.isources))
    _refuse_beyond_memory(table, f"{n_steps} steps of {dt:g} s", "the time grid, state and drive tables")
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
        x0, _, _ = sys.solve_dc_vector()

    times = np.arange(n_steps + 1) * dt
    # One row per unknown, so each waveform is a row of this one table.
    xs = np.zeros((sys.size, n_steps + 1))
    xs[:, 0] = x0

    # Every source's drive at every time point, a DC one evaluated once: the
    # result's drives, and the right-hand side of every step, one row each.
    drives = {
        e.id: np.full(times.size, e.value_at(0.0))
        if e.kind == "DC"
        else np.array([e.value_at(t) for t in times])
        for e in sys.vsources + sys.isources
    }
    b_steps = np.broadcast_to(sys.rhs(drive=drives), (times.size, sys.size + 1))

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

    # A backward-Euler step whose right-hand side, before the capacitor
    # history, equals the step before's may be latent (see _latent).
    held = np.zeros(times.size, dtype=bool)
    if method == "be":
        held[1:] = (b_steps[1:] == b_steps[:-1]).all(axis=1)

    i_hist = np.zeros(cap_c.size)  # trapezoidal branch-current history
    x = x0.copy()
    for k in range(1, n_steps + 1):
        if held[k] and k >= 3 and _latent(xs[: sys.n_nodes, k - 3 : k]):
            xs[:, k] = x
            continue
        startup = method == "trap" and k == 1
        fac_k = 1.0 / dt if startup else factor
        b_vec = b_steps[k].copy()
        x_ext_prev = np.append(x, 0.0)
        v_prev = x_ext_prev[cap_a] - x_ext_prev[cap_b]
        hist = fac_k * cap_c * v_prev
        if method == "trap" and not startup:
            hist += i_hist
        np.add.at(b_vec, cap_ab, np.stack((-hist, hist), axis=1).reshape(-1))
        (x,), _, failed = sys._newton_lanes(x[None], b_vec[None], g_start if startup else g_dyn)
        if failed:
            raise ConvergenceError(f"{failed[0]} (at t={times[k]:g} s)")
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
