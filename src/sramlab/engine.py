"""Modified-nodal-analysis solver.

DC operating points use damped Newton iteration with an adaptive
gmin-stepping fallback; sweeps warm-start only a coupled system's points;
transient runs fixed-step backward Euler (default) or trapezoidal companions
for the capacitors.  An MnaSystem is the circuit alone, and the Newton loop
runs on lanes, a stack of its states each with its own right-hand side and
row of V_th0 shifts, so that many independent points (every sample's
butterfly lobe grid) share every device evaluation; a single solve or
transient step is one lane.  Drives and shifts are data: rhs builds the
right-hand sides of any source values, one row per value, and nothing sets
a drive or a device parameter on the system itself.
Lanes queue for a pool of at most MAX_LANES live ones, and each lane that
finishes hands its place to the next in the queue.  Every solve, DC or
transient step, goes through one driver, solve_lanes, whose cold lanes
start with every driven node at its drive.  It runs plain Newton on every
lane, and the lanes Newton fails walk the gmin ladder, each with its own
shifts and step; each round is one Newton call with every lane's rung a
row of shunts.  A lane the ladder fails too gets the one failure message,
naming its worst-residual node.  In a decoupled system, where every free
unknown is a block of its own, each lane is a set of bracketed scalar
root-finds: a Newton target that leaves the bracket the residual signs
give falls back to the bracket's midpoint, so such lanes mostly converge
in the pool.  A lane whose solution lies further than MAX_ITER clipped
steps of MAX_STEP from its start still needs the ladder.
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

A device writes only its drain's and source's rows.  One whose drain and
source both lie on ground or a driven node is inert: it feeds nothing but
the eliminated sources' branch currents and cannot move a free unknown.
Each system marks its inert devices once, from structure alone, and Newton
stamps the active devices only, so the branch currents it returns leave
them out: a caller that reads branch currents has add_inert_currents add
them, and a butterfly, which reads node voltages alone, never does.
residual still counts every device.

A backward-Euler step whose drives equal the step before's, once the node
moves have contracted to a geometric tail within VNTOL, is latent: it keeps
the state of the step before and solves nothing (see transient).
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .devices import TechnologyParams, derive_tech_params
from .kernels import COL_VTH0, JAC_COL, JAC_ROW, N_PAR, RES_ROW, mos_eval, mos_stamp, pack_device
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
from .report import read_columns, write_columns

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
    """Equation assembly for one netlist against one technology card: the
    circuit alone.  mos_par holds one parameter row per live transistor, in
    card order; what varies per solve (drives, V_th0 shifts, gmin shunts)
    is lane data passed to solve_lanes and sweep.  Degenerate elements
    (zero geometry or placeholder terminals) are left unstamped.
    """

    def __init__(self, net: Netlist, tech: TechnologyParams | None = None):
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

        # Each element's terminal slots, one row per element in list order:
        # the devices', the capacitors' (transient's too), the resistors'
        # and the voltage sources'.
        self.mos_idx, self._cap_slots, res_slots, src_slots = (
            np.array([[self._slot(n) for n in e.nodes] for e in group], dtype=np.int64).reshape(-1, width)
            for group, width in ((mos, 4), (self.caps, 2), (resistors, 2), (self.vsources, 2))
        )
        res_slots, src_slots = res_slots.tolist(), src_slots.tolist()
        self.mos_par = np.zeros((len(mos), N_PAR))
        for k, m in enumerate(mos):
            self.mos_par[k] = pack_device(self.tech.device(m.polarity), m.polarity, m.w, m.l, self.vt)

        # The linear elements' (row, column, value) entries, in the order
        # they accumulate.
        static = []
        for r, (a, b) in zip(resistors, res_slots):
            if r.value <= 0:
                raise ValueError(f"resistor {r.id} needs a positive value")
            gg = 1.0 / r.value
            static += [(a, a, gg), (a, b, -gg), (b, b, gg), (b, a, -gg)]
        for k, (a, b) in enumerate(src_slots, start=self.n_nodes):
            static += [(a, k, 1.0), (b, k, -1.0), (k, a, 1.0), (k, b, -1.0)]
        rows, cols, vals = np.array(static).reshape(-1, 3).T
        self._plan_step(res_slots, src_slots, (rows * (self.size + 1) + cols).astype(np.int64))
        self.g_static = np.zeros(self._sink + 1)
        np.add.at(self.g_static, self._static_pos, vals)

        # The inert devices, drain and source both on ground or a driven
        # node, and the active ones' selector and rows of the arrays Newton
        # stamps: the full arrays themselves when none is inert.
        fixed = np.zeros(self.size + 1, dtype=bool)
        fixed[self._drv_node] = fixed[self.ground] = True
        inert = fixed[self.mos_idx[:, RES_ROW]].all(axis=1)
        self._inert = np.flatnonzero(inert)
        self._active, self._active_idx, self._active_par, self._active_at = (
            (~inert, self.mos_idx[~inert], self.mos_par[~inert], self._stamp_at[:, ~inert])
            if self._inert.size
            else (slice(None), self.mos_idx, self.mos_par, self._stamp_at)
        )

    def _slot(self, node: Node) -> int:
        if node.is_ground:
            return self.ground
        return self.node_index[node.name]

    def _plan_step(self, res_slots: list[list[int]], src_slots: list[list[int]], static_keys: np.ndarray) -> None:
        # Eliminated sources: grounded, and the only grounded source on
        # their node.  sign is +1 when the node is the + terminal.
        size, ground = self.size, self.ground
        drives: dict[int, list[tuple[int, float]]] = {}
        for k, (a, b) in enumerate(src_slots, start=self.n_nodes):
            if (a == ground) != (b == ground):
                node, sign = (a, 1.0) if b == ground else (b, -1.0)
                drives.setdefault(node, []).append((k, sign))
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

        for row in self.mos_idx.tolist() + res_slots + self._cap_slots.tolist():
            join(row)
        for k, (a, b) in enumerate(src_slots, start=self.n_nodes):
            if k not in eliminated:
                join((a, b, k))
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
        terminals = self.mos_idx.T
        parts = [static_keys, np.arange(self.n_nodes) * (n_ext + 1), free * (n_ext + 1)]
        parts += [terminals[JAC_ROW] * n_ext + terminals[JAC_COL]]
        parts += [sq[:, :, None] * n_ext + sq[:, None, :] for sq in [self._cap_slots] + blocks]
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
        # Decoupled: every free unknown is a block of its own.  Each then
        # solves one scalar KCL, monotone in that unknown, so the system has
        # at most one solution at any drive.
        self.decoupled = set(by_size) <= {1}
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

    def rhs(self, drive: dict[str, float | np.ndarray] | None = None) -> np.ndarray:
        """Extended right-hand side: each source at drive[id] where drive
        names it, else at its card waveform's value at t = 0.  A drive value
        may be an array; the right-hand sides then stack, one row per value,
        as (values, n+1).  Voltage drives enter their branch rows negated,
        current drives their two nodes, in source order."""
        drive = drive or {}
        stamped = {e.id for e in self.vsources + self.isources}
        unknown = sorted(set(drive) - stamped)
        if unknown:
            raise ValueError(f"no stamped source named {unknown[0]!r}")
        b = np.zeros(np.broadcast_shapes(*map(np.shape, drive.values())) + (self.size + 1,))
        for k, e in enumerate(self.vsources, start=self.n_nodes):
            b[..., k] -= drive[e.id] if e.id in drive else e.value_at(0.0)
        for e in self.isources:
            val = drive[e.id] if e.id in drive else e.value_at(0.0)
            plus, minus = map(self._slot, e.nodes)
            b[..., plus] += val
            b[..., minus] -= val
        return b

    # -- solving ------------------------------------------------------

    def _linear(self, g: np.ndarray, x_ext: np.ndarray, b: np.ndarray) -> np.ndarray:
        """b plus g @ x_ext over the planned entries of Jacobian values g,
        for one extended state or a stack of lanes, each with its own g."""
        res = b.copy()
        res[..., :-1] += _row_sums(g[..., :-1] * x_ext.take(self._col, axis=-1), self._row_runs, self.size)
        return res

    def residual(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Extended residual of state x against b, over every device, inert
        ones included."""
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
        the sink, and res its extended residual, each a stack of lanes,
        (lanes, entries + 1) and (lanes, n+1), whose steps come back as
        (lanes, n).  The step is exact: it equals the dense solve to
        rounding.  A singular block raises FloatingNodeError; a nearly
        singular one may give a non-finite step, without a warning.
        """
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
        self, x0: np.ndarray, b: np.ndarray, g: np.ndarray, vth: np.ndarray, shunt: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Damped Newton on a queue of lanes, x0 (lanes, n) against b
        (lanes, n+1), with linear Jacobian values g, one row all lanes
        share, each lane's V_th0 shifts vth (see solve_lanes) and its shunt
        from every node to ground, (lanes,), on g's node diagonals (default
        none).  It is the plain Newton of every solve_lanes call, the only
        stage decoupled lanes run, and each round of the gmin ladder, the
        one caller that passes shunt; nothing else calls it.

        Lanes queue for a pool of at most MAX_LANES slots.  A lane enters a
        slot with its rows of the pool's table (see enter), is stamped with
        every live lane in one call, the active devices only, so the branch
        currents returned leave out the inert ones, and leaves on its own
        test, its slot going to the next queued lane or, once the queue is
        empty, out of the pool; its arithmetic is its own, whatever its
        slot.  A lane passes when its residual at x is within tolerance and
        the clipped step solved at x is small (Deuflhard 2004, section
        2.1), and returns x plus that step, converged to rounding; a lane
        that starts at its solution costs one stamp.  A lane fails when its
        step is not finite, after MAX_ITER iterations, or once x plus its
        step is its x of the iteration before: the iteration is a fixed map
        of x, so it cycles and can never pass.  Returns the states, each
        lane's iteration count (its stamps), and for each lane that did not
        converge the node of its worst residual at its last iteration (its
        state is then its start).

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
        x = np.array(x0, dtype=float)
        its = np.full(lanes, MAX_ITER)
        failed: dict[int, str] = {}
        pool = min(lanes, MAX_LANES)
        bracket, free = self.decoupled, self._free

        def enter(new: np.ndarray) -> list[np.ndarray]:
            # The rows lanes `new` bring to their slots: id, iteration
            # count, right-hand side, parameter rows (V_th0 plus the lane's
            # shift), shunt, extended state, and state of the iteration
            # before, NaN (equal to nothing); in a decoupled system also,
            # per free unknown, the bracket, the residual's last nonzero
            # sign and how often that sign changed.
            m = new.size
            par = np.repeat(self._active_par[None], m, axis=0)
            par[..., COL_VTH0] += vth[new][:, self._active]
            rows = [new, np.zeros(m, dtype=np.int64), b[new], par, np.zeros(m) if shunt is None else shunt[new]]
            rows += [np.concatenate((x[new], np.zeros((m, 1))), axis=1), np.full((m, n), np.nan)]
            if bracket:
                rows += [np.full((m, free.size), v) for v in (-np.inf, np.inf, 0.0, 0)]
            return rows

        # One buffer of Jacobian values, reset in place each iteration, and
        # the stamp's targets in it and in the residuals, per pool slot.
        jac_buf = np.empty((pool, g.size))
        stride = np.repeat([g.size, n + 1], [8, 2])
        stamp_at = self._active_at[:, None, :] + (stride[:, None] * np.arange(pool))[:, :, None]
        table, queued = enter(np.arange(pool)), pool
        while table[0].size:
            ids, count, bl, parl, rung, xl, x_last, *bounds = table
            count += 1
            # The live lanes' linear Jacobians, read by _linear before the stamp.
            jac = jac_buf[: ids.size]
            jac[...] = g
            if shunt is not None:
                jac[:, self._node_diag] += rung[:, None]
            res = self._linear(jac, xl, bl)
            mos_stamp(xl, self._active_idx, parl, self.vt, jac, res, stamp_at[:, : ids.size])
            delta = self.newton_step(jac, res)
            if bracket:
                lo, hi, side, flips = bounds
                xf, df = xl.take(free, axis=1), delta.take(free, axis=1)
                known = (res.take(self._drv_branch, axis=1) == 0).all(axis=1)[:, None] & (
                    jac.take(self._free_diag, axis=1) > 0
                )
                s = np.where(known, np.sign(res.take(free, axis=1)), 0.0)
                flips += s * side < 0
                np.copyto(side, s, where=s != 0)
                np.minimum(hi, xf, out=hi, where=s > 0)
                np.maximum(lo, xf, out=lo, where=s < 0)
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
            done = converged | bad | cycled | (count >= MAX_ITER)
            x_last[...] = xl[:, :n]
            xl[:, :n] = x_new
            if not done.any():
                continue
            x[ids[converged]] = x_new[converged]
            its[ids[converged]] = count[converged]
            failed.update(zip(ids[done & ~converged].tolist(), map(self._worst_node, res[done & ~converged])))
            vacant = np.flatnonzero(done)
            if queued < lanes:
                new = np.arange(queued, min(lanes, queued + vacant.size))
                queued += new.size
                for pooled, rows in zip(table, enter(new)):
                    pooled[vacant[: new.size]] = rows
                vacant = vacant[new.size :]
            if vacant.size:
                keep = np.ones(ids.size, dtype=bool)
                keep[vacant] = False
                table = [pooled[keep] for pooled in table]
        return x, its, failed

    def _gmin_stepping(
        self, x0: np.ndarray, b: np.ndarray, g: np.ndarray, vth: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """Adaptive gmin stepping on lanes, x0 (lanes, n) against b (lanes,
        n+1), with linear Jacobian values g, one row they all share, and
        each lane's V_th0 shifts vth: the lanes that solve_lanes's plain
        Newton fails.  A shunt from every node to ground, on top of g, is
        relaxed rung by rung, then none (the SPICE2 ladder of Nagel,
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
        live lane at its own rung, passed as its shunt.
        Returns the states, each lane's iteration count over its passed
        rungs, and the failure message of each lane that stalled, naming the
        worst-residual node of its last failed rung; its state is then not
        a solution.  This message is the one every failed solve shows."""
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
            x[live], n, stuck = self._newton_lanes(x[live], b[live], g, vth[live], rung)
            ok = _passed(live.size, stuck)
            good, bad = live[ok], live[~ok]
            its[good] += n[ok]
            shunt[good], step[good] = rung[ok], np.minimum(1.0, 1.5 * step[good])
            step[bad] *= 0.5
            # A lane whose halved step still gives no shunt would repeat the
            # unshunted solve it just failed, from the same state.
            step[bad[shunt[bad] * 10.0 ** -step[bad] <= 1e-12]] = 0.0
            for j, lane in enumerate(live.tolist()):
                if step[lane] < 0.01:  # it failed this rung
                    failed[lane] = f"gmin stepping stalled below the minimum step; worst residual at node {stuck[j]}"
            live = live[(shunt[live] > 0.0) & (step[live] >= 0.01)]
        return x, its, failed

    def solve_lanes(
        self,
        b: np.ndarray,
        x0: np.ndarray | None = None,
        vth: np.ndarray | None = None,
        g: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, str]]:
        """Solutions of lanes against b (lanes, n+1), with linear Jacobian
        values g, one row they all share (default g_static, the DC system):
        the one driver of every DC solve and transient step, and the only
        way into Newton.  Each lane starts at x0, (lanes, n) or one (n,)
        state they all share, by default cold (each eliminated source's node
        at its drive, all else zero), with its row of vth, (lanes, devices),
        V_th0 shifts of the live transistors in card order (default none).
        Plain Newton runs every lane, and the lanes it fails walk the gmin
        ladder.  A coupled lane walks it from its own start,
        whose basin matters; a decoupled system has one solution at each
        drive, so its lanes walk it from the cold start, which a lane
        further than MAX_ITER steps of MAX_STEP from its solution still
        needs.  Returns the states, whose branch currents leave out the
        inert devices, each lane's iteration count, whether it walked the
        ladder, and the message of each lane that failed, whose state is
        then not a solution.  A singular step raises FloatingNodeError."""
        lanes = b.shape[0]
        cold = np.zeros((lanes, self.size))
        cold[:, self._drv_node] = 0.0 - b[:, self._drv_branch] * self._drv_sign  # +0.0 at a zero drive
        x0 = cold if x0 is None else np.broadcast_to(x0, (lanes, self.size))
        vth = np.zeros((lanes, len(self.mos_par))) if vth is None else vth
        g = self.g_static if g is None else g
        x, its, failed = self._newton_lanes(x0, b, g, vth)
        ladder = ~_passed(lanes, failed)
        rescue = np.flatnonzero(ladder)
        if rescue.size:
            start = (cold if self.decoupled else x0)[rescue]
            x[rescue], its[rescue], left = self._gmin_stepping(start, b[rescue], g, vth[rescue])
            failed = {int(rescue[j]): msg for j, msg in left.items()}
        return x, its, ladder, failed

    def add_inert_currents(self, x: np.ndarray) -> np.ndarray:
        """Unshifted states x, (lanes, n), each eliminated
        source's branch current corrected in place for what the inert
        devices drive into its node, so each solves KCL over every device.
        One mos_eval call, currents only, per MAX_LANES lanes; none when no
        device is inert.  Returns x."""
        if not self._inert.size:
            return x
        idx, par = self.mos_idx[self._inert], self.mos_par[self._inert]
        rows = idx[:, RES_ROW].T.ravel()  # every drain, then every source
        for at in range(0, len(x), MAX_LANES):
            chunk = x[at : at + MAX_LANES]  # a view: written in place
            x_ext = np.concatenate((chunk, np.zeros((len(chunk), 1))), axis=1)
            v_d, v_g, v_s, v_b = x_ext.take(idx.T, axis=1).swapaxes(0, 1)
            i = mos_eval(par, v_g - v_s, v_d - v_s, v_s - v_b, self.vt)[0]
            flow = np.zeros_like(x_ext)
            np.add.at(flow, (slice(None), rows), np.concatenate((i, -i), axis=1))
            chunk[:, self._drv_branch] -= self._drv_sign * flow.take(self._drv_node, axis=1)
        return x

    def solve_dc_vector(self) -> tuple[np.ndarray, int, bool]:
        """The DC solution with every source at its card value, from a zero
        start: solve_lanes on one lane, then add_inert_currents.  Returns
        the state, its iteration count and whether it needed the gmin
        ladder; a lane that fails raises ConvergenceError with its message."""
        x, its, ladder, failed = self.solve_lanes(self.rhs()[None], np.zeros(self.size))
        if failed:
            raise ConvergenceError(failed[0])
        return self.add_inert_currents(x)[0], int(its[0]), bool(ladder[0])

    def sweep(
        self, b: np.ndarray, x0: np.ndarray | None = None, vth: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict[int, str]]:
        """States of a sweep, lanes against b (lanes, n+1), each with its
        row of V_th0 shifts vth (see solve_lanes): the one driver of every
        DC sweep.  A decoupled system has one solution at each drive, so
        its lanes are one solve_lanes call, started at x0 (lanes, n), by
        default cold.  A coupled one's are solved in order, so the walk
        follows one branch: each lane from the lane before when both have
        the same shift row, else from its row of x0, by default zero.  A
        walk stops at its first failed lane, whose message its later lanes
        share.  Returns the states, their branch currents without the inert
        devices, and the message of each lane that failed, whose state is
        then not a solution.  A singular step raises FloatingNodeError."""
        if self.decoupled:
            x, _, _, failed = self.solve_lanes(b, x0, vth)
            return x, failed
        vth = np.zeros((len(b), len(self.mos_par))) if vth is None else vth
        x = np.zeros((len(b), self.size)) if x0 is None else np.array(x0, dtype=float)
        failed: dict[int, str] = {}
        for i in range(len(b)):
            warm = i > 0 and (vth[i] == vth[i - 1]).all()
            if warm and i - 1 in failed:
                failed[i] = failed[i - 1]
                continue
            (x[i],), _, _, left = self.solve_lanes(b[i : i + 1], x[i - 1] if warm else x[i], vth[i : i + 1])
            if left:
                failed[i] = left[0]
        return x, failed


def solve_dc(net: Netlist, tech: TechnologyParams | None = None) -> DcSolution:
    """The DC operating point of net, every source at its card value,
    solved from a zero start, with the worst node residual there."""
    sys = MnaSystem(net, tech)
    x, its, ladder = sys.solve_dc_vector()
    volts = {name: float(x[i]) for name, i in sys.node_index.items()}
    currents = {sid: float(x[k]) for sid, k in sys.branch_index.items()}
    res = sys.residual(x, sys.rhs())
    return DcSolution(volts, currents, its, ladder, float(np.abs(res[: sys.n_nodes]).max(initial=0.0)))


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
) -> SweepResult:
    """Sweep one source's drive over an inclusive grid, one lane per point
    of MnaSystem.sweep.  The first failed point raises ConvergenceError,
    named by the source at its value, and a singular step
    FloatingNodeError, named by the source.  A grid that sweep_grid
    refuses, or whose tables cannot fit in physical memory, raises
    ValueError."""
    sys = MnaSystem(net, tech)
    # The grid, the right-hand sides, the lanes' tables and the result's
    # copies: refused before any of them is allocated if they cannot fit.
    points = _sweep_points(start, stop, step)
    _refuse_beyond_memory(
        8 * points * (4 * sys.size + 5), f"{points:g} sweep points", "the grid, right-hand side and state tables"
    )
    values = sweep_grid(start, stop, step)
    try:
        xs, failed = sys.sweep(sys.rhs(drive={source_id: values}))
    except FloatingNodeError as exc:
        raise FloatingNodeError(f"{exc} (sweeping {source_id})") from exc
    if failed:
        first = min(failed)
        raise ConvergenceError(f"{failed[first]} (sweeping {source_id}={values[first]:g})")
    sys.add_inert_currents(xs)
    nodes = {name: xs[:, k].copy() for name, k in sys.node_index.items()}
    currents = {sid: xs[:, k].copy() for sid, k in sys.branch_index.items()}
    return SweepResult(source_id, values, nodes, currents)


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
) -> TransientResult:
    """Fixed-step transient; `method` is "be" or "trap".  Each step is one
    lane of solve_lanes on the companion Jacobian, then add_inert_currents,
    as the next step starts from it and its stop test reads currents too.
    A step plain Newton fails walks the gmin ladder; one the ladder fails
    raises ConvergenceError, its message followed by its time.  A run in
    which any solve took the ladder, t=0 included, warns once at its end.

    A backward-Euler step k is latent when every source drive equals step
    k-1's and _latent holds on the node voltages of steps k-3 to k-1: the
    geometric tail of their moves is within VNTOL.  A latent step copies
    the state of step k-1, node voltages and branch currents, and makes no
    stamp and no Newton call; the next step then sees no move and stays
    latent until a drive changes.  Trapezoidal steps are always solved,
    since their companions carry each capacitor's current from the step
    before, which a copied state would freeze.

    `ics` pins the named nodes with temporary voltage sources for the t=0
    solve only (SPICE2's initial conditions, Nagel, ERL-M520, 1975); the
    pins are absent from the time stepping itself.  They are appended
    after every element of net, on nodes it already has, so each unknown
    of net keeps its index in the pinned system, and the t=0 state is the
    first n entries of the pinned solution.

    A bad step, a t_stop that rounds to zero steps, to no finite number of
    them or to more than the time grid and the per-step tables can hold in
    this machine's physical memory, and an initial condition on a node the
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

    sys = MnaSystem(net, tech)
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
        # Pin ids the net does not use, compared as with_elements does.
        taken = {e.id.upper() for e in net.elements}
        ids = (pin for pin in (f"VIC{i}" for i in itertools.count()) if pin not in taken)
        pins = [SourceElement(next(ids), Node(name), Node(GROUND), "DC", (float(v),)) for name, v in ics.items()]
        pinned = MnaSystem(with_elements(net, pins), tech)
    x_ic, _, ladder = (pinned if ics else sys).solve_dc_vector()
    rescued = [0.0] if ladder else []  # the time of each solve that needed the gmin ladder

    times = np.arange(n_steps + 1) * dt
    # One row per unknown, so each waveform is a row of this one table.
    xs = np.zeros((sys.size, n_steps + 1))
    xs[:, 0] = x_ic[: sys.size]

    # Every source's drive at every time point, a DC one evaluated once: the
    # result's drives, and the right-hand side of every step, one row each.
    drives = {
        e.id: np.full(times.size, e.value_at(0.0))
        if e.kind == "DC"
        else np.array([e.value_at(t) for t in times])
        for e in sys.vsources + sys.isources
    }
    b_steps = np.broadcast_to(sys.rhs(drive=drives), (times.size, sys.size + 1))

    cap_a, cap_b = sys._cap_slots.T
    cap_c = np.array([c.value for c in sys.caps])
    # Scatter targets interleaved per capacitor, so shared slots accumulate
    # in capacitor order.
    cap_ab = sys._cap_slots.reshape(-1)
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
    x = xs[:, 0].copy()
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
        x, _, (ladder,), failed = sys.solve_lanes(b_vec[None], x, g=g_start if startup else g_dyn)
        if failed:
            raise ConvergenceError(f"{failed[0]} (at t={times[k]:g} s)")
        (x,) = sys.add_inert_currents(x)
        if ladder:
            rescued.append(times[k])
        if method == "trap":
            x_ext = np.append(x, 0.0)
            dv = (x_ext[cap_a] - x_ext[cap_b]) - v_prev
            if startup:
                i_hist = cap_c * dv / dt
            else:
                i_hist = factor * cap_c * dv - i_hist
        xs[:, k] = x

    if rescued:
        warnings.warn(f"{len(rescued)} solve(s) needed the gmin ladder, the first at t={rescued[0]:g} s", stacklevel=2)
    nodes = {name: xs[i] for name, i in sys.node_index.items()}
    currents = {sid: xs[i] for sid, i in sys.branch_index.items()}
    return TransientResult(times, nodes, currents, drives)


# -- CSV export -------------------------------------------------------


def _write_columns(dest, first_name: str, first_col: np.ndarray, result) -> None:
    write_columns(
        dest,
        [first_name, *(f"V({n})" for n in result.nodes), *(f"I({s})" for s in result.branch_currents)],
        [first_col, *result.nodes.values(), *result.branch_currents.values()],
    )


def sweep_to_csv(result: SweepResult, dest) -> None:
    """The swept source's values, then V(node) for every node and I(source)
    for every branch current, one row per point, as a column file (see
    report.write_columns) at dest, a path or an open stream."""
    _write_columns(dest, result.source_id, result.values, result)


def waveform_to_csv(result: TransientResult, dest) -> None:
    _write_columns(dest, "time", result.time, result)


def waveform_from_csv(src) -> TransientResult:
    """Read back a waveform column file written by waveform_to_csv: the
    first column is time, V(name) columns are nodes and I(name) columns
    branch currents; a column named otherwise is taken as a node.  Notes
    are ignored."""
    header, data, _ = read_columns(src)
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
