"""In-memory span recorder for the traced perfbench run.

The tracer wraps the public callables of each sramlab layer from outside
the package: every binding of a wrapped function in an ``sramlab`` module
namespace, three ``MnaSystem`` methods, and ``np.linalg.solve`` as the
engine module sees it.  Each call records a span (name, start, end, parent
span, and an optional note such as the device count of a kernel call).
Spans stay in memory; ``layer_metrics`` reduces one pass of them to the
per-layer metrics.  ``uninstall`` restores every original binding, so an
untraced measurement runs the package exactly as shipped.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index (-1 at top), note]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy as np

        from sramlab import engine, genlib, kernels, netlist, stability

        functions = [
            ("kernels.mos_stamp", kernels.mos_stamp, lambda a, out: a[1].shape[0]),
            ("engine.solve_dc", engine.solve_dc, None),
            ("engine.dc_sweep", engine.dc_sweep, None),
            ("engine.transient", engine.transient, None),
            ("stability.butterfly", stability.butterfly, None),
            ("stability.inscribed_square_snm", stability.inscribed_square_snm, None),
            ("stability.write_margin", stability.write_margin, None),
            ("stability.drv_bruteforce", stability.drv_bruteforce, None),
            ("stability.drv_closed_form", stability.drv_closed_form, None),
            ("stability.drv_inputs_from_cell", stability.drv_inputs_from_cell, None),
            ("stability.monte_carlo_snm", stability.monte_carlo_snm, lambda a, out: out.failures),
            ("netlist.parse_netlist", netlist.parse_netlist, None),
            ("netlist.print_netlist", netlist.print_netlist, None),
            ("netlist.validate", netlist.validate, None),
            ("netlist.with_elements", netlist.with_elements, None),
            ("genlib.build_6t_cell", genlib.build_6t_cell, None),
            ("genlib.build_array", genlib.build_array, None),
        ]
        modules = [m for n, m in list(sys.modules.items()) if n == "sramlab" or n.startswith("sramlab.")]
        for name, fn, note in functions:
            wrapped = self._wrap(name, fn, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

        mna = engine.MnaSystem
        self._patch(mna, "__init__", self._wrap("engine.mna_build", mna.__init__))
        continuation = lambda a, out: out[2]  # noqa: E731
        self._patch(mna, "solve_dc_vector", self._wrap("engine.solve_dc_vector", mna.solve_dc_vector, continuation))
        self._patch(mna, "residual", self._wrap("engine.residual", mna.residual))

        # The dense solve as the engine calls it: a copy of the numpy module
        # whose linalg.solve is wrapped, bound as engine.np.
        linalg = types.ModuleType("numpy.linalg")
        vars(linalg).update(vars(np.linalg))
        linalg.solve = self._wrap("linalg.solve", np.linalg.solve, lambda a, out: a[0].shape[-1])
        proxy = types.ModuleType("numpy")
        vars(proxy).update(vars(np))
        proxy.linalg = linalg
        self._patch(engine, "np", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[list], wall: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and each layer's self-time
    share of the pass wall time (the remainder is the benchmark's own)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)  # per callable, outermost calls only
    self_s: defaultdict = defaultdict(float)  # per layer
    entered: defaultdict = defaultdict(float)  # per layer, calls from outside it
    notes: defaultdict = defaultdict(list)
    stamps_in_solves = 0
    from_stability: Counter = Counter()
    for i, (name, _, _, parent, note) in enumerate(spans):
        layer = _layer(name)
        parent_name = spans[parent][0] if parent >= 0 else ""
        calls[name] += 1
        self_s[layer] += dur[i] - child[i]
        if parent_name != name:
            total[name] += dur[i]
        if _layer(parent_name) != layer:
            entered[layer] += dur[i]
        if note is not None:
            notes[name].append(note)
        if name == "kernels.mos_stamp" and parent_name in ("engine.solve_dc_vector", "engine.residual"):
            stamps_in_solves += 1
        if _layer(parent_name) == "stability":
            from_stability[name] += 1

    def mean(values) -> float:
        return sum(values) / len(values) if values else 0.0

    stamp_calls = calls["kernels.mos_stamp"]
    dc_solves = calls["engine.solve_dc_vector"]
    continuation = sum(bool(v) for v in notes["engine.solve_dc_vector"])
    metrics = {
        "kernels.stamp_s": total["kernels.mos_stamp"],
        "kernels.stamp_calls": stamp_calls,
        "kernels.stamp_us_per_call": 1e6 * total["kernels.mos_stamp"] / stamp_calls if stamp_calls else 0.0,
        "kernels.devices_per_call": mean(notes["kernels.mos_stamp"]),
        "linalg.solve_s": total["linalg.solve"],
        "linalg.solve_calls": calls["linalg.solve"],
        "linalg.solve_dim": mean(notes["linalg.solve"]),
        "engine.mna_build_s": total["engine.mna_build"],
        "engine.mna_build_calls": calls["engine.mna_build"],
        "engine.dc_solves": dc_solves,
        "engine.newton_iters_per_solve": stamps_in_solves / dc_solves if dc_solves else 0.0,
        "engine.continuation_solves": continuation,
        "engine.fallback_ratio": continuation / dc_solves if dc_solves else 0.0,
        "engine.self_s": self_s["engine"],
        "stability.dc_sweeps": from_stability["engine.dc_sweep"],
        "stability.dc_solves": from_stability["engine.solve_dc"],
        "stability.square_s": total["stability.inscribed_square_snm"],
        "stability.square_calls": calls["stability.inscribed_square_snm"],
        "stability.self_s": self_s["stability"],
        "stability.mc_failed_samples": sum(notes["stability.monte_carlo_snm"]),
        "netlist.parse_s": total["netlist.parse_netlist"],
        "netlist.validate_s": total["netlist.validate"],
        "genlib.build_s": entered["genlib"],
    }
    shares = {layer: t / wall for layer, t in sorted(self_s.items())} if wall > 0 else {}
    return metrics, shares
