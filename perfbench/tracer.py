"""Per-layer tracing by wrapping the package's public functions.

The package itself is not instrumented.  `Tracer.install` replaces each
target function, in every loaded `mdsrepair` module that holds a
reference to it, with a wrapper that counts calls and accumulates busy
time (wall time inside the call) and child time (wall time inside other
wrapped calls made from it); self time is busy minus child.  `remove`
puts every original back, so an untraced run never times a wrapper.

Spans are aggregated per function rather than kept one by one: the row
reduction kernel is called about a million times per exhaustive report,
and a span list that long would dominate the run's memory.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections.abc import Callable

# (module, function) pairs wrapped in a traced run, one group per layer.
TARGETS = (
    ("mdsrepair._kernel", "rre_rank"),
    ("mdsrepair.linalg", "projective_points"),
    ("mdsrepair.linalg", "enumerate_subspaces"),
    ("mdsrepair.linalg", "all_subspaces"),
    ("mdsrepair.repair", "repair_report"),
    ("mdsrepair.repair", "make_witness"),
    ("mdsrepair.repair", "optimal_alpha"),
    ("mdsrepair.repair", "random_mds_code"),
    ("mdsrepair.code", "is_mds"),
    ("mdsrepair.code", "serialize"),
    ("mdsrepair.code", "deserialize"),
    ("mdsrepair.gf", "make_field"),
    ("mdsrepair.gf", "make_extension"),
    ("mdsrepair.constructions", "build_two_parity_code"),
    ("mdsrepair.constructions", "build_exceptional"),
    ("mdsrepair.constructions", "regular_spread_converse_check"),
    ("mdsrepair.geometry", "desarguesian_spread"),
    ("mdsrepair.geometry", "is_regular_spread"),
    ("mdsrepair.sim", "sample_codeword"),
    ("mdsrepair.sim", "erase_and_repair"),
)

WRAPPED_MARK = "__perfbench_wrapped__"


def _layer_name(module: str, func: str) -> str:
    layer = module.rsplit(".", 1)[-1].lstrip("_")
    return f"{layer}.{func}"


class Tracer:
    """Call counts, busy and child time per wrapped function, plus counters."""

    def __init__(self) -> None:
        # name -> [calls, busy_s, child_s, items]; items counts generator yields
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, func in TARGETS:
            orig = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(_layer_name(module_name, func), orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("mdsrepair"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        hook = {
            "repair.repair_report": self._count_scan,
            "sim.erase_and_repair": self._check_repair_costs,
        }.get(name)

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                st[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    t0 = clock()
                    stack.append(0.0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        st[1] += dt
                        st[2] += stack.pop()
                        if stack:
                            stack[-1] += dt
                    st[3] += 1
                    yield item

            setattr(gen_wrapper, WRAPPED_MARK, True)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    # Post-call hooks.  They record the exact counts the per-layer metrics
    # need and check the simulator's counters against the analytic costs
    # of the witness it was given.

    def _count_scan(self, args, kwargs, report) -> None:
        self.count("candidates_scanned", report.candidates_scanned)
        self.count("candidates_total", report.candidates_total)

    def _check_repair_costs(self, args, kwargs, trace) -> None:
        witness = args[3] if len(args) > 3 else kwargs["witness"]
        self.count("downloaded_symbols", trace.total_downloaded)
        self.count("accessed_symbols", trace.total_accessed)
        self.count("expected_downloaded", witness.bw)
        self.count("expected_accessed", witness.io)
        if (trace.total_downloaded, trace.total_accessed) != (witness.bw, witness.io):
            self.count("sim_cost_mismatches")

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counters": self.counters}

    def absorb(self, snapshot: dict) -> None:
        """Add the snapshot of another tracer, a child process's say."""
        for name, vals in snapshot["stats"].items():
            cur = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                cur[i] += v
        for name, v in snapshot["counters"].items():
            self.count(name, v)


def wrapped_attributes() -> list[str]:
    """Every attribute of a loaded mdsrepair module that is still a wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("mdsrepair"):
            continue
        for attr, value in vars(mod).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{mod_name}.{attr}")
    return found
