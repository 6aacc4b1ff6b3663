"""Span tracer behind the per-layer metrics.

``install`` wraps the public callables of every module in ``xdmev`` at the
binding its caller uses, from the benchmark's side: nothing under ``src/``
changes. While tracing is on, each wrapped call records a span (name,
start, end, parent span, query id) in memory; the hottest constructors are
only counted. ``Tracer.layer_times`` turns the spans into self and total
times once a traced pass has ended.

Span times come from the calling thread's CPU clock, so a span's time is
the time its thread was busy. The engine's branch search may run on a
thread pool; with a wall clock, worker spans would also count the time
spent waiting for the interpreter lock. A span opened on a worker thread
with no open span of its own records the innermost open span of the
tracing thread as its parent (as a negative id). That parent is timed on
another clock, so its self time subtracts only same-thread children, and
gains the worker's busy time outside spans (the search itself).
"""

from __future__ import annotations

import functools
import itertools
import threading
from array import array
from collections import Counter
from time import thread_time_ns
from typing import Callable, Optional

# counters that depend only on the code and the workload; two traced passes
# over the same queries must produce them exactly
MACHINE_INDEPENDENT = (
    "engine.explored",
    "actions.apply_calls",
    "actions.apply_calls.Swap",
    "actions.apply_calls.ExecutePendingTx",
    "actions.apply_calls.Bridge",
    "actions.apply_calls.StylizedArb",
    "model.worldstate_new",
    "fixedpoint.amount_new",
    "kernels.swap_out_calls",
)

_FIELDS = 6  # span record: id, name index, start ns, end ns, parent id, query id


class _ThreadLog:
    """One thread's open-span stack, finished spans and counters."""

    __slots__ = ("stack", "spans", "counts", "born")

    def __init__(self):
        self.born = thread_time_ns()
        self.stack: list[int] = []
        # parent ids are negative when the parent is open on another thread
        self.spans = array("q")
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.query = 0
        self.phase: Optional[str] = None  # outermost engine entry point running
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter; the calling thread becomes the root."""
        self._local = threading.local()
        with self._lock:
            self._logs: list[_ThreadLog] = []
        self._root = self._log()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    # -- wrappers ----------------------------------------------------------

    def span(
        self,
        name: str,
        fn: Callable,
        hook: Optional[Callable] = None,
        phase: Optional[str] = None,
    ) -> Callable:
        """``fn`` recording a span per call; ``hook(counts, args, kwargs, result, ok)``
        runs after each call, and ``phase`` marks the outermost engine entry."""
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            log = tracer._log()
            stack = log.stack
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root.stack
                parent = -root[-1] if root and log is not tracer._root else 0
            sid = next(tracer._ids)
            stack.append(sid)
            entered = phase is not None and tracer.phase is None
            if entered:
                tracer.phase = phase
            ok = False
            result = None
            start = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = thread_time_ns()
                stack.pop()
                if entered:
                    tracer.phase = None
                log.spans.extend((sid, index, start, end, parent, tracer.query))
                log.counts[name] += 1
                if hook is not None:
                    hook(log.counts, args, kwargs, result, ok)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls, for callables too hot to span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer._log().counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def counts(self) -> Counter:
        total: Counter = Counter()
        for log in self._logs:
            total.update(log.counts)
        return total

    def span_count(self) -> int:
        return sum(len(log.spans) for log in self._logs) // _FIELDS

    def layer_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """(self ns, total ns) per span name.

        Self time is a span's duration minus that of its children on the
        same thread, which are nested and disjoint. A worker thread's busy
        time outside its top-level spans is added to their remote parent;
        executor threads live within one engine call, so that parent is
        the same for all of them.
        """
        covered: dict[int, int] = {}
        worker_time: dict[int, int] = {}  # remote parent id -> busy ns outside spans
        for log in self._logs:
            spans = log.spans
            remote = top_level = 0
            last_end = log.born
            for i in range(0, len(spans), _FIELDS):
                parent, duration = spans[i + 4], spans[i + 3] - spans[i + 2]
                if parent > 0:
                    covered[parent] = covered.get(parent, 0) + duration
                elif parent < 0:
                    # spans are appended as they end, so this is the latest end
                    remote, top_level, last_end = -parent, top_level + duration, spans[i + 3]
            if remote:
                busy = last_end - log.born - top_level
                worker_time[remote] = worker_time.get(remote, 0) + busy
        own = [0] * len(self.names)
        total = [0] * len(self.names)
        for log in self._logs:
            spans = log.spans
            for i in range(0, len(spans), _FIELDS):
                sid, index, duration = spans[i], spans[i + 1], spans[i + 3] - spans[i + 2]
                own[index] += duration - covered.get(sid, 0) + worker_time.get(sid, 0)
                total[index] += duration
        return dict(zip(self.names, own)), dict(zip(self.names, total))


# -- installation --------------------------------------------------------------


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap each module's public callables at the bindings their callers use."""
    from xdmev import _kernels, actions, cli, collusion, engine, fixedpoint, model, scenario, venues

    def on_apply(counts, args, kwargs, result, ok):
        action = _arg(args, kwargs, 2, "action")
        counts["actions.apply_calls." + action.kind] += 1
        if not ok:
            counts["actions.apply_failed"] += 1
        if tracer.phase == "mev":
            counts["engine.mev_applies"] += 1
            if action.parametric:
                counts["engine.param_probes"] += 1

    def explored(key):
        def hook(counts, args, kwargs, result, ok):
            if ok:
                counts[key] += result.explored

        return hook

    mev_explored = explored("engine.explored")
    oracle_explored = explored("engine.oracle_explored")

    def on_collusion_mev(counts, args, kwargs, result, ok):
        counts["collusion.mev_calls"] += 1
        mev_explored(counts, args, kwargs, result, ok)

    spans = [
        # (module or class, attribute, span name, hook, phase)
        (scenario, "loads", "scenario.loads", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "classify_collusion", "collusion.classify_collusion", None, None),
        (engine, "mev", "engine.mev", mev_explored, "mev"),
        (cli, "mev", "engine.mev", mev_explored, "mev"),
        (collusion, "mev", "engine.mev", on_collusion_mev, "mev"),
        (engine, "mev_oracle", "engine.mev_oracle", oracle_explored, "oracle"),
        (cli, "mev_oracle", "engine.mev_oracle", oracle_explored, "oracle"),
        (engine, "reachable_states", "engine.reachable_states", None, "reachable"),
        (engine, "priced_balance_delta", "engine.priced_balance_delta", None, None),
        (engine, "apply_action", "actions.apply_action", on_apply, None),
        (cli, "apply_action", "actions.apply_action", on_apply, None),
        (actions, "apply_action", "actions.apply_action", on_apply, None),
        (engine, "max_feasible_amount", "actions.max_feasible_amount", None, None),
        (actions, "max_feasible_amount", "actions.max_feasible_amount", None, None),
        (actions, "apply_swap", "venues.apply_swap", None, None),
        (venues, "apply_swap", "venues.apply_swap", None, None),
        (actions, "apply_pending_tx", "venues.apply_pending_tx", None, None),
        (actions, "apply_bridge", "venues.apply_bridge", None, None),
        (actions, "apply_stylized_arb", "venues.apply_stylized_arb", None, None),
        (actions, "apply_stylized_fill", "venues.apply_stylized_fill", None, None),
        (engine, "convert", "model.convert", None, None),
        (model, "convert", "model.convert", None, None),
        (model.WorldState, "credit", "model.credit", None, None),
        (model.WorldState, "debit", "model.debit", None, None),
        (model.WorldState, "with_pool", "model.with_pool", None, None),
        (model.WorldState, "consume", "model.consume", None, None),
        (_kernels, "swap_out", "kernels.swap_out", None, None),
    ]
    for owner, attr, name, hook, phase in spans:
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), hook, phase))

    counted = [
        (model.WorldState, "__init__", "model.worldstate_new"),
        (model.WorldState, "__hash__", "model.worldstate_hash_calls"),
        (fixedpoint.Amount, "__init__", "fixedpoint.amount_new"),
        (fixedpoint.Amount, "mul_fraction", "fixedpoint.mul_fraction_calls"),
    ]
    for owner, attr, name in counted:
        setattr(owner, attr, tracer.count(name, getattr(owner, attr)))
    from_units = fixedpoint.Amount.__dict__["from_units"].__func__
    fixedpoint.Amount.from_units = classmethod(tracer.count("fixedpoint.amount_new", from_units))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass just traced, keyed by metric name."""
    counts = tracer.counts()
    own, total = tracer.layer_times()

    def ms(table, *names):
        return sum(table.get(n, 0) for n in names) / 1e6

    def layer(prefix):
        return [n for n in tracer.names if n.startswith(prefix)]

    applies = counts["actions.apply_action"]
    explored = counts["engine.explored"]
    return {
        "scenario.load_calls": counts["scenario.loads"],
        "scenario.load_ms": ms(total, "scenario.loads"),
        "cli.main_calls": counts["cli.main"],
        "cli.self_ms": ms(own, "cli.main"),
        "collusion.mev_calls": counts["collusion.mev_calls"],
        "collusion.self_ms": ms(own, "collusion.classify_collusion"),
        "engine.mev_calls": counts["engine.mev"],
        "engine.mev_self_ms": ms(own, "engine.mev"),
        "engine.explored": explored,
        "engine.apply_per_explored": counts["engine.mev_applies"] / explored if explored else 0.0,
        "engine.param_probes": counts["engine.param_probes"],
        "engine.oracle_self_ms": ms(own, "engine.mev_oracle"),
        "engine.oracle_explored": counts["engine.oracle_explored"],
        "engine.reachable_self_ms": ms(own, "engine.reachable_states"),
        "engine.priced_delta_calls": counts["engine.priced_balance_delta"],
        "engine.priced_delta_ms": ms(total, "engine.priced_balance_delta"),
        "actions.apply_calls": applies,
        "actions.apply_calls.Swap": counts["actions.apply_calls.Swap"],
        "actions.apply_calls.ExecutePendingTx": counts["actions.apply_calls.ExecutePendingTx"],
        "actions.apply_calls.Bridge": counts["actions.apply_calls.Bridge"],
        "actions.apply_calls.StylizedArb": counts["actions.apply_calls.StylizedArb"],
        "actions.apply_failed": counts["actions.apply_failed"],
        "actions.apply_ok_ratio": (applies - counts["actions.apply_failed"]) / applies
        if applies
        else 0.0,
        "actions.apply_self_ms": ms(own, "actions.apply_action"),
        "actions.max_feasible_calls": counts["actions.max_feasible_amount"],
        "venues.apply_swap_calls": counts["venues.apply_swap"],
        "venues.apply_pending_tx_calls": counts["venues.apply_pending_tx"],
        "venues.apply_bridge_calls": counts["venues.apply_bridge"],
        "venues.self_ms": ms(own, *layer("venues.")),
        "model.worldstate_new": counts["model.worldstate_new"],
        "model.worldstate_hash_calls": counts["model.worldstate_hash_calls"],
        "model.convert_calls": counts["model.convert"],
        "model.self_ms": ms(own, *layer("model.")),
        "fixedpoint.amount_new": counts["fixedpoint.amount_new"],
        "fixedpoint.mul_fraction_calls": counts["fixedpoint.mul_fraction_calls"],
        "kernels.swap_out_calls": counts["kernels.swap_out"],
        "kernels.swap_out_ms": ms(total, "kernels.swap_out"),
    }
