"""The traced run: spans around the calls into each layer.

:class:`LayerTracer` patches each layer's public functions where their
callers look them up (``checker.simulate``, not ``pipeline.simulate``)
and records one span per call in a standalone
:class:`~repro.metrics.spans.SpanRecorder`.  It never attaches the
recorder process-wide (``set_recorder``), so the program's own
in-program spans stay off and the program runs the code it runs
untraced.

Defense hooks are called ~100 times per committed uop, far too often
for one span each: the tracer wraps the hook methods of each defense
instance handed to ``simulate`` and aggregates their calls, allowed
answers and seconds; each ``uarch.simulate`` span carries the hook
seconds spent inside it as its ``hook_s`` attribute.

Self time of a span is its duration minus its children's durations
(minus ``hook_s`` for simulate spans), so the self times of all spans
plus the hook seconds partition the root span's wall time.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.bench import executor, runner
from repro.contracts import checker
from repro.fuzzing import campaign
from repro.metrics.spans import Span, SpanRecorder, write_merged_trace
from repro.uarch import compiled

GATES = ("may_execute", "may_resolve", "may_wakeup")
RECHECKS = ("execute_recheck_seq", "resolve_recheck_seq",
            "wakeup_recheck_seq")
EVENTS = ("on_rename", "on_commit", "on_squash", "on_load_executed")
HOOKS = GATES + RECHECKS + EVENTS

#: Defense class -> harness name, for the per-defense uarch metrics.
DEFENSE_NAMES = {type(runner.DEFENSES[name]()).__name__: name
                 for name in ("unsafe", "stt", "spt", "spt-sb", "delay",
                              "track")}

#: (owner, attribute, span name) of every patched layer entry point.
SIM_PATCHES = (
    (runner, "simulate", "uarch.simulate"),
    (checker, "simulate", "uarch.simulate"),
    (compiled, "compile_step", "compiled.compile_step"),
    (compiled, "generate_source", "compiled.generate_source"),
    (runner, "compile_program", "protcc.compile_program"),
)
FUZZ_PATCHES = SIM_PATCHES + (
    (checker, "run_program", "arch.run_program"),
    (campaign, "check_contract_pair", "contracts.check_pair"),
    (checker, "observe", "contracts.observe"),
    (checker, "first_divergence", "contracts.observe"),
    (campaign, "generate_program", "fuzzing.generate"),
    (campaign, "generate_input", "fuzzing.generate"),
    (campaign, "mutate_input", "fuzzing.generate"),
    (campaign, "compile_program", "protcc.compile_program"),
)
#: Pool workers are forked copies of this process, so their spans are
#: lost: the executor is measured from the parent only.
BATCH_PATCHES = (
    (executor, "cache_load", "executor.cache_load"),
    (executor, "cache_store", "executor.cache_store"),
)


#: Every per-layer metric with its unit, in report order.
PER_LAYER: Dict[str, str] = {
    "uarch.simulate.calls": "count",
    "uarch.simulate.self_s": "s",
    **{f"uarch.self_us_per_cycle.{d}": "us/cycle"
       for d in DEFENSE_NAMES.values()},
    "uarch.sim_cycles": "count",
    "uarch.committed_uops": "count",
    "uarch.transient_share": "share",
    "uarch.ref.us_per_cycle": "us/cycle",
    "compiled.compile_step.calls": "count",
    "compiled.compile_misses": "count",
    "compiled.generate_ms_per_triple": "ms",
    "compiled.compile_ms_per_miss": "ms",
    "defenses.hook_calls_per_uop": "calls/uop",
    "defenses.hook_calls_per_uop.unsafe": "calls/uop",
    "defenses.hook_self_s": "s",
    "defenses.hook_share": "share",
    **{f"defenses.{g}.{m}": u for g in GATES
       for m, u in (("calls", "count"), ("allow_ratio", "share"))},
    **{f"defenses.{r}.calls": "count" for r in RECHECKS},
    "defenses.event_hook_s": "s",
    "arch.run_program.calls": "count",
    "arch.run_program.self_s": "s",
    "contracts.check_pair.calls": "count",
    "contracts.check_pair.self_s": "s",
    "contracts.observe.self_s": "s",
    **{f"contracts.verdict.{v}": "count"
       for v in ("pass", "violation", "false_positive", "invalid")},
    "fuzzing.generate_s": "s",
    "protcc.compile_program.self_s": "s",
    "workloads.build_s": "s",
    "executor.run_batch.cold_s": "s",
    "executor.run_batch.warm_s": "s",
    "executor.cache_load.calls": "count",
    "executor.cache_load.self_ms": "ms",
    "executor.cache_store.calls": "count",
    "executor.parent_overhead_ms_per_spec": "ms",
    "executor.pool_speedup": "x",
    "executor.hit_rate.cold": "share",
    "executor.hit_rate.warm": "share",
    "trace.overhead_share": "share",
}


class LayerTracer:
    """Installs the span patches and turns the spans into metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder(process="perfbench")
        #: hook -> [calls, allowed answers, seconds]
        self.hooks: Dict[str, List] = {hook: [0, 0, 0.0] for hook in HOOKS}
        self._undo: List = []

    def span(self, name: str):
        return self.recorder.span(name)

    # -- patching ------------------------------------------------------

    def install(self, patches) -> None:
        for owner, attr, name in patches:
            original = getattr(owner, attr)
            if name == "uarch.simulate":
                traced = self._traced_simulate(original)
            elif name == "contracts.check_pair":
                traced = self._traced_check(original)
            else:
                traced = self._traced(original, name)
            setattr(owner, attr, traced)
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _traced(self, original, name):
        recorder = self.recorder

        def traced(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)
        return traced

    def _traced_check(self, original):
        recorder = self.recorder

        def traced(*args, **kwargs):
            with recorder.span("contracts.check_pair") as span:
                outcome = original(*args, **kwargs)
            span.attrs["verdict"] = outcome.verdict.value
            return outcome
        return traced

    def _traced_simulate(self, original):
        recorder = self.recorder
        hooks = self.hooks

        def traced(program, defense=None, *args, **kwargs):
            reference = kwargs.get("engine") in ("ref", "refcore")
            if defense is not None and not reference:
                self._wrap_hooks(defense)
            seconds = sum(entry[2] for entry in hooks.values())
            calls = sum(entry[0] for entry in hooks.values())
            name = "uarch.ref.simulate" if reference else "uarch.simulate"
            with recorder.span(name) as span:
                result = original(program, defense, *args, **kwargs)
            stats = result.stats
            span.attrs.update(
                defense=DEFENSE_NAMES.get(type(defense).__name__,
                                          type(defense).__name__),
                cycles=result.cycles,
                # Committed instructions: the halting HALT is not one.
                committed=result.instructions,
                fetched=stats["fetched_uops"],
                squashed=stats["squashed_uops"],
                hook_s=sum(entry[2] for entry in hooks.values()) - seconds,
                hook_calls=sum(entry[0] for entry in hooks.values())
                - calls)
            return result
        return traced

    def _wrap_hooks(self, defense) -> None:
        clock = time.perf_counter
        for hook in HOOKS:
            original = getattr(defense, hook)
            entry = self.hooks[hook]
            if hook in GATES:
                def traced(uop, original=original, entry=entry):
                    started = clock()
                    allowed = original(uop)
                    entry[2] += clock() - started
                    entry[0] += 1
                    if allowed:
                        entry[1] += 1
                    return allowed
            else:
                def traced(uop, original=original, entry=entry):
                    started = clock()
                    answer = original(uop)
                    entry[2] += clock() - started
                    entry[0] += 1
                    return answer
            # An instance attribute shadows the class method; the
            # compiled backend decides which hooks are live from the
            # class, so the generated code is unchanged.
            setattr(defense, hook, traced)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (``defenses.hooks``: the hook
        seconds recorded on simulate spans)."""
        children = self._child_seconds()
        totals: Dict[str, float] = {"defenses.hooks": 0.0}
        for span in self.recorder.spans:
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + _own(span, children))
            totals["defenses.hooks"] += span.attrs.get("hook_s", 0.0)
        return totals

    def named(self, name: str) -> List[Span]:
        return [span for span in self.recorder.spans if span.name == name]

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric the spans can give (0 where the layer
        did no work in this workload)."""
        own = self.self_times()
        sims = self.named("uarch.simulate")
        cycles = sum(s.attrs["cycles"] for s in sims)
        committed = sum(s.attrs["committed"] for s in sims)
        fetched = sum(s.attrs["fetched"] for s in sims)
        sim_s = sum(s.duration_s for s in sims)
        hook_calls = sum(s.attrs["hook_calls"] for s in sims)
        out = {
            "uarch.simulate.calls": len(sims),
            "uarch.simulate.self_s": own.get("uarch.simulate", 0.0),
            "uarch.sim_cycles": cycles,
            "uarch.committed_uops": committed,
            "uarch.transient_share": _ratio(
                sum(s.attrs["squashed"] for s in sims), fetched),
        }
        children = self._child_seconds()
        for defense in DEFENSE_NAMES.values():
            rows = [s for s in sims if s.attrs["defense"] == defense]
            self_s = sum(_own(s, children) for s in rows)
            out[f"uarch.self_us_per_cycle.{defense}"] = 1e6 * _ratio(
                self_s, sum(s.attrs["cycles"] for s in rows))
        refs = self.named("uarch.ref.simulate")
        out["uarch.ref.us_per_cycle"] = 1e6 * _ratio(
            sum(s.duration_s for s in refs),
            sum(s.attrs["cycles"] for s in refs))

        steps = self.named("compiled.compile_step")
        generated = self.named("compiled.generate_source")
        missed = {s.parent_id for s in generated}
        out["compiled.compile_step.calls"] = len(steps)
        out["compiled.compile_misses"] = len(generated)
        out["compiled.generate_ms_per_triple"] = 1e3 * _ratio(
            sum(s.duration_s for s in generated), len(generated))
        out["compiled.compile_ms_per_miss"] = 1e3 * _ratio(
            sum(s.duration_s for s in steps if s.span_id in missed),
            len(generated))

        hook_s = own["defenses.hooks"]
        unsafe = [s for s in sims if s.attrs["defense"] == "unsafe"]
        out["defenses.hook_calls_per_uop"] = _ratio(hook_calls, committed)
        out["defenses.hook_calls_per_uop.unsafe"] = _ratio(
            sum(s.attrs["hook_calls"] for s in unsafe),
            sum(s.attrs["committed"] for s in unsafe))
        out["defenses.hook_self_s"] = hook_s
        out["defenses.hook_share"] = _ratio(hook_s, sim_s)
        for gate in GATES:
            calls, allowed, _ = self.hooks[gate]
            out[f"defenses.{gate}.calls"] = calls
            out[f"defenses.{gate}.allow_ratio"] = _ratio(allowed, calls)
        for recheck in RECHECKS:
            out[f"defenses.{recheck}.calls"] = self.hooks[recheck][0]
        out["defenses.event_hook_s"] = sum(self.hooks[e][2] for e in EVENTS)

        out["arch.run_program.calls"] = len(self.named("arch.run_program"))
        out["arch.run_program.self_s"] = own.get("arch.run_program", 0.0)
        checks = self.named("contracts.check_pair")
        out["contracts.check_pair.calls"] = len(checks)
        out["contracts.check_pair.self_s"] = own.get("contracts.check_pair",
                                                     0.0)
        out["contracts.observe.self_s"] = own.get("contracts.observe", 0.0)
        for verdict in ("pass", "violation", "false_positive",
                        "invalid_pair"):
            label = "invalid" if verdict == "invalid_pair" else verdict
            out[f"contracts.verdict.{label}"] = sum(
                1 for s in checks if s.attrs["verdict"] == verdict)
        out["fuzzing.generate_s"] = own.get("fuzzing.generate", 0.0)
        out["protcc.compile_program.self_s"] = own.get(
            "protcc.compile_program", 0.0)
        out["workloads.build_s"] = own.get("workloads.build", 0.0)

        loads = self.named("executor.cache_load")
        out["executor.cache_load.calls"] = len(loads)
        out["executor.cache_load.self_ms"] = 1e3 * own.get(
            "executor.cache_load", 0.0)
        out["executor.cache_store.calls"] = len(
            self.named("executor.cache_store"))
        return out

    def _child_seconds(self) -> Dict[str, float]:
        children: Dict[str, float] = {}
        for span in self.recorder.spans:
            if span.parent_id is not None:
                children[span.parent_id] = (children.get(span.parent_id, 0.0)
                                            + span.duration_s)
        return children

    def partition_error_s(self, root: Span) -> float:
        """|sum of self times - root wall time|: zero up to float error
        when every span nests inside its parent."""
        return abs(sum(self.self_times().values()) - root.duration_s)

    def write_trace(self, path) -> Optional[str]:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_merged_trace(path, self.recorder.spans, label="perfbench")
        return str(path)


def _own(span: Span, children: Dict[str, float]) -> float:
    """Self seconds: the span minus its children and its hook calls."""
    return (span.duration_s - children.get(span.span_id, 0.0)
            - span.attrs.get("hook_s", 0.0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
