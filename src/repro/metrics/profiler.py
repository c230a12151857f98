"""Host-side profiling: where does simulator wall time actually go?

``repro profile <workload>`` wraps one simulation in :mod:`cProfile`
and aggregates the flat profile by *simulator subsystem* — pipeline
stages, caches, defense hooks, ISA semantics — via a module-to-
subsystem map, so "make the hot path faster" work starts from a
breakdown in the simulator's own vocabulary instead of a wall of
function names.

The compiled backend's generated modules (``<repro-compiled:…>``
frames) form the ``compiled`` subsystem, one function per closure
(``run``, ``try_exec``, ``attempt_res``, ``do_wakeup``, ``classify``,
``rename_blocked``, ...), and the import system's frames form
``imports``.  A built-in (``any``, ``list.sort``, ``compile``,
``heappush``) has no subsystem of its own: its time is charged to its
callers' subsystems in proportion to the time each caller spent in it.

Because the subsystem map partitions every profiled function (unmatched
frames land in ``host-runtime``), the per-subsystem times sum exactly
to the profile's total internal time — asserted by the test suite, so
the breakdown can never silently drop a hot spot.

Two outputs:

* :meth:`ProfileReport.render` — per-subsystem table plus the top-N
  functions by internal time;
* :meth:`ProfileReport.write_collapsed` — ``subsystem;function count``
  collapsed-stack lines (counts in microseconds of internal time),
  directly consumable by flamegraph tools (``flamegraph.pl``,
  speedscope, inferno).
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

#: First match wins: (path fragment under ``src/repro/``, subsystem).
SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    ("uarch/pipeline", "pipeline"),
    ("uarch/caches", "caches"),
    ("uarch/branch_predictor", "branch-predictor"),
    ("uarch/structures", "rob-iq-lsq"),
    ("uarch/trace", "tracing"),
    ("uarch/", "uarch-other"),
    ("defenses/", "defense-hooks"),
    ("protisa/", "protisa-tags"),
    ("arch/", "arch-semantics"),
    ("isa/", "isa"),
    ("protcc/", "protcc"),
    ("contracts/", "contracts"),
    ("fuzzing/", "fuzzing"),
    ("workloads/", "workloads"),
    ("forensics/", "forensics"),
    ("metrics/", "metrics"),
    ("bench/", "bench-harness"),
)

#: Catch-all for frames outside ``src/repro`` (stdlib, and built-ins
#: called from such frames).
HOST_SUBSYSTEM = "host-runtime"

#: Filename prefix of the compiled backend's generated modules
#: (:func:`repro.uarch.compiled.compile_step`).
COMPILED_PREFIX = "<repro-compiled:"

#: Filename prefix of the import system's frames: module loading the
#: run triggers (lazy imports; source compiles when no bytecode cache).
IMPORT_PREFIX = "<frozen importlib"

#: cProfile's filename for built-in functions.
BUILTIN_FILE = "~"


def classify_module(filename: str) -> str:
    """Map a profiled frame's filename to its simulator subsystem."""
    if filename.startswith(COMPILED_PREFIX):
        return "compiled"
    if filename.startswith(IMPORT_PREFIX):
        return "imports"
    path = filename.replace("\\", "/")
    marker = "/repro/"
    index = path.rfind(marker)
    if index < 0:
        return HOST_SUBSYSTEM
    relative = path[index + len(marker):]
    for fragment, subsystem in SUBSYSTEM_RULES:
        if relative.startswith(fragment):
            return subsystem
    return "repro-other"


@dataclass
class ProfileEntry:
    """One profiled function, already classified."""

    subsystem: str
    function: str          # "module.py:line(name)"
    calls: int
    internal_s: float      # tottime: time in the frame itself
    cumulative_s: float    # ct: including callees


@dataclass
class ProfileReport:
    """Aggregated outcome of one profiled simulation."""

    label: str
    cycles: int
    total_s: float                     # sum of every frame's tottime
    subsystems: Dict[str, float] = field(default_factory=dict)
    subsystem_calls: Dict[str, int] = field(default_factory=dict)
    entries: List[ProfileEntry] = field(default_factory=list)

    @property
    def sim_cycles_per_sec(self) -> float:
        return self.cycles / self.total_s if self.total_s else 0.0

    def top(self, n: int = 15) -> List[ProfileEntry]:
        return sorted(self.entries, key=lambda e: -e.internal_s)[:n]

    def render(self, top_n: int = 15) -> str:
        from ..bench.runner import render_table

        rows = [[name, f"{seconds:.3f}",
                 f"{100 * seconds / self.total_s:.1f}%" if self.total_s
                 else "-",
                 self.subsystem_calls.get(name, 0)]
                for name, seconds in sorted(self.subsystems.items(),
                                            key=lambda kv: -kv[1])
                if seconds > 0 or self.subsystem_calls.get(name, 0)]
        lines = [
            f"profile: {self.label} — {self.cycles} sim cycles in "
            f"{self.total_s:.3f}s host time "
            f"({self.sim_cycles_per_sec:,.0f} cycles/s)",
            "",
            render_table("host time by subsystem",
                         ["subsystem", "seconds", "share", "calls"], rows),
            "",
            render_table(
                f"top {top_n} functions by internal time",
                ["subsystem", "function", "calls", "internal_s", "cum_s"],
                [[e.subsystem, e.function, e.calls,
                  f"{e.internal_s:.3f}", f"{e.cumulative_s:.3f}"]
                 for e in self.top(top_n)]),
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "cycles": self.cycles,
            "total_s": self.total_s,
            "sim_cycles_per_sec": self.sim_cycles_per_sec,
            "subsystems": dict(sorted(self.subsystems.items())),
            "top": [{"subsystem": e.subsystem, "function": e.function,
                     "calls": e.calls, "internal_s": e.internal_s,
                     "cumulative_s": e.cumulative_s}
                    for e in self.top()],
        }

    def collapsed_stacks(self) -> List[str]:
        """``subsystem;function <microseconds>`` lines, one per frame.

        cProfile records a call *graph*, not full stacks, so the frames
        collapse under their subsystem rather than their true caller
        chain — coarse, but exact in where the time went, and every
        flamegraph tool renders it directly.
        """
        lines = []
        for entry in sorted(self.entries,
                            key=lambda e: (e.subsystem, e.function)):
            micros = int(round(entry.internal_s * 1e6))
            if micros <= 0:
                continue
            frame = entry.function.replace(";", ":").replace(" ", "_")
            lines.append(f"{entry.subsystem};{frame} {micros}")
        return lines

    def write_collapsed(self, path: Union[str, pathlib.Path]
                        ) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text("\n".join(self.collapsed_stacks()) + "\n")
        return path


def profile_spec(spec, top_n: int = 15) -> ProfileReport:
    """Profile one :class:`~repro.bench.runner.RunSpec` simulation."""
    from ..bench.runner import execute_spec

    profile = cProfile.Profile()
    profile.enable()
    try:
        result = execute_spec(spec)
    finally:
        profile.disable()
    report = report_from_stats(pstats.Stats(profile),
                               label=f"{spec.workload} "
                                     f"defense={spec.defense} "
                                     f"core={spec.core}",
                               cycles=result.cycles)
    return report


def _function_label(filename: str, lineno: int, funcname: str) -> str:
    if filename.startswith(COMPILED_PREFIX):
        return f"<repro-compiled>({funcname})"
    if filename == BUILTIN_FILE:
        return f"<built-in>({funcname})"
    return f"{pathlib.PurePath(filename).name}:{lineno}({funcname})"


def report_from_stats(stats: pstats.Stats, label: str,
                      cycles: int = 0) -> ProfileReport:
    """Aggregate a :class:`pstats.Stats` flat profile by subsystem.

    Generated-code frames merge by closure name across artifacts.  A
    built-in is split over its callers' subsystems, weighted by the
    time each caller spent in it (by call count when cProfile measured
    no time), one entry per subsystem.
    """
    merged: Dict[Tuple[str, str], ProfileEntry] = {}

    def add(subsystem, function, calls, internal_s, cumulative_s):
        entry = merged.get((subsystem, function))
        if entry is None:
            merged[subsystem, function] = ProfileEntry(
                subsystem, function, calls, internal_s, cumulative_s)
        else:
            entry.calls += calls
            entry.internal_s += internal_s
            entry.cumulative_s += cumulative_s

    for (filename, lineno, funcname), row in stats.stats.items():
        _, ncalls, tottime, cumtime, callers = row
        function = _function_label(filename, lineno, funcname)
        if filename != BUILTIN_FILE or not callers:
            add(classify_module(filename), function, ncalls, tottime,
                cumtime)
            continue
        # callers: caller -> (calls, primitive calls, tottime, cumtime)
        shares: Dict[str, List[float]] = {}
        for caller, (calls, _, caller_tt, _) in callers.items():
            share = shares.setdefault(classify_module(caller[0]), [0, 0.0])
            share[0] += calls
            share[1] += caller_tt
        by = 1 if any(share[1] > 0 for share in shares.values()) else 0
        weight = sum(share[by] for share in shares.values())
        for subsystem, share in shares.items():
            part = share[by] / weight
            add(subsystem, function, share[0], tottime * part,
                cumtime * part)

    report = ProfileReport(label=label, cycles=cycles, total_s=0.0)
    for entry in merged.values():
        report.entries.append(entry)
        report.subsystems[entry.subsystem] = \
            report.subsystems.get(entry.subsystem, 0.0) + entry.internal_s
        report.subsystem_calls[entry.subsystem] = \
            report.subsystem_calls.get(entry.subsystem, 0) + entry.calls
        report.total_s += entry.internal_s
    return report
