"""Regenerate ``reference.json``: the answers the benchmark's correctness
gate pins, produced once by the ``engine="ref"`` interpreter.

    python3 perfbench/pin.py

Pins ``(cycles, instructions, halt_reason)`` of every panel spec on
both cores, and the per-program tallies of the fuzz-cell campaign for
its default seed.  Run it only when a change is meant to alter what
the simulator computes.
"""

from __future__ import annotations

import json
import sys
import time

import env

env.prepare()

from repro.bench import runner  # noqa: E402
from repro.fuzzing import campaign  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    caches = wl.CacheDirs(env.OUT)
    caches.fresh()
    try:
        started = time.perf_counter()
        specs = {}
        for spec in wl.panel_specs(("P", "E")):
            specs[wl.spec_key(spec)] = wl.answer(
                runner.execute_spec(spec, engine="ref"))
        print(f"panel: {len(specs)} specs in "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
        started = time.perf_counter()
        config = wl.fuzz_config(wl.FUZZ_PINNED_SEED, wl.FUZZ_PROGRAMS)
        programs = []
        with wl.engine("ref"):
            total = campaign.run_campaign(
                config, jobs=1,
                on_program=lambda seed, partial: programs.append(
                    {"program_seed": seed, "tallies": partial.to_dict()}))
        print(f"fuzz-cell: {total.summary()} in "
              f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    finally:
        caches.close()
    reference = {
        "engine": "ref",
        "specs": specs,
        "fuzz_cell": {"seed": wl.FUZZ_PINNED_SEED,
                      "campaign": total.to_dict(),
                      "programs": programs},
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                            sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
