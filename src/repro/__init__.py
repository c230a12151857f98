"""Reproduction of "Protean: A Programmable Spectre Defense" (HPCA 2026).

Subpackages:

* :mod:`repro.isa`       — the PROT-prefixed micro-op ISA and tooling.
* :mod:`repro.arch`      — sequential reference machine + observer modes.
* :mod:`repro.uarch`     — the speculative out-of-order core.
* :mod:`repro.protisa`   — ProtISA's microarchitectural tag support.
* :mod:`repro.defenses`  — protection mechanisms (baselines + Protean).
* :mod:`repro.protcc`    — the ProtCC compiler passes.
* :mod:`repro.contracts` — security contracts and violation checking.
* :mod:`repro.fuzzing`   — the AMuLeT*-style fuzzer.
* :mod:`repro.forensics` — leak witnesses, minimization, explanation.
* :mod:`repro.workloads` — the synthetic benchmark suites.
* :mod:`repro.bench`     — the experiment harness (paper tables/figures).
* :mod:`repro.metrics`   — metrics registry, span tracing, host profiler.

Run ``python -m repro --help`` for the artifact-style command line.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
