"""Builders for every results table and figure in the paper.

Each function runs the experiments it needs (through the cached runner)
and returns a :class:`TableResult` holding both structured data and a
rendered ASCII rendition of the paper's table/figure.  The benchmark
suite under ``benchmarks/`` prints these and asserts the paper's
qualitative claims on the structured data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..contracts import Contract
from ..fuzzing import CampaignConfig, run_campaign
from .executor import RunSummary, run_batch
from .runner import (
    CLASS_BASELINE,
    CORES,
    DEFENSES,
    RunSpec,
    geomean,
    render_table,
)

#: SPEC2017-like suite used for the general-purpose experiments
#: (int + fp, mirroring the paper's Fig. 6 benchmark set).
SPEC = tuple(sorted([
    "perlbench.s", "gcc.s", "mcf.s", "omnetpp.s", "xalancbmk.s", "x264.s",
    "deepsjeng.s", "leela.s", "exchange2.s", "xz.s",
    "bwaves.s", "cactuBSSN.s", "fotonik3d.s", "lbm.s", "nab.s", "pop2.s",
    "wrf.s",
]))
PARSEC = tuple(sorted([
    "blackscholes.p", "canneal.p", "dedup.p", "ferret.p",
    "fluidanimate.p", "swaptions.p",
]))
ARCH_WASM = tuple(sorted([
    "bzip2.w", "mcf.w", "milc.w", "namd.w", "libquantum.w", "lbm.w",
]))
CTS_CRYPTO = tuple(sorted([
    "hacl.chacha20", "hacl.curve25519", "hacl.poly1305",
    "sodium.salsa20", "sodium.sha256",
    "ossl.chacha20", "ossl.curve25519", "ossl.sha256",
]))
CT_CRYPTO = ("bearssl", "ctaes", "djbsort")
UNR_CRYPTO = ("ossl.bnexp", "ossl.dh", "ossl.ecadd")
NGINX = ("nginx.c1r1", "nginx.c2r2", "nginx.c1r4", "nginx.c4r1",
         "nginx.c4r4")

#: A faster subset for the sweep-style experiments (Fig. 5, ablations).
SPEC_INT_FAST = ("perlbench.s", "mcf.s", "xalancbmk.s", "omnetpp.s",
                 "xz.s", "deepsjeng.s")


@dataclass
class TableResult:
    """Structured data plus rendered text for one table/figure."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.name, self.headers, self.rows)


# ----------------------------------------------------------------------
# Batch plumbing: every builder declares its full RunSpec matrix up
# front and resolves it in one run_batch() call, so the whole grid fans
# out over worker processes (and the persistent cache) at once.
# ----------------------------------------------------------------------

def _spec(workload: str, defense: str = "unsafe",
          instrument: Optional[str] = None, core: str = "P",
          **knobs) -> RunSpec:
    return RunSpec(workload=workload, defense=defense,
                   instrument=instrument, core=core, **knobs)


def _norm(summaries: Dict[RunSpec, RunSummary], workload: str,
          defense: str, instrument: Optional[str] = None,
          core: str = "P", **knobs) -> float:
    """``norm_runtime`` over pre-resolved batch summaries."""
    base = summaries[_spec(workload, core=core)]
    this = summaries[_spec(workload, defense, instrument, core, **knobs)]
    return this.cycles / base.cycles


# ======================================================================
# Tab. IV — geomean normalized runtimes for all eight Protean configs
# ======================================================================

def table_iv(cores: Tuple[str, ...] = ("P", "E"),
             include_parsec: bool = True,
             jobs: Optional[int] = None) -> TableResult:
    rows: List[List[object]] = []
    data: Dict = {}
    suites: List[Tuple[str, Tuple[str, ...], str]] = []
    for core in cores:
        suites.append((f"SPEC2017 {core}-core", SPEC, core))
    if include_parsec:
        suites.append(("PARSEC", PARSEC, "P"))

    specs: List[RunSpec] = []
    for clazz in ("arch", "cts", "ct", "unr"):
        baseline = CLASS_BASELINE[clazz]
        for _, names, core in suites:
            for n in names:
                specs.append(_spec(n, core=core))
                specs.append(_spec(n, baseline, core=core))
                specs.append(_spec(n, "delay", clazz, core))
                specs.append(_spec(n, "track", clazz, core))
    summaries = run_batch(specs, jobs=jobs)

    for clazz in ("arch", "cts", "ct", "unr"):
        baseline = CLASS_BASELINE[clazz]
        for label, names, core in suites:
            base = geomean(_norm(summaries, n, baseline, core=core)
                           for n in names)
            delay = geomean(_norm(summaries, n, "delay", clazz, core)
                            for n in names)
            track = geomean(_norm(summaries, n, "track", clazz, core)
                            for n in names)
            rows.append([clazz.upper(), label, baseline.upper(), base,
                         delay, track])
            data[(clazz, label)] = {"baseline": base, "delay": delay,
                                    "track": track}
    return TableResult(
        "Table IV: geomean normalized runtime (baseline vs Protean)",
        ["class", "suite", "baseline", "baseline_x", "Delay", "Track"],
        rows, data)


# ======================================================================
# Tab. V — single-class suites and multi-class nginx
# ======================================================================

#: Table V's suites, in row order: name -> (workloads, baseline defense).
TABLE_V_SUITES: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "arch-wasm": (ARCH_WASM, "stt"),
    "cts-crypto": (CTS_CRYPTO, "spt"),
    "ct-crypto": (CT_CRYPTO, "spt"),
    "unr-crypto": (UNR_CRYPTO, "spt-sb"),
    "nginx": (NGINX, "spt-sb"),
}


def table_v(include: Tuple[str, ...] = tuple(TABLE_V_SUITES),
            jobs: Optional[int] = None) -> TableResult:
    specs: List[RunSpec] = []
    for suite in include:
        names, baseline = TABLE_V_SUITES[suite]
        for name in names:
            specs.append(_spec(name))
            specs.append(_spec(name, baseline))
            specs.append(_spec(name, "delay", "auto"))
            specs.append(_spec(name, "track", "auto"))
    summaries = run_batch(specs, jobs=jobs)

    rows: List[List[object]] = []
    data: Dict = {}
    for suite in include:
        names, baseline = TABLE_V_SUITES[suite]
        base_values, delay_values, track_values = [], [], []
        for name in names:
            base = _norm(summaries, name, baseline)
            delay = _norm(summaries, name, "delay", "auto")
            track = _norm(summaries, name, "track", "auto")
            rows.append([suite, name, baseline.upper(), base, delay, track])
            base_values.append(base)
            delay_values.append(delay)
            track_values.append(track)
            data[name] = {"baseline": base, "delay": delay, "track": track}
        rows.append([suite, "geomean", baseline.upper(),
                     geomean(base_values), geomean(delay_values),
                     geomean(track_values)])
        data[f"{suite}:geomean"] = {
            "baseline": geomean(base_values),
            "delay": geomean(delay_values),
            "track": geomean(track_values),
        }
    return TableResult(
        "Table V: normalized runtime on single-class and multi-class "
        "workloads (P-core)",
        ["suite", "benchmark", "baseline", "baseline_x", "Delay", "Track"],
        rows, data)


# ======================================================================
# Tab. I — overhead summary per vulnerable-code class
# ======================================================================

def table_i(jobs: Optional[int] = None) -> TableResult:
    """Percent overheads of the best baseline vs Protean per class
    (derived from the Tab. V suites, as the paper's Tab. I derives from
    its Tab. V)."""
    spec_v = table_v(jobs=jobs)
    data = spec_v.data

    def pct(value: float) -> str:
        return f"{100 * (value - 1):.0f}%"

    rows = []
    mapping = [
        ("ARCH", "arch-wasm:geomean", "STT"),
        ("CTS", "cts-crypto:geomean", "SPT"),
        ("CT", "ct-crypto:geomean", "SPT"),
        ("UNR", "unr-crypto:geomean", "SPT-SB"),
        ("multi (nginx)", "nginx:geomean", "SPT-SB"),
    ]
    structured = {}
    for label, key, baseline in mapping:
        entry = data[key]
        rows.append([label, baseline, pct(entry["baseline"]),
                     pct(entry["delay"]), pct(entry["track"])])
        structured[label] = entry
    return TableResult(
        "Table I: runtime overheads of the most performant applicable "
        "defense per class",
        ["class", "baseline", "baseline_ovh", "ProtDelay_ovh",
         "ProtTrack_ovh"],
        rows, {"classes": structured})


# ======================================================================
# Fig. 6 — per-benchmark normalized runtimes
# ======================================================================

def figure_6(names: Optional[Tuple[str, ...]] = None,
             jobs: Optional[int] = None) -> TableResult:
    if names is None:
        names = SPEC + PARSEC
    specs: List[RunSpec] = []
    for name in names:
        specs.append(_spec(name))
        specs.append(_spec(name, "stt"))
        specs.append(_spec(name, "spt"))
        specs.append(_spec(name, "track", "arch"))
        specs.append(_spec(name, "track", "ct"))
    summaries = run_batch(specs, jobs=jobs)

    rows = []
    data = {}
    for name in names:
        stt = _norm(summaries, name, "stt")
        spt = _norm(summaries, name, "spt")
        track_arch = _norm(summaries, name, "track", "arch")
        track_ct = _norm(summaries, name, "track", "ct")
        rows.append([name, stt, track_arch, spt, track_ct])
        data[name] = {"stt": stt, "track_arch": track_arch, "spt": spt,
                      "track_ct": track_ct}
    return TableResult(
        "Figure 6: per-benchmark normalized runtime "
        "(Protean-Track-ARCH/-CT vs STT/SPT)",
        ["benchmark", "STT", "Track-ARCH", "SPT", "Track-CT"],
        rows, data)


# ======================================================================
# Fig. 5 — access-predictor sensitivity
# ======================================================================

def figure_5(entry_sweep: Tuple = (2, 4, 16, 256, 1024, "inf"),
             names: Tuple[str, ...] = SPEC_INT_FAST,
             jobs: Optional[int] = None) -> TableResult:
    specs: List[RunSpec] = [_spec(name) for name in names]
    for entries in entry_sweep:
        for name in names:
            for clazz in ("arch", "ct"):
                specs.append(_spec(name, "track", clazz,
                                   predictor_entries=entries))
    summaries = run_batch(specs, jobs=jobs)

    rows = []
    data = {}
    for entries in entry_sweep:
        overheads = []
        predictions = 0
        mispredictions = 0
        for name in names:
            for clazz in ("arch", "ct"):
                result = summaries[_spec(name, "track", clazz,
                                         predictor_entries=entries)]
                base = summaries[_spec(name)]
                overheads.append(result.cycles / base.cycles)
                stats = result.stat
                predictions += stats.get("defense_predictions", 0)
                mispredictions += stats.get("defense_mispredictions", 0)
        rate = mispredictions / predictions if predictions else 0.0
        overhead = geomean(overheads)
        rows.append([str(entries), f"{100 * rate:.2f}%", overhead])
        data[entries] = {"mispredict_rate": rate, "overhead": overhead}
    return TableResult(
        "Figure 5: ProtTrack access-predictor sensitivity "
        "(SPEC-like, ProtCC-ARCH/-CT, P-core)",
        ["entries", "mispredict_rate", "norm_runtime"],
        rows, data)


# ======================================================================
# Overhead attribution — where each defense's cycles go
# ======================================================================

#: Stall causes grouped into the report's attribution columns.
ATTRIBUTION_GROUPS = (
    ("frontend", ("frontend", "fetch_redirect")),
    ("backend", ("rob_full", "iq_full", "lsq_full", "prf_starved",
                 "dependency", "issue_bw", "exec_latency",
                 "mem_disambiguation", "drain", "no_progress")),
    ("cache_miss", ("cache_miss",)),
    ("div_busy", ("div_busy",)),
    ("def_transmit", ("defense_transmitter",)),
    ("def_wakeup", ("defense_wakeup",)),
    ("def_resolve", ("defense_resolution", "squash_notify")),
)

#: Defenses the attribution table compares (harness name -> instrument).
ATTRIBUTION_DEFENSES = (
    ("unsafe", None),
    ("nda", None),
    ("stt", None),
    ("spt", None),
    ("spt-sb", None),
    ("delay", "auto"),
    ("track", "auto"),
)


def overhead_attribution(names: Tuple[str, ...] = SPEC_INT_FAST,
                         jobs: Optional[int] = None) -> TableResult:
    """Per-defense stall-cause attribution: for each defense, the share
    of total issue slots (``width * cycles``) lost to each stall-cause
    group, plus the geomean normalized runtime it explains.  This is the
    table that says *why* a defense's overhead moved."""
    specs = [_spec(n, defense, instrument)
             for defense, instrument in ATTRIBUTION_DEFENSES
             for n in names]
    summaries = run_batch(specs, jobs=jobs)
    width = CORES["P"].width

    rows: List[List[object]] = []
    data: Dict = {}
    for defense, instrument in ATTRIBUTION_DEFENSES:
        slots = 0
        committed = 0
        totals = {label: 0 for label, _ in ATTRIBUTION_GROUPS}
        norms = []
        for n in names:
            summary = summaries[_spec(n, defense, instrument)]
            stats = summary.stat
            slots += width * summary.cycles
            committed += stats.get("committed_uops", 0)
            for label, causes in ATTRIBUTION_GROUPS:
                totals[label] += sum(stats.get(f"stall_{c}", 0)
                                     for c in causes)
            norms.append(_norm(summaries, n, defense, instrument))
        shares = {label: totals[label] / slots if slots else 0.0
                  for label, _ in ATTRIBUTION_GROUPS}
        shares["commit"] = committed / slots if slots else 0.0
        norm = geomean(norms)
        rows.append([defense, norm, f"{100 * shares['commit']:.1f}%"]
                    + [f"{100 * shares[label]:.1f}%"
                       for label, _ in ATTRIBUTION_GROUPS])
        data[defense] = {"norm_runtime": norm, "shares": shares}
    return TableResult(
        "Overhead attribution: share of issue slots per stall cause "
        "(SPEC-like subset, P-core)",
        ["defense", "norm_runtime", "commit"]
        + [label for label, _ in ATTRIBUTION_GROUPS],
        rows, data)


def speculation_anatomy(names: Tuple[str, ...] = SPEC_INT_FAST,
                        defenses=ATTRIBUTION_DEFENSES,
                        jobs: Optional[int] = None,
                        core: str = "P") -> TableResult:
    """Per-defense overhead anatomy: which gating hook intervened, on
    how many uops, for how many cycles — the episode-level view that
    explains the coarse ``def_*`` stall shares of
    :func:`overhead_attribution` — plus transient-uop pressure
    (fetched-but-never-committed share)."""
    from ..uarch.speculation import intervention_summary, transient_summary

    specs = [_spec(n, defense, instrument, core)
             for defense, instrument in defenses
             for n in names]
    specs += [_spec(n, core=core) for n in names]  # baselines for norm
    summaries = run_batch(specs, jobs=jobs)

    rows: List[List[object]] = []
    data: Dict = {}
    for defense, instrument in defenses:
        totals: Dict[str, float] = {}
        norms = []
        for n in names:
            summary = summaries[_spec(n, defense, instrument, core)]
            for key, value in summary.stat.items():
                totals[key] = totals.get(key, 0) + value
            norms.append(_norm(summaries, n, defense, instrument, core))
        hooks = intervention_summary(totals)
        transient = transient_summary(totals)
        fetched = transient["fetched_uops"]
        transient_share = (transient["transient_uops"] / fetched
                           if fetched else 0.0)
        row = [defense, geomean(norms), f"{100 * transient_share:.1f}%"]
        for hook in ("execute", "resolve", "wakeup"):
            row.append(hooks[hook]["interventions"])
            row.append(hooks[hook]["delay_cycles"])
        rows.append(row)
        data[defense] = {
            "norm_runtime": geomean(norms),
            "transient_share": transient_share,
            "transient": transient,
            "hooks": hooks,
        }
    return TableResult(
        "Overhead anatomy: defense interventions per gating hook "
        f"(episodes / delay cycles; SPEC-like subset, {core}-core)",
        ["defense", "norm_runtime", "transient",
         "exec_n", "exec_cyc", "resolve_n", "resolve_cyc",
         "wakeup_n", "wakeup_cyc"],
        rows, data)


# ======================================================================
# Mitigations — software passes vs hardware defenses
# ======================================================================

#: Schemes the mitigation table compares.  SW rows run the mitigated
#: binary on the *unsafe* core (the mitigation pays the whole security
#: bill); HW rows run the base binary under a hardware defense.
MITIGATION_SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("fence", "SW"),
    ("slh", "SW"),
    ("mask", "SW"),
    ("blade", "SW"),
    ("stt", "HW"),
    ("spt", "HW"),
    ("spt-sb", "HW"),
)


def mitigation_table(names: Tuple[str, ...] = SPEC_INT_FAST,
                     jobs: Optional[int] = None) -> TableResult:
    """Software Spectre mitigations (compiled into the binary, run on
    the unsafe core) against the hardware defenses they approximate:
    per-workload normalized runtime, geomean, the observatory's
    transient-uop share (software fences collapse it; hardware defenses
    leave it intact and gate transmitters instead), and static
    code-size overhead for the software rows."""
    from ..protcc import mitigate_program
    from ..uarch.speculation import transient_summary
    from ..workloads import get_workload

    specs: List[RunSpec] = [_spec(n) for n in names]
    for scheme, kind in MITIGATION_SCHEMES:
        for n in names:
            if kind == "SW":
                specs.append(_spec(n, mitigation=scheme))
            else:
                specs.append(_spec(n, scheme))
    summaries = run_batch(specs, jobs=jobs)

    rows: List[List[object]] = []
    data: Dict = {}
    for scheme, kind in MITIGATION_SCHEMES:
        knobs = {"mitigation": scheme} if kind == "SW" else {}
        defense = "unsafe" if kind == "SW" else scheme
        norms = []
        per_workload: Dict[str, float] = {}
        totals: Dict[str, float] = {}
        for n in names:
            norm = _norm(summaries, n, defense, **knobs)
            norms.append(norm)
            per_workload[n] = norm
            summary = summaries[_spec(n, defense, **knobs)]
            for key, value in summary.stat.items():
                totals[key] = totals.get(key, 0) + value
        transient = transient_summary(totals)
        fetched = transient["fetched_uops"]
        transient_share = (transient["transient_uops"] / fetched
                           if fetched else 0.0)
        if kind == "SW":
            size = sum(
                mitigate_program(get_workload(n).program,
                                 scheme).code_size_overhead
                for n in names) / len(names)
            size_cell = f"{100 * size:+.1f}%"
        else:
            size = 0.0
            size_cell = "-"
        rows.append([scheme, kind] + norms
                    + [geomean(norms), f"{100 * transient_share:.1f}%",
                       size_cell])
        data[scheme] = {
            "kind": kind,
            "norm_runtime": geomean(norms),
            "per_workload": per_workload,
            "transient_share": transient_share,
            "code_size_overhead": size,
        }
    return TableResult(
        "Mitigations: software passes (unsafe core) vs hardware "
        "defenses — normalized runtime, transient share, code size",
        ["scheme", "kind"] + list(names)
        + ["geomean", "transient", "code_size"],
        rows, data)


# ======================================================================
# Tab. II — AMuLeT* security-contract testing
# ======================================================================

def table_ii(n_programs: int = 6, pairs: int = 3,
             seed: int = 2026, jobs: Optional[int] = None,
             report_dir: Optional[str] = None) -> TableResult:
    """With ``report_dir`` set, cells that record violations (in
    practice the unsafe core) additionally capture leak witnesses and
    emit forensics artifacts under ``<report_dir>/<contract>-<class>/``.
    The table itself is identical either way."""
    cells = [
        ("UNPROT-SEQ", "rand", Contract.UNPROT_SEQ),
        ("ARCH-SEQ", "arch", Contract.ARCH_SEQ),
        ("CTS-SEQ", "cts", Contract.CTS_SEQ),
        ("CT-SEQ", "ct", Contract.CT_SEQ),
        ("CT-SEQ", "unr", Contract.CT_SEQ),
    ]
    configs = [("Unsafe", "unsafe"), ("ProtDelay", "delay"),
               ("ProtTrack", "track")]
    rows = []
    data = {}
    for contract_name, instrumentation, contract in cells:
        row: List[object] = [contract_name, f"ProtCC-{instrumentation.upper()}"]
        for label, defense in configs:
            campaign = CampaignConfig(
                defense_factory=DEFENSES[defense],
                contract=contract,
                instrumentation=instrumentation,
                n_programs=n_programs,
                pairs_per_program=pairs,
                seed=seed,
                defense_name=defense,
                collect_witnesses=report_dir is not None,
            )
            result = run_campaign(campaign, jobs=jobs)
            row.append(f"{result.violations} ({result.false_positives})")
            data[(contract_name, instrumentation, label)] = result
            if report_dir is not None and result.witnesses:
                from ..forensics import write_forensics_report

                cell_dir = (f"{contract.value}-{instrumentation}-{defense}"
                            .replace("/", "_"))
                write_forensics_report(
                    result, f"{report_dir}/{cell_dir}",
                    minimize=False,
                    title=f"Tab. II leak forensics: {contract_name} / "
                          f"ProtCC-{instrumentation.upper()} / {label}")
        rows.append(row)
    return TableResult(
        "Table II: contract violations, 'true (false-positive)', per "
        "hardware configuration",
        ["contract", "instrumentation", "Unsafe", "ProtDelay", "ProtTrack"],
        rows, data)
