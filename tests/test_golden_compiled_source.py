"""Structural checks on the compiled backend's generated source.

Behaviour is pinned elsewhere: ``tests/golden/core_stats.json`` and the
``repro diff`` grid compare every result against the reference engine,
and ``test_generated_source_is_deterministic`` keeps the text identical
from one generation to the next.  These tests pin what the
generator must leave out or put in, whatever else the emitted text
looks like:

* the Unsafe triple binds no defense hook;
* a hook the defense class does not override is not bound;
* intervention-episode code appears only for live gates;
* MFENCE serialization is emitted if and only if the program has one;
* the divider check and a live ``may_execute`` gate are emitted once
  per issue site, ahead of the per-kind dispatch;
* the rename stage is straight-line per uop: no comprehension,
  generator or set, and no loop but the one over the rename width;
* the generated source still ``exec``-s into a ``run`` function.
"""

import ast
import re
import textwrap

import pytest

from repro.bench.runner import DEFENSES
from repro.defenses import Defense, Unsafe
from repro.fixtures import FIXTURES, build
from repro.protcc import mitigate_program
from repro.uarch.compiled import generate_source
from repro.uarch.config import E_CORE, P_CORE, SpeculationModel

#: Gate -> the stats stem its episode code updates.
GATE_STEMS = {"may_execute": "exec", "may_resolve": "resolve",
              "may_wakeup": "wakeup"}


def _source(defense, fixture="v1-gadget", config=P_CORE):
    return generate_source(build(fixture)[0], config, defense)


def _bound_hooks(source):
    """Defense methods the generated ``run`` binds to ``d_*`` locals."""
    return set(re.findall(r"^\s+d_\w+ = d\.(\w+)$", source, re.M))


def _closure(source, name):
    """The source of one closure nested in the generated ``run``."""
    tree = ast.parse(source)
    run = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    node = next(node for node in run.body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(source, node)


def _overrides(defense, hook):
    return getattr(type(defense), hook) is not getattr(Defense, hook)


def test_unsafe_binds_no_defense_hook():
    for fixture in FIXTURES:
        source = _source(Unsafe(), fixture,
                         P_CORE.replace(buggy_squash_notify=True))
        assert not re.search(r"\bd_\w+", source), fixture


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_only_overridden_hooks_are_bound(name):
    defense = DEFENSES[name]()
    bound = _bound_hooks(_source(defense))
    assert all(_overrides(defense, hook) for hook in bound), bound
    # The gadget has branches, loads and stores: every live gate runs.
    for gate in GATE_STEMS:
        assert (gate in bound) == _overrides(defense, gate), gate


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_episode_code_only_for_live_gates(name):
    defense = DEFENSES[name]()
    source = _source(defense)
    for gate, stem in GATE_STEMS.items():
        emitted = f"dstats['{stem}_interventions']" in source
        assert emitted == _overrides(defense, gate), gate


def test_mfence_serialization_iff_program_has_mfence():
    plain = build("v1-gadget")[0]
    fenced = mitigate_program(FIXTURES["v1-gadget"].program(),
                              "fence").program
    for program, has_fence in ((plain, False), (fenced, True)):
        assert any(inst.op.name == "MFENCE"
                   for inst in program.instructions) == has_fence
        source = generate_source(program, P_CORE, Unsafe())
        try_exec = _closure(source, "try_exec")
        # Fetch stops at a fence; the fence's execution releases it.
        assert ("# MFENCE\n" in source) == has_fence
        assert ("fblocked = False" in try_exec) == has_fence


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_execute_gate_emitted_once_per_issue_site(name):
    # Two issue sites: the ``try_exec`` closure the blocked pass calls,
    # and the ready-queue pass, which inlines the same code.
    defense = DEFENSES[name]()
    live = _overrides(defense, "may_execute")
    fenced = mitigate_program(FIXTURES["v1-gadget"].program(),
                              "fence").program
    for program in [build(fixture)[0] for fixture in FIXTURES] + [fenced]:
        source = generate_source(program, P_CORE, defense)
        # A triple where nothing can refuse an issue has no closure.
        try_exec = (_closure(source, "try_exec")
                    if "def try_exec(" in source else "")
        for check, present in (("d_may_exec(u)", live),
                               ("u.block_reason = 'div_busy'",
                                any(i.is_div for i in program.instructions))):
            assert (source.count(check), try_exec.count(check)) \
                == ((2, 1) if present else (0, 0)), (check, program)


def _rename_block(source):
    """The rename stage of the generated ``run``, as a parsed tree."""
    start = source.rindex("\n", 0,
                          source.index("# ---- rename / dispatch ----"))
    block = source[start + 1:source.index("# ---- fetch ----", start)]
    return ast.parse(textwrap.dedent(block))


@pytest.mark.parametrize("name", sorted(DEFENSES))
def test_rename_is_straight_line_per_uop(name):
    fenced = mitigate_program(FIXTURES["v1-gadget"].program(),
                              "fence").program
    for program in [build(fixture)[0] for fixture in FIXTURES] + [fenced]:
        for config in (P_CORE, E_CORE):
            tree = _rename_block(
                generate_source(program, config, DEFENSES[name]()))
            nodes = list(ast.walk(tree))
            assert not [n for n in nodes if isinstance(n, (
                ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
                ast.Set))], (name, program)
            assert not [n for n in nodes if isinstance(n, ast.Name)
                        and n.id == "set"], (name, program)
            # One loop: over the rename width, not over SRCS or DESTS.
            loops = [ast.unparse(n.iter) if isinstance(n, ast.For)
                     else "while" for n in nodes
                     if isinstance(n, (ast.For, ast.While))]
            assert loops == [f"range({config.width})"], (name, program)


def _assert_execs(program, config, name):
    source = generate_source(program, config, DEFENSES[name]())
    namespace = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    assert callable(namespace["run"]), name


def test_golden_source_is_executable():
    # The densest triple: every ProtTrack hook live, branches, loads
    # and stores.
    _assert_execs(build("v1-gadget")[0], P_CORE, "track")


def test_mitigated_golden_source_is_executable():
    # The software-mitigation path: the fence-mitigated gadget on the
    # unsafe core, where MFENCE serialization is emitted.
    fenced = mitigate_program(FIXTURES["v1-gadget"].program(),
                              "fence").program
    _assert_execs(fenced, P_CORE, "unsafe")


def test_generated_source_execs():
    triples = [
        (build("div-channel")[0],
         P_CORE.replace(speculation_model=SpeculationModel.CONTROL,
                        div_is_transmitter=True), "spt"),
        (build("squash-bug")[0], P_CORE.replace(buggy_squash_notify=True),
         "delay"),
    ]
    for program, config, name in triples:
        _assert_execs(program, config, name)
