"""Benchmark harness: run specs, caching, normalization, rendering."""

import pytest

from repro.bench import (
    CLASS_BASELINE,
    DEFENSES,
    RunSpec,
    compiled,
    geomean,
    norm_runtime,
    protean_norm,
    render_table,
)
from repro.uarch.config import L1DTagMode, SpeculationModel


def test_defense_registry():
    for name in ("unsafe", "nda", "stt", "spt", "spt-sb", "delay",
                 "track", "delay-raw", "track-raw"):
        assert DEFENSES[name]() is not None


def test_class_baseline_map():
    assert CLASS_BASELINE == {"arch": "stt", "cts": "spt", "ct": "spt",
                              "unr": "spt-sb"}


def test_runspec_core_config_knobs():
    spec = RunSpec(workload="mcf.s", l1d_tags="none",
                   speculation="control", buggy_squash=True,
                   div_transmitter=False, core="E")
    config = spec.core_config()
    assert config.l1d_tag_mode is L1DTagMode.NONE
    assert config.speculation_model is SpeculationModel.CONTROL
    assert config.buggy_squash_notify
    assert not config.div_is_transmitter
    assert config.name == "E-core"


def test_runspec_predictor_entries():
    spec = RunSpec(workload="mcf.s", defense="track",
                   predictor_entries="inf")
    defense = spec.defense_instance()
    assert defense.predictor.entries is None
    spec2 = RunSpec(workload="mcf.s", defense="track",
                    predictor_entries=64)
    assert spec2.defense_instance().predictor.entries == 64


def test_norm_runtime_unsafe_is_one():
    assert norm_runtime("ossl.dh", "unsafe") == 1.0


def test_norm_runtime_sptsb_above_one():
    assert norm_runtime("ossl.dh", "spt-sb") > 1.1


def test_protean_norm_uses_auto_classes():
    value = protean_norm("ossl.dh", "track")
    assert 0.9 < value < norm_runtime("ossl.dh", "spt-sb")


def test_compiled_cache_and_instrument_kinds():
    base = compiled("ossl.dh", None)
    assert base.prot_prefixes == 0
    auto = compiled("ossl.dh", "auto")
    assert auto.prot_prefixes > 0
    unr = compiled("ossl.dh", "unr")
    assert compiled("ossl.dh", "unr") is unr


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0]) == 2.0


def test_render_table():
    text = render_table("T", ["a", "b"], [["x", 1.5], ["yy", 2.0]])
    assert "T" in text and "1.500" in text and "yy" in text


def test_geomean_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        geomean([])


def test_geomean_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        geomean([1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        geomean([2.0, -1.0])
