"""The reference engines run only where a test or benchmark installs them.

The installers must leave no patch behind: a leaked patch would silently
run later tests and benchmark passes on a reference engine instead of the
shipped one.  And the program no longer offers a switch to them: a stale
config field, keyword or flag fails loudly instead of being ignored.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect

import pytest

from repro import nn
from repro.abr.env import SimulatorConfig
from repro.cli import main
from repro.core.evaluation import EvaluationConfig
from repro.emulation.link import LinkConfig
from repro.rl.a2c import A2CTrainer, MultiSeedA2CTrainer, evaluate_agent

from reference_engines import seed_patches, seed_reference_mode


def _current(patches):
    return [getattr(owner, name) for owner, name, _ in patches]


@pytest.mark.parametrize("raises", (False, True))
def test_seed_reference_mode_restores_every_patch(raises):
    patches = seed_patches()
    before = _current(patches)
    engine = nn.engine.current()
    assert all(value is not replacement for value, (_, _, replacement)
               in zip(before, patches))

    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with seed_reference_mode():
            assert _current(patches) == [replacement
                                         for _, _, replacement in patches]
            assert nn.engine.current() == nn.EngineConfig(dtype="float64",
                                                          compile=False)
            if raises:
                raise RuntimeError("body failed")

    after = _current(patches)
    assert all(a is b for a, b in zip(after, before))
    assert nn.engine.current() == engine



@pytest.mark.parametrize("config, field", [
    (SimulatorConfig, "download_engine"),
    (LinkConfig, "delivery_engine"),
    (EvaluationConfig, "batched_evaluation"),
], ids=lambda value: getattr(value, "__name__", value))
def test_engine_config_fields_are_gone(config, field):
    assert field not in {f.name for f in dataclasses.fields(config)}
    with pytest.raises(TypeError):
        config(**{field: None})


@pytest.mark.parametrize("function", [
    evaluate_agent, A2CTrainer.evaluate_checkpoint,
    MultiSeedA2CTrainer.evaluate_checkpoint,
], ids=lambda function: function.__qualname__)
def test_evaluation_has_no_batched_switch(function):
    assert "batched" not in inspect.signature(function).parameters


def test_serve_has_no_delivery_engine_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--help"])
    assert exit_info.value.code == 0
    assert "--delivery-engine" not in capsys.readouterr().out
