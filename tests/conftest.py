"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.models.zoo import ModelZoo
from repro.prompts.dataset import PromptDataset
from repro.quality.pickscore import PickScoreModel
from repro.simulation import randomness


@pytest.fixture(scope="session")
def zoo() -> ModelZoo:
    """A single A100 model zoo shared across tests."""
    return ModelZoo(gpu="A100")


@pytest.fixture(scope="session")
def pickscore() -> PickScoreModel:
    """A shared quality model (deterministic, seed 0)."""
    return PickScoreModel(seed=0)


@pytest.fixture(scope="session")
def prompts_small() -> list:
    """A small prompt sample for unit tests."""
    return PromptDataset.synthetic(count=200, seed=3).prompts


@pytest.fixture(scope="session")
def prompts_medium() -> list:
    """A medium prompt sample for distribution-level assertions."""
    return PromptDataset.synthetic(count=1200, seed=5).prompts


@pytest.fixture
def decoder_off(monkeypatch):
    """The draw decoder's self-check forced to fail: every draw of the test
    goes through numpy."""
    monkeypatch.setattr(randomness, "_self_check", lambda: False)
    monkeypatch.setattr(randomness, "_decoder", None)
    assert not randomness.decoder_active()
