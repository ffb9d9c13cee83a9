import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from xtf.model import ModelConfig, ModelParams, init


TINY = ModelConfig(vocab_size=10, d_model=6, n_layers=2, n_heads=2, d_ff=8, max_seq=14, seed=7)


def randomize_params(params: ModelParams, seed: int, scale: float = 0.4) -> ModelParams:
    """Move params to a generic point: gradient checks at the tiny N(0, 0.02)
    init probe a near-degenerate region where attention gradients vanish and
    finite differences are all roundoff."""
    rng = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        leaf = name.split(".")[-1]
        if leaf == "gain":
            t.value[...] = 1.0 + rng.normal(0.0, 0.1, t.value.shape)
        elif leaf.startswith("b"):
            t.value[...] = rng.normal(0.0, 0.1, t.value.shape)
        else:
            t.value[...] = rng.normal(0.0, scale, t.value.shape)
    return params


def _children() -> list[str]:
    """Pids of this process's live children, seen by the kernel rather than
    by `multiprocessing`, so helpers it does not track count too."""
    return [pid for task in Path("/proc/self/task").iterdir() for pid in (task / "children").read_text().split()]


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the child by fork")


@pytest.fixture
def two_cores(monkeypatch):
    """Two cores to share over, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def no_fork(monkeypatch):
    """Fail any attempt to start a process."""

    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def tiny_params():
    return init(TINY)


@pytest.fixture
def tiny_generic_params():
    return randomize_params(init(TINY), seed=123)
