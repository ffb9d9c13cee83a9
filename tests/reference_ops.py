"""Unfused taped ops and model probes that only the tests use.

The ops register their backward through `nm.record_op` like the fused ops
of `xtf.numerics`, so they compose with them on one tape; the tests use
them as oracles for the fused ops and as small losses for tape checks.
`finite_diff_check` is the independent referee for tape gradients.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from xtf import numerics as nm
from xtf.model import InputError, ModelParams, forward
from xtf.numerics import ContractError, GradientTape, ShapeError, Tensor


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.value * c)
    return nm.record_op(out, (a,), lambda g: (g * c,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.value * b.value)
    return nm.record_op(out, (a, b), lambda g: (g * b.value, g * a.value))


def total(a: Tensor) -> Tensor:
    """Scalar sum of all entries."""
    out = Tensor(float(a.value.sum()))
    return nm.record_op(out, (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),))


def pick(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Select entries a[rows[i], cols[i]] into a vector."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = Tensor(a.value[rows, cols])

    def bwd(g):
        ga = np.zeros_like(a.value)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return nm.record_op(out, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Smooth (tanh-form) GELU, the unfused form of `nm.feed_forward`'s."""
    x = a.value
    x_sq = x * x
    inner = nm._GELU_C * (x + 0.044715 * x_sq * x)
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))

    def bwd(g):
        d_inner = nm._GELU_C * (1.0 + 3 * 0.044715 * x_sq)
        gx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
        return (g * gx,)

    return nm.record_op(out, (a,), bwd)


def log_softmax_value(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    shifted = x - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a.check_finite("softmax input")
    out = Tensor(nm.softmax_value(a.value, axis=axis))

    def bwd(g):
        w = out.value
        return (w * (g - np.sum(w * g, axis=axis, keepdims=True)),)

    return nm.record_op(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a.check_finite("log_softmax input")
    out = Tensor(log_softmax_value(a.value, axis=axis))

    def bwd(g):
        w = np.exp(out.value)
        return (g - w * np.sum(g, axis=axis, keepdims=True),)

    return nm.record_op(out, (a,), bwd)


def next_token_probs(params: ModelParams, prefix) -> np.ndarray:
    """Softmax over the vocabulary at the final position of `prefix`."""
    trace = forward(params, prefix)
    return nm.softmax_value(trace.logits[-1])


def embed(params: ModelParams, token_id: int) -> np.ndarray:
    """Context-free embedding: the raw token-table row (no position added)."""
    if not 0 <= token_id < params.config.vocab_size:
        raise InputError(f"token id {token_id} out of vocabulary")
    return params["tok_emb"].value[token_id].copy()


def finite_diff_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    analytic: Sequence[np.ndarray] | None = None,
) -> float:
    """Max relative error between tape gradients and central differences.

    `loss_fn` must rebuild the loss from the current values of `params`
    (it is re-run with individual entries perturbed by ±step). Passing
    `analytic` skips the tape pass and checks the supplied gradients
    instead, which lets tests feed deliberately corrupted gradients.
    """
    if step <= 0:
        raise ContractError("step must be positive")
    if analytic is None:
        with GradientTape() as tape:
            loss = loss_fn()
        analytic = tape.gradients(loss, params)

    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.value.reshape(-1)
        g_flat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().value)
            flat[i] = orig - step
            down = float(loss_fn().value)
            flat[i] = orig
            central = (up - down) / (2.0 * step)
            err = abs(g_flat[i] - central) / (abs(g_flat[i]) + abs(central) + 1e-12)
            worst = max(worst, err)
    return worst
