"""Unfused taped ops and model probes that only the tests use.

The ops register their backward through `nm.record_op` like the fused ops
of `xtf.numerics`, so they compose with them on one tape; the tests use
them as oracles for the fused ops and as small losses for tape checks.
`finite_diff_check` is the independent referee for tape gradients, and
`reference_optimizer_step` the tensor-by-tensor optimizer that the flat
`optimizer_step` must match bit for bit, and `greedy_evaluate` the
token-by-token decoding whose verdicts `evaluate` must give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from xtf import numerics as nm
from xtf.data import EOS_ID, TokenizedExample
from xtf.model import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ConfigError, InputError, ModelParams, TrainingError, forward
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


def greedy_evaluate(params: ModelParams, eval_set: list[TokenizedExample]) -> float:
    """Greedy-decoding exact match, one full forward pass per generated
    token. The label is compared after stripping its trailing EOS;
    decoding stops at the first token that differs from it."""
    if not eval_set:
        raise ValueError("evaluate needs a non-empty set")

    correct = 0
    for ex in eval_set:
        target = ex.output_ids
        if target and target[-1] == EOS_ID:
            target = target[:-1]
        seq = list(ex.input_ids)
        ok = len(seq) + len(target) < params.config.max_seq
        if ok:
            for expected in target + [EOS_ID]:
                nxt = int(np.argmax(forward(params, seq).logits[-1]))
                if nxt != expected:
                    ok = False
                    break
                seq.append(nxt)
        correct += int(ok)
    return correct / len(eval_set)


def embed(params: ModelParams, token_id: int) -> np.ndarray:
    """Context-free embedding: the raw token-table row (no position added)."""
    if not 0 <= token_id < params.config.vocab_size:
        raise InputError(f"token id {token_id} out of vocabulary")
    return params["tok_emb"].value[token_id].copy()


@dataclass
class ReferenceOptState:
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def reference_optimizer_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], opt_state: ReferenceOptState, lr: float, mode: str
) -> ReferenceOptState:
    """`optimizer_step` with one array per weight, for the gradient and each
    Adam moment alike, updated in place one name at a time."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if g.shape != params[name].shape:
            raise TrainingError(f"gradient shape mismatch for {name!r}")
    if mode == "sgd":
        for name, g in grads.items():
            params[name] -= lr * g
    elif mode == "adam":
        opt_state.step_count += 1
        t = opt_state.step_count
        for name, g in grads.items():
            m = opt_state.m.setdefault(name, np.zeros_like(g))
            v = opt_state.v.setdefault(name, np.zeros_like(g))
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    else:
        raise ConfigError(f"unknown optimizer mode {mode!r}")
    return opt_state


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
