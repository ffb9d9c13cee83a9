"""Spans around the public functions of each xtf layer, from outside.

`Tracer.install` replaces every reference to a traced function that an
`xtf.*` module holds (module attributes, plus `GradientTape.gradients` on
its class) with a wrapper that records a span: name, start, end, parent
span and one size figure. Spans stay in memory until `write`. `derive`
turns the spans of one traced set-up plus one operation into the per-layer
metrics. `op_microbench` times single numerics ops at the reference shape.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


def _tokens_arg(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["tokens"])


def _tape_records(args, kwargs, result):
    return len(args[0])


def _dataset_tokens(args, kwargs, result):
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    return sum(len(ex.tokens) for ex in dataset)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _check_instances(args, kwargs, result):
    return sum(c["instances"] for c in result["checks"])


# (module, attribute path, size figure recorded on the span)
TARGETS = [
    ("xtf.data", "gen_synth", None),
    ("xtf.data", "tokenize", None),
    ("xtf.training", "run_experiment", None),
    ("xtf.training", "prepare_base", None),
    ("xtf.training", "warmup_base", None),
    ("xtf.training", "train", None),
    ("xtf.training", "evaluate", None),
    ("xtf.training", "masked_loss", None),
    ("xtf.model", "init", None),
    ("xtf.model", "forward", _tokens_arg),
    ("xtf.model", "forward_tensors", _tokens_arg),
    ("xtf.model", "optimizer_step", None),
    ("xtf.numerics", "GradientTape.gradients", _tape_records),
    ("xtf.scoring", "score_dataset", _dataset_tokens),
    ("xtf.scoring", "save_scores", _file_bytes),
    ("xtf.scoring", "load_scores", None),
    ("xtf.filtering", "apply_filters", None),
    ("xtf.filtering", "multi_otsu", None),
    ("xtf.filtering", "save_masks", None),
    ("xtf.filtering", "load_masks", None),
    ("xtf.theory", "verify_theory", _check_instances),
    ("xtf.theory", "gain_sweep_rows", None),
]


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, size]
    with parent the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, size_fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if size_fn is not None:
                spans[idx][4] = size_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "xtf" or n.startswith("xtf.")]
        for module_name, path, size_fn in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name[4:]}.{path}", original, size_fn)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, fh, unit: int) -> None:
        for idx, (name, start, end, parent, size) in enumerate(self.spans):
            fh.write(json.dumps({"unit": unit, "id": idx, "name": name, "start": start,
                                 "end": end, "parent": parent, "size": size}) + "\n")


def derive(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced unit (one set-up plus one operation)."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    size: dict[str, int] = defaultdict(int)
    under: dict[tuple[str, str], list[list]] = defaultdict(list)
    children: dict[int, float] = defaultdict(float)
    for name, start, end, parent, n in spans:
        count[name] += 1
        total[name] += end - start
        size[name] += n
        if parent >= 0:
            under[(spans[parent][0], name)].append([start, end, n])
            children[parent] += end - start

    def per_call(key: str, num: float) -> float:
        return num / count[key] if count[key] else 0.0

    decode = under[("training.evaluate", "model.forward")]
    # stages of an experiment are the children of run_experiment; elsewhere
    # they are the layer calls made directly by the benchmark's operation
    root = "training.run_experiment" if count["training.run_experiment"] else "bench.op"
    roots = [i for i, s in enumerate(spans) if s[0] == root]
    root_s = sum(spans[i][2] - spans[i][1] for i in roots)
    return {
        "data.corpus_s": total["data.gen_synth"] + total["data.tokenize"],
        "training.prepare_base_s": total["training.prepare_base"],
        "training.train_s": total["training.train"],
        "training.masked_loss_calls": count["training.masked_loss"],
        "training.masked_loss_s": total["training.masked_loss"],
        "training.validate_s": sum(e - s for s, e, _ in under[("training.train", "training.evaluate")]),
        "training.test_eval_s": sum(
            e - s for s, e, _ in under[("training.run_experiment", "training.evaluate")]
        ),
        "numerics.tape_gradients_calls": count["numerics.GradientTape.gradients"],
        "numerics.tape_gradients_s": total["numerics.GradientTape.gradients"],
        "numerics.tape_records_per_call": per_call(
            "numerics.GradientTape.gradients", size["numerics.GradientTape.gradients"]
        ),
        "model.forward_calls": count["model.forward_tensors"],
        "model.forward_s": total["model.forward_tensors"],
        "model.decode_tokens": len(decode),
        "model.decode_positions_per_token": sum(n for _, _, n in decode) / len(decode) if decode else 0.0,
        "model.optimizer_step_calls": count["model.optimizer_step"],
        "model.optimizer_step_s": total["model.optimizer_step"],
        "scoring.score_dataset_s": total["scoring.score_dataset"],
        "scoring.tokens_scored": size["scoring.score_dataset"],
        "scoring.save_scores_s": total["scoring.save_scores"],
        "scoring.load_scores_s": total["scoring.load_scores"],
        "scoring.scores_bytes": size["scoring.save_scores"],
        "filtering.apply_filters_s": total["filtering.apply_filters"],
        "filtering.multi_otsu_calls": count["filtering.multi_otsu"],
        "filtering.multi_otsu_s": total["filtering.multi_otsu"],
        "filtering.save_masks_s": total["filtering.save_masks"],
        "filtering.load_masks_s": total["filtering.load_masks"],
        "theory.verify_theory_s": total["theory.verify_theory"],
        "theory.gain_sweep_s": total["theory.gain_sweep_rows"],
        "theory.instances": size["theory.verify_theory"],
        "trace.stage_coverage": sum(children[i] for i in roots) / root_s if root_s else 0.0,
    }


MICRO_OPS = (
    "embed_positions", "layer_norm", "linear", "matmul", "attention", "feed_forward", "add", "sequence_nll",
)


def op_microbench(nm, model, calls: int = 100, repeats: int = 5) -> dict[str, float]:
    """Microseconds per call of each op at the reference shape (17 tokens,
    d_model 64): forward alone, and forward plus `GradientTape.gradients` on
    a tape holding the op (and, for ops with a non-scalar output, the
    `weighted_sum` that reduces it to the scalar `gradients` needs). Each
    figure is the minimum over `repeats` batches of `calls` calls."""
    import numpy as np

    cfg = model.ModelConfig()
    rng = np.random.default_rng(0)
    seq, d = 17, cfg.d_model

    def t(*shape):
        return nm.Tensor(rng.normal(size=shape))

    params = model.init(cfg)
    tok, pos = params["tok_emb"], params["pos_emb"]
    x, x2, q, k, v = t(seq, d), t(seq, d), t(seq, d), t(seq, d), t(seq, d)
    gain, bias, w, b = t(d), t(d), t(d, d), t(d)
    w1, b1, w2, b2 = t(d, cfg.d_ff), t(cfg.d_ff), t(cfg.d_ff, d), t(d)
    logits = t(seq, cfg.vocab_size)
    ids = rng.integers(cfg.vocab_size, size=seq)
    rows, cols = np.arange(seq), rng.integers(cfg.vocab_size, size=seq)
    ops = {
        "embed_positions": (lambda: nm.embed_positions(tok, pos, ids), [tok, pos]),
        "layer_norm": (lambda: nm.layer_norm(x, gain, bias), [x, gain, bias]),
        "linear": (lambda: nm.linear(x, w, b), [x, w, b]),
        "matmul": (lambda: nm.matmul(x, w), [x, w]),
        "attention": (lambda: model._causal_attention(q, k, v, cfg.n_heads)[0], [q, k, v]),
        "feed_forward": (lambda: nm.feed_forward(x, w1, b1, w2, b2), [x, w1, b1, w2, b2]),
        "add": (lambda: nm.add(x, x2), [x, x2]),
        "sequence_nll": (lambda: nm.sequence_nll(logits, rows, cols), [logits]),
    }
    weights = rng.normal(size=(seq, d))

    def timed(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - start) / calls)
        return best * 1e6

    out = {}
    for name in MICRO_OPS:
        fwd, inputs = ops[name]

        def fwd_bwd():
            with nm.GradientTape() as tape:
                y = fwd()
                loss = y if y.shape == () else nm.weighted_sum(y, weights)
            tape.gradients(loss, inputs)

        out[f"numerics.op.{name}.fwd_us"] = timed(fwd)
        out[f"numerics.op.{name}.fwd_bwd_us"] = timed(fwd_bwd)
    return out


def median_metrics(units: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(u[key] for u in units) for key in units[0]}
