"""Fine-tuning with a gradient-masked loss.

Flagged label tokens stay in the teacher-forced context but contribute no
loss term and no gradient. Loss is the per-sample sum over kept tokens,
averaged over the samples of a batch; checkpoints are selected by
validation exact match.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .data import EOS_ID, TokenizedExample, gen_synth, packs, split_records, strip_noise, subseed, tokenize
from .filtering import FilterConfig, NoiseMask, apply_filters, complementarity_report, filter_quality
from .model import (
    OPTIMIZERS,
    ModelConfig,
    ModelParams,
    OptState,
    TrainingError,
    forward,
    forward_tensors,
    init,
    optimizer_step,
    param_shapes,
)
from .numerics import ContractError, GradientTape
from .scoring import score_dataset


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    epochs: int = 30
    batch_size: int = 8
    optimizer: str = "adam"
    seed: int = 0
    val_fraction: float = 0.1
    report_every: int = 1

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if min(self.epochs, self.batch_size, self.report_every) < 1:
            raise ValueError("epochs, batch_size and report_every must be >= 1")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {', '.join(OPTIMIZERS)}, got {self.optimizer!r}")


def _kept_targets(example: TokenizedExample, mask: NoiseMask | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows (within the example's tokens) that predict its kept label tokens,
    and those tokens' ids."""
    n_out = len(example.output_ids)
    if mask is not None and len(mask.noise) != n_out:
        raise ContractError(
            f"example {example.id!r}: mask length {len(mask.noise)} != label length {n_out}"
        )
    kept = [k for k in range(n_out) if mask is None or not mask.noise[k]]
    rows = np.array([example.l_input + k - 1 for k in kept], dtype=np.intp)
    cols = np.array([example.output_ids[k] for k in kept], dtype=np.intp)
    return rows, cols


def packed_loss(
    params: ModelParams,
    examples: list[TokenizedExample],
    masks: list[NoiseMask | None],
) -> tuple[float, np.ndarray]:
    """Masked loss summed over `examples`, with its gradient from one tape,
    laid out like `params.flat`. The examples are concatenated without
    padding into one stream of at most `max_seq` rows; no sequence attends
    to another, so the result is the sum of their `masked_loss` results.
    The last block runs only at the rows that predict kept tokens
    (`forward_tensors`)."""
    tokens: list[int] = []
    lengths, rows, cols = [], [], []
    for ex, mask in zip(examples, masks):
        r, c = _kept_targets(ex, mask)
        rows.append(r + len(tokens))
        cols.append(c)
        tokens += ex.tokens
        lengths.append(len(ex.tokens))
    rows_all = np.concatenate(rows)
    if rows_all.size == 0:
        return 0.0, np.zeros_like(params.flat)
    with GradientTape() as tape:
        logits, _ = forward_tensors(params, tokens, lengths, rows_all)
        loss = nm.sequence_nll(logits, np.arange(rows_all.size), np.concatenate(cols))
    return float(loss.value), np.concatenate(tape.gradients(loss, params.values()), axis=None)


def masked_loss(
    params: ModelParams,
    example: TokenizedExample,
    mask: NoiseMask | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sum of negative log-probabilities over kept label tokens, with
    gradients from one tape. Input positions never contribute; a fully
    masked sample yields loss 0 and all-zero gradients."""
    loss, grad = packed_loss(params, [example], [mask])
    return loss, {name: t.value for name, t in ModelParams(params.config, grad).tensors.items()}


def evaluate(params: ModelParams, eval_set: list[TokenizedExample]) -> float:
    """Greedy-decoding exact match against the label without its trailing
    EOS (the target), from one forward pass per example.

    Decoding that stops at the first token differing from the target only
    ever feeds the input plus a prefix of the target. So an example is right
    exactly when one pass over input + target predicts the target, then EOS,
    at its label rows: a pass from row l_input - 1, as scoring runs, which
    equals the prefix passes up to rounding. An example that does not fit
    is wrong without a pass. The pass stops before a target id outside the
    vocabulary, which decoding never emits: too few rows make the example
    wrong, and a bad input still raises InputError."""
    if not eval_set:
        raise ValueError("evaluate needs a non-empty set")

    correct = 0
    for ex in eval_set:
        target = ex.output_ids[:-1] if ex.output_ids[-1:] == [EOS_ID] else ex.output_ids
        if ex.l_input + len(target) >= params.config.max_seq:
            continue
        known = next((k for k, t in enumerate(target) if not 0 <= t < params.config.vocab_size), len(target))
        logits = forward(params, ex.input_ids + target[:known], ex.l_input - 1).logits
        correct += np.argmax(logits, axis=-1).tolist() == target + [EOS_ID]
    return correct / len(eval_set)


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc: float = 0.0


def _check_loss(loss: float, run: tuple) -> None:
    if not math.isfinite(loss):
        raise TrainingError(f"non-finite loss on the run of samples {[ex.id for ex in run[0]]!r}")


def _gradient_sum(params: ModelParams, runs: list[tuple]) -> tuple[list[float], np.ndarray]:
    """The losses of `runs` (`packed_loss` argument pairs) and their
    gradient sum, added in run order with one run's gradient held at a
    time. The first run whose loss is not finite raises TrainingError."""
    losses, acc = [], None
    for run in runs:
        loss, grad = packed_loss(params, *run)
        _check_loss(loss, run)
        losses.append(loss)
        if acc is None:
            acc = grad
        else:
            acc += grad
    return losses, acc


def _epoch_pass(
    params: ModelParams,
    examples: list[TokenizedExample],
    masks: dict[str, NoiseMask] | None,
    config: TrainConfig,
    rng: np.random.Generator,
    opt_state: OptState,
    worker: _ShareWorker | None = None,
) -> float:
    """One shuffled epoch of batched updates; returns mean per-sample loss.

    Each batch is packed into runs of up to `max_seq` rows, the cap on a
    tape, with one taped pass each; the update uses the summed gradient over
    the batch size, the mean of the per-sample gradients. A `worker` holding
    `params` computes a share of each batch (`_ShareWorker.gradient_sum`),
    bitwise the same."""
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = [examples[i] for i in order[start : start + config.batch_size]]
        runs = [
            (run, [masks.get(ex.id) if masks else None for ex in run]) for run in packs(batch, params.config.max_seq)
        ]
        losses, acc = worker.gradient_sum(params, runs) if worker else _gradient_sum(params, runs)
        for loss in losses:
            total_loss += loss
        acc *= 1.0 / len(batch)
        optimizer_step(params, acc, opt_state, config.learning_rate, config.optimizer)
    return total_loss / len(examples)


def _usable(dataset: list[TokenizedExample], masks: dict[str, NoiseMask] | None) -> list[TokenizedExample]:
    """The samples whose mask leaves some label token to learn from. A mask
    whose length is not its label's raises ContractError."""
    return [ex for ex in dataset if not masks or ex.id not in masks or _kept_targets(ex, masks[ex.id])[0].size]


def train(
    params: ModelParams,
    dataset: list[TokenizedExample],
    masks: dict[str, NoiseMask] | None,
    config: TrainConfig,
    val_set: list[TokenizedExample] | None = None,
) -> TrainResult:
    """Epoch loop with seeded shuffling and validation-based selection.

    Samples whose mask covers every label token are dropped up front (and
    counted in the log). The checkpoint with the highest validation exact
    match is returned; ties go to the earlier epoch. A non-finite loss or
    non-finite logits end the run with the best checkpoint so far and a
    last log entry holding the epoch and the error.

    A share worker (`_sharing`) computes a prefix of every batch's runs when
    a second core can help. The result is bitwise the single-process one,
    and the worker has exited when this returns or raises.
    """
    if val_set is None:
        n_val = max(1, int(len(dataset) * config.val_fraction))
        val_set, dataset, _ = split_records(dataset, counts=(n_val, len(dataset) - n_val, 0))
    with _sharing(params, dataset, masks, config) as worker:
        return _train(params, dataset, masks, config, val_set, worker)


@contextmanager
def _sharing(
    params: ModelParams, dataset: list[TokenizedExample], masks: dict[str, NoiseMask] | None, config: TrainConfig
):
    """A `_ShareWorker` for training `params` on `dataset`, with BLAS at one
    thread in both processes, when this process may run on more than one
    core and some batch can span more than one `max_seq` run; otherwise
    None, and no process starts. The worker has exited when the block ends."""
    nm.steady_heap()
    longest = sorted(len(ex.tokens) for ex in _usable(dataset, masks))[-config.batch_size :]
    if nm.available_cores() < 2 or sum(longest) <= params.config.max_seq:
        yield None
        return
    with nm.one_blas_thread(), _ShareWorker(params.config) as worker:
        yield worker


# a non-finite value ends the run (see `train`), so numpy need not also warn of it
@np.errstate(over="ignore", invalid="ignore")
def _train(
    params: ModelParams,
    dataset: list[TokenizedExample],
    masks: dict[str, NoiseMask] | None,
    config: TrainConfig,
    val_set: list[TokenizedExample],
    worker: _ShareWorker | None = None,
    peer: nm.Fork | None = None,
) -> TrainResult:
    """`train`'s epoch loop, in this process alone unless a `worker` shares
    every batch. An error of a `peer` process, or its death, that has come
    by the start of an epoch raises there."""
    usable = _usable(dataset, masks)
    if not usable:
        raise TrainingError("every training sample is fully masked")

    kept = sum(_kept_targets(ex, masks.get(ex.id) if masks else None)[0].size for ex in usable)
    labels = sum(len(ex.output_ids) for ex in usable)
    counts = {"tokens": sum(len(ex.tokens) for ex in usable), "kept_tokens": kept, "masked_tokens": labels - kept}
    work = params.copy() if worker is None else worker.hold(params)
    opt_state = OptState()
    rng = np.random.default_rng(config.seed)
    result = TrainResult(params=work.copy(), best_epoch=0, best_val_acc=-1.0)
    for epoch in range(1, config.epochs + 1):
        if peer is not None:
            peer.poll()
        try:
            train_loss = _epoch_pass(work, usable, masks, config, rng, opt_state, worker)
        except (TrainingError, FloatingPointError) as exc:  # a non-finite loss, or non-finite logits
            result.log.append({"epoch": epoch, "error": str(exc)})
            break
        val_acc = evaluate(work, val_set)
        if epoch % config.report_every == 0 or epoch == config.epochs:
            result.log.append(
                {
                    "epoch": epoch,
                    "train_loss": train_loss,
                    "val_acc": val_acc,
                    "dropped_fully_masked": len(dataset) - len(usable),
                    **counts,
                }
            )
        if val_acc > result.best_val_acc:
            result.best_val_acc = val_acc
            result.best_epoch = epoch
            result.params = work.copy()
    return result


def warmup_base(
    params: ModelParams,
    dataset: list[TokenizedExample],
    config: TrainConfig,
    epochs: int,
) -> ModelParams:
    """Unmasked pretraining pass used to prepare a base checkpoint: the
    scorers need a model with some competence before its attention,
    confidence and embedding geometry carry any signal. A share worker
    computes a share of every batch as in `train`; the result is bitwise
    the same without one."""
    with _sharing(params, dataset, None, config) as worker:
        work = params.copy() if worker is None else worker.hold(params)
        opt_state = OptState()
        rng = np.random.default_rng(subseed(config.seed, "warmup"))
        for _ in range(epochs):
            _epoch_pass(work, dataset, None, config, rng, opt_state, worker)
        return work if worker is None else work.copy()


def prepare_base(
    model_config: ModelConfig,
    train_config: TrainConfig,
    base_epochs: int,
    seed: int,
    task: str = "addition",
    task_size: int = 300,
    background_size: int = 120,
    decoration_rate: float = 0.97,
) -> ModelParams:
    """Build a base checkpoint from scratch on pretraining data disjoint
    from any fine-tuning corpus: heavily decorated task-format documents
    plus off-task symbol documents.

    The decorated documents teach the base the corpus's formatting-junk
    style, so decorations later score as high-confidence (zero knowledge
    novelty) while genuine task tokens stay novel; the symbol documents
    give off-task symbols a trained embedding identity. The base never
    sees the noisy labels it will later score."""
    params = init(model_config)
    if base_epochs <= 0:
        return params
    corpus = gen_synth(task, task_size, decoration_rate, subseed(seed, "base-task"))
    corpus += gen_synth("symbol_noise", background_size, 0.0, subseed(seed, "base-background"))
    examples = [tokenize(r) for r in corpus]
    return warmup_base(params, examples, train_config, base_epochs)


class _ShareWorker(nm.Fork):
    """A forked worker that computes a prefix of every batch's runs.

    It reads the parameters this process `hold`s in one shared buffer, gets
    its runs through the pipe, writes their gradient sum into a second
    shared buffer and sends their losses back (`gradient_sum`)."""

    def __init__(self, config: ModelConfig):
        import multiprocessing  # here, not at module level: ~20 ms off `import xtf.training`

        size = sum(math.prod(shape) for shape in param_shapes(config).values())
        params_buffer, grads_buffer = multiprocessing.RawArray("d", size), multiprocessing.RawArray("d", size)
        self._params = ModelParams(config, np.frombuffer(params_buffer))
        self._grad = np.frombuffer(grads_buffer)
        super().__init__(_serve_shares, params_buffer, grads_buffer, config)

    def hold(self, params: ModelParams) -> ModelParams:
        """`params` copied into the buffer the worker reads, as views of it:
        updating them in place updates the worker's copy."""
        self._params.flat[...] = params.flat
        return self._params

    def gradient_sum(self, params: ModelParams, runs: list[tuple]) -> tuple[list[float], np.ndarray]:
        """`_gradient_sum` of `runs`, of which the worker computes the prefix
        that best balances rows while this process computes the rest. The
        worker's sum comes first, so the runs are added in the same order
        and the result is bitwise the same; so is the error raised, the
        first in run order. This process holds its runs' gradients until
        the worker's sum arrives: on the benchmark's `long_context_train`
        (3-7 such runs a batch, 2-vCPU VM) that raised peak memory by ~3%,
        and copying them into buffers reused every batch measured no lower."""
        cuts = nm.balanced_cuts([sum(len(ex.tokens) for ex in run) for run, _ in runs], 2)
        if not cuts:
            return _gradient_sum(params, runs)
        (k,) = cuts
        self.send(runs[:k])
        own = []
        try:
            for run in runs[k:]:
                loss, grad = packed_loss(params, *run)
                _check_loss(loss, run)
                own.append((loss, grad))
        finally:
            losses, acc = self.collect()  # a worker's error, on an earlier run, wins
        for loss, grad in own:
            losses.append(loss)
            acc += grad
        return losses, acc

    def collect(self) -> tuple[list[float], np.ndarray]:
        """The losses of the worker's runs and their gradient sum (the
        shared buffer) once the worker has them. A worker that raises or
        dies first makes this raise at once.

        Both processes busy-wait for each other's message. A blocking wait
        lets the idle vCPU halt, and on a shared 2-vCPU KVM host waking it
        again cost up to milliseconds per batch: over 15 interleaved 5-epoch
        bases, blocking waits took 2.26 s median (3.45 s worst) against
        2.12 s (2.73 s) busy-waiting, and 2.93 s in one process."""
        return self.recv(busy=True), self._grad


def _serve_shares(conn, params_buffer, grads_buffer, config: ModelConfig) -> None:
    """`_ShareWorker`'s process: for each list of runs, `_gradient_sum` into
    the shared buffer and the losses back, until the parent kills it. A
    diverging run raises here, as in the parent (`train`'s log takes the
    error), and needs no numpy warning."""
    params, acc = ModelParams(config, np.frombuffer(params_buffer)), np.frombuffer(grads_buffer)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            while not conn.poll(0):  # busy-waits, as `_ShareWorker.collect` says why
                pass
            losses, acc[...] = _gradient_sum(params, conn.recv())
            conn.send(losses)


def _unmasked_arm(conn, params, train_ex, val_ex, test_ex, config: TrainConfig) -> tuple[float, float]:
    """`run_experiment`'s unmasked arm, in a process of its own: the test and
    best validation accuracy of a plain fine-tune of `params`."""
    normal = _train(params, train_ex, None, config, val_ex)
    return evaluate(normal.params, test_ex), normal.best_val_acc


def run_experiment(
    dataset: list[TokenizedExample],
    filter_config: FilterConfig,
    train_config: TrainConfig,
    model_config: ModelConfig = ModelConfig(),
    base_params: ModelParams | None = None,
    base_epochs: int = 14,
    split_counts: tuple[int, int, int] | None = None,
    ri_agg: str = "mean",
    domain_source: str = "all_tokens",
    distance_metric: str = "euclidean",
) -> dict:
    """Twin-arm comparison: fine-tune the same base checkpoint with and
    without noise masks and report both test accuracies.

    The base model used for scoring is the shared initial checkpoint,
    before any fine-tuning; both arms consume identical data in identical
    order, so the mask is the only difference. Validation and test labels
    are compared against their de-noised form when ground-truth flags are
    present (synthetic corpora), since the clean label is the actual target.

    `prepare_base` shares its batches with a worker as `train` does. Then a
    forked process trains the unmasked arm while this one scores, filters
    and trains the masked arm, each arm in one process, with BLAS at one
    thread in both. An unmasked-arm error raises at the masked arm's next
    epoch; an error in this process kills the arm's process and propagates
    at once. No process is left when this returns or raises.
    """
    with nm.one_blas_thread():
        train_ex, val_ex, test_ex = split_records(dataset, counts=split_counts)
        val_ex = [strip_noise(ex) for ex in val_ex]
        test_ex = [strip_noise(ex) for ex in test_ex]
        if base_params is None:
            base_params = prepare_base(model_config, train_config, base_epochs, train_config.seed)
        with nm.Fork(_unmasked_arm, base_params, train_ex, val_ex, test_ex, train_config) as arm:
            score_result = score_dataset(
                base_params, train_ex, ri_agg=ri_agg, domain_source=domain_source, distance_metric=distance_metric
            )
            masks, stats = apply_filters(score_result.scores, filter_config)
            masked = _train(base_params.copy(), train_ex, {m.id: m for m in masks}, train_config, val_ex, peer=arm)
            xtf_acc = evaluate(masked.params, test_ex)
            normal_acc, normal_val_acc = arm.recv()

    report = {
        "seed": train_config.seed,
        "normal_acc": normal_acc,
        "xtf_acc": xtf_acc,
        "normal_val_acc": normal_val_acc,
        "xtf_val_acc": masked.best_val_acc,
        "filtered_fraction": stats.flagged_tokens / stats.total_tokens if stats.total_tokens else 0.0,
        "per_attribute_counts": stats.per_attribute_counts,
        "total_label_tokens": stats.total_tokens,
        "complementarity": complementarity_report(masks),
        "score_errors": score_result.errors,
    }
    if any(ex.noise is not None for ex in train_ex):
        report["filter_quality"] = filter_quality(masks, train_ex)
    return report
