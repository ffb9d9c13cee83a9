"""Fine-tuning with a gradient-masked loss.

Flagged label tokens stay in the teacher-forced context but contribute no
loss term and no gradient. Loss is the per-sample sum over kept tokens,
averaged over the samples of a batch; checkpoints are selected by
validation exact match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .data import EOS_ID, TokenizedExample, gen_synth, split_records, strip_noise, subseed, tokenize
from .filtering import FilterConfig, NoiseMask, apply_filters, complementarity_report, filter_quality
from .model import (
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
from .numerics import ContractError, GradientTape, Tensor
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
) -> tuple[float, list[np.ndarray]]:
    """Masked loss summed over `examples`, with gradients (in `params.values()`
    order) from one tape. The examples are concatenated without padding into
    one stream of at most `max_seq` rows; no sequence attends to another, so
    the result is the sum of their `masked_loss` results."""
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
        return 0.0, [np.zeros_like(t.value) for t in params.values()]
    with GradientTape() as tape:
        logits, _, _ = forward_tensors(params, tokens, lengths)
        loss = nm.sequence_nll(logits, rows_all, np.concatenate(cols))
    return float(loss.value), tape.gradients(loss, params.values())


def masked_loss(
    params: ModelParams,
    example: TokenizedExample,
    mask: NoiseMask | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sum of negative log-probabilities over kept label tokens, with
    gradients from one tape. Input positions never contribute; a fully
    masked sample yields loss 0 and all-zero gradients."""
    loss, grads = packed_loss(params, [example], [mask])
    return loss, dict(zip(params.names(), grads))


def evaluate(params: ModelParams, eval_set: list[TokenizedExample]) -> float:
    """Greedy-decoding exact match. The label is compared after stripping
    its trailing EOS; generation stops at EOS or shortly past label length.

    Decoding stops early once a token diverges from the target, which
    cannot change the verdict (greedy decoding is deterministic token by
    token), only the cost."""
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


@dataclass
class TrainResult:
    params: ModelParams
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val_acc: float = 0.0


def _runs(batch: list[TokenizedExample], max_seq: int) -> list[list[TokenizedExample]]:
    """Cut a batch, in order, into runs of consecutive examples that fit in
    `max_seq` rows together, so one run costs no more activation memory than
    one maximum-length sequence."""
    runs: list[list[TokenizedExample]] = []
    rows = 0
    for ex in batch:
        if not runs or rows + len(ex.tokens) > max_seq:
            runs.append([])
            rows = 0
        runs[-1].append(ex)
        rows += len(ex.tokens)
    return runs


def _check_loss(loss: float, run: tuple) -> None:
    if not math.isfinite(loss):
        raise TrainingError(f"non-finite loss on the run of samples {[ex.id for ex in run[0]]!r}")


def _gradient_sum(params: ModelParams, runs: list[tuple]) -> tuple[list[float], list[np.ndarray]]:
    """The losses of `runs` (`packed_loss` argument pairs) and their
    gradient sum, added in run order with one run's gradients held at a
    time. The first run whose loss is not finite raises TrainingError."""
    losses, acc = [], None
    for run in runs:
        loss, grads = packed_loss(params, *run)
        _check_loss(loss, run)
        losses.append(loss)
        if acc is None:
            acc = grads
        else:
            for a, g in zip(acc, grads):
                a += g
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

    Each batch is packed into runs of up to `max_seq` rows with one taped
    pass each; the update uses the summed gradient over the batch size, the
    mean of the per-sample gradients. A `worker` holding `params` computes a
    share of each batch (`_ShareWorker.gradient_sum`), bitwise the same."""
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for start in range(0, len(order), config.batch_size):
        batch = [examples[i] for i in order[start : start + config.batch_size]]
        runs = [
            (run, [masks.get(ex.id) if masks else None for ex in run]) for run in _runs(batch, params.config.max_seq)
        ]
        losses, acc = worker.gradient_sum(params, runs) if worker else _gradient_sum(params, runs)
        for loss in losses:
            total_loss += loss
        scale = 1.0 / len(batch)
        for a in acc:
            a *= scale
        optimizer_step(params, dict(zip(params.names(), acc)), opt_state, config.learning_rate, config.optimizer)
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

    When this process may run on more than one core and some batch can
    span more than one `max_seq` run, a forked share worker computes a
    prefix of every batch's runs, with BLAS at one thread in both
    processes. The result is bitwise the single-process one, and the worker
    has exited when this returns or raises.
    """
    if val_set is None:
        n_val = max(1, int(len(dataset) * config.val_fraction))
        val_set, dataset, _ = split_records(dataset, counts=(n_val, len(dataset) - n_val, 0))
    longest = sorted(len(ex.tokens) for ex in _usable(dataset, masks))[-config.batch_size :]
    if nm.available_cores() < 2 or sum(longest) <= params.config.max_seq:
        return _train(params, dataset, masks, config, val_set)
    with nm.one_blas_thread(), _ShareWorker(params.config) as worker:
        return _train(params, dataset, masks, config, val_set, worker)


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
    worker: _ShareWorker | None = None,
) -> ModelParams:
    """Unmasked pretraining pass used to prepare a base checkpoint: the
    scorers need a model with some competence before its attention,
    confidence and embedding geometry carry any signal. A `worker` computes
    a share of every batch; the result is bitwise the same without one."""
    work = params.copy() if worker is None else worker.hold(params)
    opt_state = OptState()
    rng = np.random.default_rng(subseed(config.seed, "warmup"))
    for _ in range(epochs):
        _epoch_pass(work, dataset, None, config, rng, opt_state, worker)
    return work


def prepare_base(
    model_config: ModelConfig,
    train_config: TrainConfig,
    base_epochs: int,
    seed: int,
    task: str = "addition",
    task_size: int = 300,
    background_size: int = 120,
    decoration_rate: float = 0.97,
    worker: _ShareWorker | None = None,
) -> ModelParams:
    """Build a base checkpoint from scratch on pretraining data disjoint
    from any fine-tuning corpus: heavily decorated task-format documents
    plus off-task symbol documents.

    The decorated documents teach the base the corpus's formatting-junk
    style, so decorations later score as high-confidence (zero knowledge
    novelty) while genuine task tokens stay novel; the symbol documents
    give off-task symbols a trained embedding identity. The base never
    sees the noisy labels it will later score. `worker` is as in
    `warmup_base`."""
    params = init(model_config)
    if base_epochs <= 0:
        return params
    corpus = gen_synth(task, task_size, decoration_rate, subseed(seed, "base-task"))
    corpus += gen_synth("symbol_noise", background_size, 0.0, subseed(seed, "base-background"))
    examples = [tokenize(r) for r in corpus]
    return warmup_base(params, examples, train_config, base_epochs, worker)


def _shared_params(buffer, config: ModelConfig) -> ModelParams:
    """Parameters of `config` whose tensors are views, in checkpoint order,
    of the float64 shared-memory `buffer`."""
    flat = np.frombuffer(buffer, dtype=np.float64)
    tensors, start = {}, 0
    for name, shape in param_shapes(config).items():
        size = math.prod(shape)
        tensors[name] = Tensor(flat[start : start + size].reshape(shape))
        start += size
    return ModelParams(config, tensors)


def _prefix_share(rows: list[int]) -> int:
    """How many leading runs, of `rows` rows each, the worker computes: the
    split that best balances rows between it and the parent, and none of a
    single run."""
    total = sum(rows)
    return min(range(1, len(rows)), key=lambda k: max(sum(rows[:k]), total - sum(rows[:k])), default=0)


class _ShareWorker(nm.Fork):
    """A forked worker that computes a prefix of every batch's runs.

    It reads the parameters this process `hold`s in one shared buffer, gets
    its runs through the pipe, writes their gradient sum into a second
    shared buffer and sends their losses back (`gradient_sum`). The worker
    of `run_experiment`, given the arm's inputs, then trains the unmasked
    arm from the base left in the first buffer (`run_arm`)."""

    def __init__(self, config: ModelConfig, *arm_inputs):
        import multiprocessing  # here, not at module level: ~20 ms off `import xtf.training`

        size = sum(math.prod(shape) for shape in param_shapes(config).values())
        params_buffer, grads_buffer = multiprocessing.RawArray("d", size), multiprocessing.RawArray("d", size)
        self._params = _shared_params(params_buffer, config)
        self._grads = [t.value for t in _shared_params(grads_buffer, config).values()]
        super().__init__(_serve_shares, params_buffer, grads_buffer, config, *arm_inputs)

    def hold(self, params: ModelParams) -> ModelParams:
        """`params` copied into the buffer the worker reads, as views of it:
        updating them in place updates the worker's copy."""
        for t, src in zip(self._params.values(), params.values()):
            t.value[...] = src.value
        return self._params

    def gradient_sum(self, params: ModelParams, runs: list[tuple]) -> tuple[list[float], list[np.ndarray]]:
        """`_gradient_sum` of `runs`, of which the worker computes the prefix
        that best balances rows while this process computes the rest. The
        worker's sum comes first, so the runs are added in the same order
        and the result is bitwise the same; so is the error raised, the
        first in run order. This process holds its runs' gradients until
        the worker's sum arrives: on the benchmark's `long_context_train`
        (3-7 such runs a batch, 2-vCPU VM) that raised peak memory by ~3%,
        and copying them into buffers reused every batch measured no lower."""
        k = _prefix_share([sum(len(ex.tokens) for ex in run) for run, _ in runs])
        if not k:
            return _gradient_sum(params, runs)
        self.send(runs[:k])
        own = []
        try:
            for run in runs[k:]:
                loss, grads = packed_loss(params, *run)
                _check_loss(loss, run)
                own.append((loss, grads))
        finally:
            losses, acc = self.collect()  # a worker's error, on an earlier run, wins
        for loss, grads in own:
            losses.append(loss)
            for a, g in zip(acc, grads):
                a += g
        return losses, acc

    def collect(self) -> tuple[list[float], list[np.ndarray]]:
        """The losses of the worker's runs and their gradient sum (views of
        the shared buffer) once the worker has them. A worker that raises or
        dies first makes this raise at once.

        Both processes busy-wait for each other's message. A blocking wait
        lets the idle vCPU halt, and on a shared 2-vCPU KVM host waking it
        again cost up to milliseconds per batch: over 15 interleaved 5-epoch
        bases, blocking waits took 2.26 s median (3.45 s worst) against
        2.12 s (2.73 s) busy-waiting, and 2.93 s in one process."""
        return self.recv(busy=True), self._grads

    def run_arm(self, base_params: ModelParams) -> None:
        """End the share loop and have the worker train the unmasked arm on
        `base_params`; `recv` then gives `_serve_shares`'s result."""
        self.hold(base_params)  # before the None: the worker reads the buffer once it has that
        self.send(None)


def _serve_shares(conn, params_buffer, grads_buffer, config: ModelConfig, *arm_inputs) -> tuple[float, float]:
    """`_ShareWorker`'s process: for each list of runs, `_gradient_sum` into
    the shared buffer and the losses back, until None comes. A diverging run
    raises here, as in the parent (`train`'s log takes the error), and needs
    no numpy warning. Then it returns `run_experiment`'s unmasked arm: the
    test and best validation accuracy of a plain fine-tune from the buffer."""
    params = _shared_params(params_buffer, config)
    acc = [t.value for t in _shared_params(grads_buffer, config).values()]
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            while not conn.poll(0):  # busy-waits, as `_ShareWorker.collect` says why
                pass
            if (runs := conn.recv()) is None:
                break
            losses, grads = _gradient_sum(params, runs)
            for a, g in zip(acc, grads):
                a[...] = g
            conn.send(losses)
    train_ex, val_ex, test_ex, train_config = arm_inputs
    normal = _train(params, train_ex, None, train_config, val_ex)
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

    One worker process starts first. It computes a share of every batch of
    `prepare_base` (the base is bitwise the single-process one), then
    trains the unmasked arm while this process scores, filters and trains
    the masked arm, each arm in one process; BLAS is held at one thread in
    both throughout. A worker error during the base raises at once, and one
    in the unmasked arm at the masked arm's next epoch; an error in this
    process kills the worker and propagates at once. The worker has exited
    when this returns or raises.
    """
    with nm.one_blas_thread():
        train_ex, val_ex, test_ex = split_records(dataset, counts=split_counts)
        val_ex = [strip_noise(ex) for ex in val_ex]
        test_ex = [strip_noise(ex) for ex in test_ex]
        config = model_config if base_params is None else base_params.config
        with _ShareWorker(config, train_ex, val_ex, test_ex, train_config) as worker:
            if base_params is None:
                base_params = prepare_base(model_config, train_config, base_epochs, train_config.seed, worker=worker)
            worker.run_arm(base_params)
            score_result = score_dataset(
                base_params, train_ex, ri_agg=ri_agg, domain_source=domain_source, distance_metric=distance_metric
            )
            masks, stats = apply_filters(score_result.scores, filter_config)
            masked = _train(base_params.copy(), train_ex, {m.id: m for m in masks}, train_config, val_ex, peer=worker)
            xtf_acc = evaluate(masked.params, test_ex)
            normal_acc, normal_val_acc = worker.recv()

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
