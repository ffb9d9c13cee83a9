"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup`, runs one
closed-loop operation in `op`, states the work one operation does, and
checks outputs against the oracles in `oracles.py` or against properties
the method must have. The first operation of a run is checked in full;
every later one must reproduce it bitwise (same inputs, deterministic
program).

The xtf layers are always reached through module attributes
(`training.train`, not `from ... import train`), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import oracles
from oracles import require
from xtf import data, filtering, model, scoring, theory, training

# Reference model shape and optimiser (criterion 10): d_model 64, 2 layers,
# 2 heads, batch 16, Adam at 3e-3. ModelConfig's defaults are that shape.
LEARNING_RATE = 3e-3
BATCH_SIZE = 16
NOISE_RATE = 0.25


def bench_seed(seed: int, name: str) -> int:
    """Named sub-seed of the benchmark seed (sha256, 63 bits)."""
    digest = hashlib.sha256(f"bench:{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


def train_config(seed: int, epochs: int) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=LEARNING_RATE, epochs=epochs, batch_size=BATCH_SIZE, optimizer="adam", seed=seed
    )


def chained_corpus(size: int, seed: int, max_context: int = 6) -> list[data.DatasetRecord]:
    """Chained addition: 0..max_context solved problems ("12+30=42 12+30;",
    15 characters each) before a final problem whose label carries the
    ground-truth noise flags. Sequences run from 15 to about 110 tokens."""
    finals = data.gen_synth("addition", size, NOISE_RATE, bench_seed(seed, "chain-final"))
    context = data.gen_synth("addition", size * max_context, 0.0, bench_seed(seed, "chain-context"))
    depth = np.random.default_rng(bench_seed(seed, "chain-depth")).integers(0, max_context + 1, size=size)
    records = []
    for i, rec in enumerate(finals):
        solved = context[i * max_context : i * max_context + int(depth[i])]
        prefix = "".join(c.input_text + c.output_text + ";" for c in solved)
        records.append(
            data.DatasetRecord(
                f"chain-{i:05d}", input_text=prefix + rec.input_text, output_text=rec.output_text, noise=rec.noise
            )
        )
    return records


def tokens_digest(examples) -> str:
    h = hashlib.sha256()
    for ex in examples:
        h.update(ex.id.encode("utf-8"))
        h.update(np.asarray(ex.tokens, dtype=np.int64).tobytes())
    return h.hexdigest()


def noise_share(examples) -> float:
    flags = [f for ex in examples for f in ex.noise]
    return sum(flags) / len(flags)


class Workload:
    name = ""
    work_unit = ""
    op_alias = ""
    work_alias = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> str:
        """Build inputs; returns a digest that must not change between set-ups."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def work(self, out) -> float:
        """Work units done by one operation that returned `out`."""
        raise NotImplementedError

    def check_first(self, out) -> None:
        raise NotImplementedError

    def same(self, a, b) -> bool:
        raise NotImplementedError


class TwinArm(Workload):
    """One run_experiment: prepare_base, scoring, RI+KN filtering, two
    fine-tunes and test evaluation, at the reference model shape and a
    shortened schedule (see README)."""

    name = "twin_arm"
    work_unit = "fine-tune sequence tokens (train split x epochs x 2 arms)"
    op_alias = "experiment_s"
    work_alias = "experiment_train_tokens_per_s"
    SIZE = 360
    SPLIT = (240, 60, 60)
    BASE_EPOCHS = 5
    EPOCHS = 3
    ENABLED = ("RI", "KN")

    def setup(self) -> str:
        records = data.gen_synth("addition", self.SIZE, NOISE_RATE, bench_seed(self.seed, "twin-corpus"))
        self.examples = [data.tokenize(r) for r in records]
        self.model_seed = bench_seed(self.seed, "twin-model") % (2**31)
        return tokens_digest(self.examples)

    def op(self):
        return training.run_experiment(
            self.examples,
            filtering.FilterConfig(enabled=self.ENABLED),
            train_config(self.seed, self.EPOCHS),
            model_config=model.ModelConfig(seed=self.model_seed),
            base_epochs=self.BASE_EPOCHS,
            split_counts=self.SPLIT,
        )

    def _train_split(self):
        train_ids, _, _ = oracles.rebuild_split([ex.id for ex in self.examples], self.SPLIT)
        by_id = {ex.id: ex for ex in self.examples}
        return [by_id[i] for i in train_ids]

    def work(self, out) -> float:
        return 2 * self.EPOCHS * sum(len(ex.tokens) for ex in self._train_split())

    def check_first(self, report) -> None:
        split = self._train_split()
        frac = report["filtered_fraction"]
        require(0.02 <= frac <= 0.60, f"filtered_fraction {frac} outside [0.02, 0.60]")
        quality = report["filter_quality"]["overall"]
        truth = sum(sum(ex.noise) for ex in split)
        require(
            quality["tp"] + quality["fn"] == truth,
            f"tp+fn = {quality['tp'] + quality['fn']} != {truth} noise tokens in the rebuilt train split",
        )
        labels = sum(len(ex.output_ids) for ex in split)
        require(report["total_label_tokens"] == labels, f"total_label_tokens != {labels}")
        share = truth / labels
        require(quality["precision"] > share, f"mask precision {quality['precision']} <= noise share {share}")
        n_test = self.SPLIT[2]
        for key in ("normal_acc", "xtf_acc"):
            acc = report[key]
            require(
                0.0 <= acc <= 1.0 and abs(acc * n_test - round(acc * n_test)) < 1e-9,
                f"{key} = {acc} is not a multiple of 1/{n_test} in [0, 1]",
            )
        require(report["score_errors"] == [], f"score_errors: {report['score_errors']}")

    def same(self, a, b) -> bool:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class ScoreFilter(Workload):
    """Score a chained-addition corpus with a frozen base, filter with all
    three rules, write and read back scores and masks."""

    name = "score_filter"
    work_unit = "sequence tokens scored, filtered and round-tripped"
    op_alias = "score_filter_round_s"
    work_alias = "scored_tokens_per_s"
    SIZE = 2000
    BASE_EPOCHS = 6
    BASE_TASK_SIZE = 150
    BASE_BACKGROUND_SIZE = 60
    FILTER = filtering.FilterConfig()

    def setup(self) -> str:
        self.examples = [data.tokenize(r) for r in chained_corpus(self.SIZE, self.seed)]
        model_seed = bench_seed(self.seed, "score-model") % (2**31)
        self.base = training.prepare_base(
            model.ModelConfig(seed=model_seed),
            train_config(model_seed, 1),
            self.BASE_EPOCHS,
            model_seed,
            task_size=self.BASE_TASK_SIZE,
            background_size=self.BASE_BACKGROUND_SIZE,
        )
        return tokens_digest(self.examples) + hashlib.sha256(self.base.fingerprint()).hexdigest()

    def op(self):
        result = scoring.score_dataset(self.base, self.examples)
        masks, stats = filtering.apply_filters(result.scores, self.FILTER)
        scores_path, masks_path = self.scratch / "scores.jsonl", self.scratch / "masks.jsonl"
        scoring.save_scores(result.scores, scores_path)
        loaded_scores = scoring.load_scores(scores_path)
        filtering.save_masks(masks, masks_path)
        loaded_masks = filtering.load_masks(masks_path)
        return result, masks, stats, loaded_scores, loaded_masks

    def work(self, out) -> float:
        return sum(len(ex.tokens) for ex in self.examples)

    def check_first(self, out) -> None:
        result, masks, stats, loaded_scores, loaded_masks = out
        require(result.errors == [], f"score errors: {result.errors[:3]}")
        require([s.id for s in result.scores] == [ex.id for ex in self.examples], "scored ids differ")
        for ex, s, m in zip(self.examples, result.scores, masks):
            require(np.array_equal(s.s_kn, 1.0 - s.pcp), f"{ex.id}: s_kn != 1 - pcp")
            trace = model.forward(self.base, ex.tokens)
            s_ri, pcp = oracles.recompute_ri_pcp(trace.attention, trace.logits, ex.l_input, ex.output_ids)
            oracles.check_close(s.s_ri, s_ri, 1e-12, f"{ex.id}: s_ri")
            oracles.check_close(s.pcp, pcp, 1e-12, f"{ex.id}: pcp")
            require(m.id == ex.id, f"mask id {m.id} != {ex.id}")
            require(m.noise == [bool(src) for src in m.sources], f"{ex.id}: noise is not the union of sources")
            oracles.check_ri_flags(s.s_ri, m.sources, ex.id)
            oracles.check_kn_flags(s.s_kn, m.sources, self.FILTER.kn_cutoff, ex.id)

        pool = np.concatenate([s.s_tr for s in result.scores])
        oracles.check_otsu(pool, stats.otsu_thresholds, self.FILTER.otsu_classes, self.FILTER.otsu_bins)
        expected_tr = oracles.tr_flags(pool, stats.otsu_thresholds, self.FILTER.otsu_classes)
        got_tr = np.array(["TR" in src for m in masks for src in m.sources])
        require(bool(np.all(expected_tr == got_tr)), "TR flags differ from the Otsu class rule")

        require(_scores_identical(result.scores, loaded_scores), "scores do not round-trip bitwise")
        require(_masks_identical(masks, loaded_masks), "masks do not round-trip")

        kn = [truth for ex, m in zip(self.examples, masks) for truth, src in zip(ex.noise, m.sources) if "KN" in src]
        share = noise_share(self.examples)
        require(bool(kn) and sum(kn) / len(kn) > share, f"KN precision does not exceed the noise share {share:.3f}")

    def same(self, a, b) -> bool:
        return (
            _scores_identical(a[0].scores, b[0].scores)
            and _masks_identical(a[1], b[1])
            and a[2].otsu_thresholds == b[2].otsu_thresholds
            and _scores_identical(a[3], b[3])
            and _masks_identical(a[4], b[4])
        )


def _scores_identical(a, b) -> bool:
    fields = ("s_ri", "s_kn", "s_tr", "pcp")
    return len(a) == len(b) and all(
        x.id == y.id and all(getattr(x, f).tobytes() == getattr(y, f).tobytes() for f in fields)
        for x, y in zip(a, b)
    )


def _masks_identical(a, b) -> bool:
    return len(a) == len(b) and all(
        x.id == y.id and list(x.noise) == list(y.noise) and list(map(tuple, x.sources)) == list(map(tuple, y.sources))
        for x, y in zip(a, b)
    )


class LongContextTrain(Workload):
    """Masked training from init on chained addition, with masks taken from
    the ground-truth noise flags, and per-epoch validation."""

    name = "long_context_train"
    work_unit = "sequence tokens x epochs through train"
    op_alias = "train_s"
    work_alias = "train_tokens_per_s"
    SIZE = 360
    N_VAL = 40
    EPOCHS = 2
    ECHO_TOKENS = 16

    def setup(self) -> str:
        examples = [data.tokenize(r) for r in chained_corpus(self.SIZE, bench_seed(self.seed, "long"))]
        self.train_set = examples[: self.SIZE - self.N_VAL]
        self.val_set = [data.strip_noise(ex) for ex in examples[self.SIZE - self.N_VAL :]]
        self.masks = {
            ex.id: filtering.NoiseMask(ex.id, list(ex.noise), [("GT",) if f else () for f in ex.noise])
            for ex in self.train_set
        }
        self.params = model.init(model.ModelConfig(seed=bench_seed(self.seed, "long-model") % (2**31)))
        self.init_fingerprint = self.params.fingerprint()
        return tokens_digest(examples) + hashlib.sha256(self.init_fingerprint).hexdigest()

    def op(self):
        config = train_config(self.seed, self.EPOCHS)
        return training.train(self.params, self.train_set, self.masks, config, val_set=self.val_set)

    def work(self, out) -> float:
        return self.EPOCHS * sum(len(ex.tokens) for ex in self.train_set)

    def check_first(self, result) -> None:
        log = result.log
        require(len(log) == self.EPOCHS, f"training log has {len(log)} epochs, expected {self.EPOCHS}")
        for entry in log:
            require("error" not in entry, f"epoch {entry.get('epoch')}: {entry.get('error')}")
            require(math.isfinite(entry["train_loss"]), f"epoch {entry['epoch']}: non-finite loss")
        require(log[-1]["train_loss"] < log[0]["train_loss"], "last epoch's loss is not below the first's")
        accs = [e["val_acc"] for e in log]
        best = max(accs)
        require(result.best_val_acc == best, f"best_val_acc {result.best_val_acc} != log maximum {best}")
        require(result.best_epoch == log[accs.index(best)]["epoch"], "best_epoch is not the first best epoch")
        require(self.params.fingerprint() == self.init_fingerprint, "train modified its input params")
        params = result.params
        max_seq = params.config.max_seq

        def logits(toks):
            return model.forward(params, toks).logits

        greedy = oracles.greedy_exact_match(logits, self.val_set, data.EOS_ID, max_seq)
        got = training.evaluate(params, self.val_set)
        require(got == greedy, f"evaluate {got} != plain greedy loop {greedy}")
        # After two epochs hardly any label is right, so the comparison above
        # is mostly 0 == 0. Labels that are the model's own greedy
        # continuations must all count as right.
        echoes = []
        for ex in self.val_set:
            gen = oracles.greedy_continuation(logits, ex.input_ids, data.EOS_ID, self.ECHO_TOKENS, max_seq)
            if gen and gen[-1] == data.EOS_ID:
                echoes.append(data.TokenizedExample(ex.id, list(ex.input_ids), gen))
        if echoes:
            got = training.evaluate(params, echoes)
            require(got == 1.0, f"evaluate scores the model's own greedy continuations {got}, not 1")

    def same(self, a, b) -> bool:
        return a.log == b.log and a.best_epoch == b.best_epoch and a.params.fingerprint() == b.params.fingerprint()


class TheoryLab(Workload):
    """verify_theory plus gain_sweep_rows on a fixed set of four seeds."""

    name = "theory_lab"
    work_unit = "theory check instances"
    op_alias = "theory_round_s"
    work_alias = "theory_instances_per_s"
    N_SEEDS = 4
    SWEEP_AXIS = 5

    def setup(self) -> str:
        self.seeds = [bench_seed(self.seed, f"theory-{j}") % (2**31) for j in range(self.N_SEEDS)]
        return ",".join(map(str, self.seeds))

    def op(self):
        return [(theory.verify_theory(s), theory.gain_sweep_rows(s, self.SWEEP_AXIS)) for s in self.seeds]

    def work(self, out) -> float:
        return sum(c["instances"] for report, _ in out for c in report["checks"])

    def check_first(self, out) -> None:
        for seed, (report, rows) in zip(self.seeds, out):
            failing = [c["name"] for c in report["checks"] if not c["pass"]]
            require(report["all_pass"] and not failing, f"theory seed {seed}: failing checks {failing}")
            require(len(rows) == self.SWEEP_AXIS**3, f"theory seed {seed}: {len(rows)} sweep rows")

    def same(self, a, b) -> bool:
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


WORKLOADS = {w.name: w for w in (TwinArm, ScoreFilter, LongContextTrain, TheoryLab)}
