"""Command-line surface: generate data, score it, filter it, fine-tune,
evaluate, report, and verify the theory checks.

Exit codes: 0 success, 1 input/usage error or a failed run (a diverging
fine-tune, a dead worker process), 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import NamedTuple

from . import data as D
from . import filtering as F
from . import model as M
from . import scoring as S
from . import theory as T
from . import training as TR


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text

    return parse


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def _attributes(text: str) -> tuple[str, ...]:
    return tuple(_choice(F.ATTRIBUTES)(a.strip()) for a in text.split(",") if a.strip())


# Every config key, grouped by what it configures, with the parser of its
# value. A key the file leaves out takes its target's own default, except
# that the CLI fine-tunes with CLI_TRAIN in place of TrainConfig's defaults.
CONFIG_SCHEMA = {
    "model": dict(vocab_size=int, d_model=int, n_layers=int, n_heads=int, d_ff=int, max_seq=int, tie_output=_bool),
    "filter": dict(kn_cutoff=float, otsu_classes=int, otsu_bins=int, enabled_attributes=_attributes),
    "scoring": dict(
        ri_agg=_choice(S.RI_AGGS), domain_source=_choice(S.DOMAIN_SOURCES), distance_metric=_choice(S.DISTANCE_METRICS)
    ),
    "train": dict(
        learning_rate=float, epochs=int, batch_size=int, optimizer=_choice(M.OPTIMIZERS), val_fraction=float,
        report_every=int,
    ),
    "experiment": dict(base_epochs=_count, split_train=_count, split_val=_count, split_test=_count, seed=int),
}
CLI_TRAIN = {"epochs": 8, "batch_size": 16}
SPLIT_KEYS = ("split_train", "split_val", "split_test")


class RunConfig(NamedTuple):
    seed: int
    model: M.ModelConfig
    filter: F.FilterConfig
    train: TR.TrainConfig
    scoring: dict  # the score_dataset keywords the file sets
    experiment: dict  # the run_experiment keywords the file sets, besides scoring


def load_run_config(args) -> RunConfig:
    """Parse and check every value of the `--config` file, if the command
    has one and it is given, whichever command reads it. A `--seed` flag
    overrides the file's seed."""
    path = getattr(args, "config", None)
    parts = {target: {} for target in CONFIG_SCHEMA}
    for key, text in (D.load_config(path) if path else {}).items():
        target = next((t for t, keys in CONFIG_SCHEMA.items() if key in keys), None)
        if target is None:
            raise D.IngestionError(f"{path}: unknown config key {key!r}")
        try:
            parts[target][key] = CONFIG_SCHEMA[target][key](text)
        except ValueError as exc:
            raise D.IngestionError(f"{path}: {key} = {text!r}: {exc}") from None
    experiment = parts["experiment"]
    missing = [k for k in SPLIT_KEYS if k not in experiment]
    if 0 < len(missing) < len(SPLIT_KEYS):
        raise D.IngestionError(f"{path}: {', '.join(SPLIT_KEYS)} go together; {missing[0]} is missing")
    if not missing:
        experiment["split_counts"] = tuple(experiment.pop(k) for k in SPLIT_KEYS)
    seed = experiment.pop("seed", 0)
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if "enabled_attributes" in parts["filter"]:
        parts["filter"]["enabled"] = parts["filter"].pop("enabled_attributes")
    try:
        return RunConfig(
            seed,
            M.ModelConfig(**parts["model"], seed=D.subseed(seed, "init")),
            F.FilterConfig(**parts["filter"]),
            TR.TrainConfig(**{**CLI_TRAIN, **parts["train"]}, seed=D.subseed(seed, "shuffle")),
            parts["scoring"],
            experiment,
        )
    except ValueError as exc:
        raise D.IngestionError(f"{path}: {exc}") from None


def _load_params(args, run: RunConfig) -> M.ModelParams:
    if args.checkpoint:
        return M.load_checkpoint(args.checkpoint)
    return M.init(run.model)


def _write_csv(path, header: list, rows) -> None:
    """Write `header` and `rows` as `csv.writer` formats them, through
    `write_atomic`, so an interrupted run leaves no partial file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    D.write_atomic(path, buf.getvalue())


def cmd_gen_synth(args) -> int:
    run = load_run_config(args)
    records = D.gen_synth(args.task, args.size, args.noise_rate, D.subseed(run.seed, "noise"))
    D.save_dataset(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_score(args) -> int:
    run = load_run_config(args)
    examples = D.load_dataset(args.data)
    params = _load_params(args, run)
    result = S.score_dataset(params, examples, **run.scoring)
    for ex_id, msg in result.errors:
        print(f"skipped {ex_id}: {msg}", file=sys.stderr)
    S.save_scores(result.scores, args.out)
    print(f"scored {len(result.scores)} examples -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    run = load_run_config(args)
    scores = S.load_scores(args.scores)
    masks, stats = F.apply_filters(scores, run.filter)
    F.save_masks(masks, args.out)
    if args.stats:
        F.save_stats(stats, args.stats)
    frac = stats.flagged_tokens / stats.total_tokens if stats.total_tokens else 0.0
    print(f"flagged {stats.flagged_tokens}/{stats.total_tokens} tokens ({frac:.3f}) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args)
    examples = D.load_dataset(args.data)
    params = _load_params(args, run)
    masks = None
    if args.masks:
        masks = {m.id: m for m in F.load_masks(args.masks)}
        ids = {ex.id for ex in examples}
        unknown = next((mid for mid in masks if mid not in ids), None)
        if unknown is not None:
            raise S.ConsistencyError(f"{args.masks}: mask id {unknown!r} names no example in {args.data}")
    result = TR.train(params, examples, masks, run.train)
    M.save_checkpoint(result.params, args.out)
    if args.log:
        D.write_atomic(args.log, "\n".join(json.dumps(e) for e in result.log) + "\n")
    if result.log and "error" in result.log[-1]:
        stop = result.log[-1]
        raise M.TrainingError(
            f"training stopped in epoch {stop['epoch']}: {stop['error']}; "
            f"the best checkpoint so far (epoch {result.best_epoch}) -> {args.out}"
        )
    print(f"best epoch {result.best_epoch} val_acc {result.best_val_acc:.3f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    examples = [D.strip_noise(ex) for ex in D.load_dataset(args.data)]
    params = M.load_checkpoint(args.checkpoint)
    acc = TR.evaluate(params, examples)
    payload = {"accuracy": acc, "n": len(examples)}
    if args.out:
        D.write_atomic(args.out, json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return 0


def cmd_report(args) -> int:
    import os

    scores = S.load_scores(args.scores)
    masks = F.load_masks(args.masks)
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ("s_ri", "s_kn", "s_tr", "pcp"):
        pooled = [v for s in scores for v in getattr(s, name)]
        rows = F.histogram_rows(pooled, bins=args.bins)
        _write_csv(os.path.join(args.out_dir, f"hist_{name}.csv"), ["bin_left", "bin_right", "count"], rows)
    comp = F.complementarity_report(masks)
    D.write_atomic(os.path.join(args.out_dir, "complementarity.json"), json.dumps(comp, indent=2) + "\n")
    _write_csv(
        os.path.join(args.out_dir, "complementarity.csv"),
        ["attribute", "marginal"] + [f"after_{b}" for b in F.ATTRIBUTES],
        (
            [a, comp["marginal"][a]] + ["" if b == a else comp["overlap"][a][b] for b in F.ATTRIBUTES]
            for a in F.ATTRIBUTES
        ),
    )
    if args.data:
        examples = D.load_dataset(args.data)
        try:
            quality = F.filter_quality(masks, examples)
        except F.UnsupportedOperation as exc:
            print(f"no quality report: {exc}", file=sys.stderr)
        else:
            D.write_atomic(os.path.join(args.out_dir, "quality.json"), json.dumps(quality, indent=2) + "\n")
    print(f"reports -> {args.out_dir}")
    return 0


def cmd_verify_theory(args) -> int:
    seed = load_run_config(args).seed
    report = T.verify_theory(seed)
    text = json.dumps(report, indent=2)
    if args.out:
        D.write_atomic(args.out, text + "\n")
    print(text)
    if args.sweep:
        rows = T.gain_sweep_rows(seed)
        fields = list(rows[0].keys())
        _write_csv(args.sweep, fields, ([row[k] for k in fields] for row in rows))
    return 0 if report["all_pass"] else 2


def cmd_run_experiment(args) -> int:
    run = load_run_config(args)
    examples = D.load_dataset(args.data)
    report = TR.run_experiment(
        examples, run.filter, run.train, model_config=run.model, **run.scoring, **run.experiment
    )
    text = json.dumps(report, indent=2)
    D.write_atomic(args.out, text + "\n")
    print(text)
    return 0


# Every flag's type and default; each command lists its flags in help
# order, with "!" marking the ones it requires.
FLAGS = {
    "--task": dict(default="addition", choices=D.CORPUS_TASKS),
    "--size": dict(type=int, default=620),
    "--noise-rate": dict(type=float, default=0.25),
    "--seed": dict(type=int, default=None),
    "--bins": dict(type=int, default=64),
}
COMMANDS = {
    "gen-synth": (cmd_gen_synth, "generate a synthetic corpus with ground-truth noise flags",
                  "--task --size --noise-rate --seed --config --out!"),
    "score": (cmd_score, "score every label token with a frozen base model",
              "--data! --checkpoint --config --seed --out!"),
    "filter": (cmd_filter, "turn scores into noise masks", "--scores! --config --stats --out!"),
    "train": (cmd_train, "fine-tune with (optionally) masked loss",
              "--data! --masks --checkpoint --config --seed --log --out!"),
    "eval": (cmd_eval, "greedy exact-match accuracy of a checkpoint", "--data! --checkpoint! --out"),
    "report": (cmd_report, "score histograms, complementarity and filter quality",
               "--scores! --masks! --data --bins --out-dir!"),
    "verify-theory": (cmd_verify_theory, "run the numerical theory checks", "--seed --out --sweep"),
    "run-experiment": (cmd_run_experiment, "twin-arm masked vs normal fine-tuning comparison",
                       "--data! --config --seed --out!"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="xtf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag.rstrip("!"), required=flag.endswith("!"), **FLAGS.get(flag.rstrip("!"), {}))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # every input error class is a ValueError, and a path that cannot be opened an OSError;
    # a run that cannot go on raises TrainingError, ChildProcessError or MemoryError
    except (OSError, F.UnsupportedOperation, ValueError, M.TrainingError, ChildProcessError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
