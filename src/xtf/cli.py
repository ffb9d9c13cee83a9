"""Command-line surface: generate data, score it, filter it, fine-tune,
evaluate, report, and verify the theory checks.

Exit codes: 0 success, 1 input/usage error, 2 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

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


CONFIG_KEYS = frozenset(
    "vocab_size d_model n_layers n_heads d_ff max_seq tie_output "
    "kn_cutoff otsu_classes otsu_bins enabled_attributes ri_agg domain_source distance_metric "
    "learning_rate epochs batch_size optimizer val_fraction report_every "
    "base_epochs split_train split_val split_test seed".split()
)
SPLIT_KEYS = ("split_train", "split_val", "split_test")


def _cfg(args) -> dict[str, str]:
    """The --config file, rejecting a key outside CONFIG_KEYS, a tie_output
    other than true/false, and a partial split_* triple."""
    if not getattr(args, "config", None):
        return {}
    cfg = D.load_config(args.config)
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise D.IngestionError(f"{args.config}: unknown config key {unknown[0]!r}")
    if cfg.get("tie_output", "true").lower() not in ("true", "false"):
        raise D.IngestionError(f"{args.config}: tie_output must be true or false, got {cfg['tie_output']!r}")
    missing = [k for k in SPLIT_KEYS if k not in cfg]
    if 0 < len(missing) < len(SPLIT_KEYS):
        raise D.IngestionError(f"{args.config}: {', '.join(SPLIT_KEYS)} go together; {missing[0]} is missing")
    return cfg


def _seed(args, cfg: dict[str, str]) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(cfg.get("seed", "0"))


def model_config_from(cfg: dict[str, str], seed: int) -> M.ModelConfig:
    return M.ModelConfig(
        vocab_size=int(cfg.get("vocab_size", D.VOCAB_SIZE)),
        d_model=int(cfg.get("d_model", 64)),
        n_layers=int(cfg.get("n_layers", 2)),
        n_heads=int(cfg.get("n_heads", 2)),
        d_ff=int(cfg.get("d_ff", 128)),
        max_seq=int(cfg.get("max_seq", 128)),
        seed=D.subseed(seed, "init"),
        tie_output=cfg.get("tie_output", "true").lower() != "false",
    )


def filter_config_from(cfg: dict[str, str]) -> F.FilterConfig:
    enabled = tuple(a.strip() for a in cfg.get("enabled_attributes", "RI,KN,TR").split(",") if a.strip())
    return F.FilterConfig(
        kn_cutoff=float(cfg.get("kn_cutoff", 0.05)),
        otsu_classes=int(cfg.get("otsu_classes", 3)),
        otsu_bins=int(cfg.get("otsu_bins", 256)),
        enabled=enabled,
    )


def train_config_from(cfg: dict[str, str], seed: int) -> TR.TrainConfig:
    return TR.TrainConfig(
        learning_rate=float(cfg.get("learning_rate", 3e-3)),
        epochs=int(cfg.get("epochs", 8)),
        batch_size=int(cfg.get("batch_size", 16)),
        optimizer=cfg.get("optimizer", "adam"),
        seed=seed,
        val_fraction=float(cfg.get("val_fraction", 0.1)),
        report_every=int(cfg.get("report_every", 1)),
    )


def _load_examples(path) -> list[D.TokenizedExample]:
    return [D.tokenize(r) for r in D.load_dataset(path)]


def _load_params(args, cfg: dict[str, str], seed: int) -> M.ModelParams:
    if getattr(args, "checkpoint", None):
        return M.load_checkpoint(args.checkpoint)
    return M.init(model_config_from(cfg, seed))


def _write_csv(path, header: list, rows) -> None:
    """Write `header` and `rows` as `csv.writer` formats them, through
    `write_atomic`, so an interrupted run leaves no partial file."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    D.write_atomic(path, buf.getvalue())


def cmd_gen_synth(args) -> int:
    cfg = _cfg(args)
    seed = _seed(args, cfg)
    records = D.gen_synth(args.task, args.size, args.noise_rate, D.subseed(seed, "noise"))
    D.save_dataset(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_score(args) -> int:
    cfg = _cfg(args)
    seed = _seed(args, cfg)
    examples = _load_examples(args.data)
    params = _load_params(args, cfg, seed)
    result = S.score_dataset(
        params,
        examples,
        agg=cfg.get("ri_agg", "mean"),
        domain_source=cfg.get("domain_source", "all_tokens"),
        metric=cfg.get("distance_metric", "euclidean"),
    )
    for ex_id, msg in result.errors:
        print(f"skipped {ex_id}: {msg}", file=sys.stderr)
    S.save_scores(result.scores, args.out)
    print(f"scored {len(result.scores)} examples -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    cfg = _cfg(args)
    scores = S.load_scores(args.scores)
    masks, stats = F.apply_filters(scores, filter_config_from(cfg))
    F.save_masks(masks, args.out)
    if args.stats:
        F.save_stats(stats, args.stats)
    frac = stats.flagged_tokens / stats.total_tokens if stats.total_tokens else 0.0
    print(f"flagged {stats.flagged_tokens}/{stats.total_tokens} tokens ({frac:.3f}) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _cfg(args)
    seed = _seed(args, cfg)
    examples = _load_examples(args.data)
    params = _load_params(args, cfg, seed)
    masks = None
    if args.masks:
        masks = {m.id: m for m in F.load_masks(args.masks)}
        ids = {ex.id for ex in examples}
        unknown = next((mid for mid in masks if mid not in ids), None)
        if unknown is not None:
            raise S.ConsistencyError(f"{args.masks}: mask id {unknown!r} names no example in {args.data}")
    config = train_config_from(cfg, D.subseed(seed, "shuffle"))
    result = TR.train(params, examples, masks, config)
    M.save_checkpoint(result.params, args.out)
    if args.log:
        D.write_atomic(args.log, "\n".join(json.dumps(e) for e in result.log) + "\n")
    print(f"best epoch {result.best_epoch} val_acc {result.best_val_acc:.3f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    examples = [D.strip_noise(ex) for ex in _load_examples(args.data)]
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
        examples = _load_examples(args.data)
        try:
            quality = F.filter_quality(masks, examples)
        except F.UnsupportedOperation as exc:
            print(f"no quality report: {exc}", file=sys.stderr)
        else:
            D.write_atomic(os.path.join(args.out_dir, "quality.json"), json.dumps(quality, indent=2) + "\n")
    print(f"reports -> {args.out_dir}")
    return 0


def cmd_verify_theory(args) -> int:
    report = T.verify_theory(args.seed if args.seed is not None else 0)
    text = json.dumps(report, indent=2)
    if args.out:
        D.write_atomic(args.out, text + "\n")
    print(text)
    if args.sweep:
        rows = T.gain_sweep_rows(args.seed if args.seed is not None else 0)
        fields = list(rows[0].keys())
        _write_csv(args.sweep, fields, ([row[k] for k in fields] for row in rows))
    return 0 if report["all_pass"] else 2


def cmd_run_experiment(args) -> int:
    cfg = _cfg(args)
    seed = _seed(args, cfg)
    examples = _load_examples(args.data)
    split_counts = None
    if "split_train" in cfg:
        split_counts = tuple(int(cfg[k]) for k in SPLIT_KEYS)
    report = TR.run_experiment(
        examples,
        filter_config_from(cfg),
        train_config_from(cfg, D.subseed(seed, "shuffle")),
        model_config=model_config_from(cfg, seed),
        base_epochs=int(cfg.get("base_epochs", 14)),
        split_counts=split_counts,
        ri_agg=cfg.get("ri_agg", "mean"),
        domain_source=cfg.get("domain_source", "all_tokens"),
        distance_metric=cfg.get("distance_metric", "euclidean"),
    )
    text = json.dumps(report, indent=2)
    D.write_atomic(args.out, text + "\n")
    print(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="xtf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus with ground-truth noise flags")
    p.add_argument("--task", default="addition", choices=["addition", "addition_hard", "copy"])
    p.add_argument("--size", type=int, default=620)
    p.add_argument("--noise-rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("score", help="score every label token with a frozen base model")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("filter", help="turn scores into noise masks")
    p.add_argument("--scores", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--stats", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", help="fine-tune with (optionally) masked loss")
    p.add_argument("--data", required=True)
    p.add_argument("--masks", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy exact-match accuracy of a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="score histograms, complementarity and filter quality")
    p.add_argument("--scores", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify-theory", help="run the numerical theory checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--sweep", default=None)
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("run-experiment", help="twin-arm masked vs normal fine-tuning comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        FileNotFoundError,
        D.IngestionError,
        F.UnsupportedOperation,
        M.InputError,
        M.ConfigError,
        S.ConsistencyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
