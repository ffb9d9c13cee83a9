#!/usr/bin/env python3
"""Traced stage split of one criterion-10 reference experiment.

    python3 bench/reference_split.py [--seed 0]

Runs `run_experiment` at the reference settings of acceptance criterion 10
(addition corpus of 620 with seed 1000 + seed, noise 0.25, split 500/60/60,
RI+KN, base_epochs 14, 22 epochs, batch 16, Adam 3e-3, model seed
seed + 50) once under the benchmark's tracer and prints the wall time of
each stage. Takes about a minute; BLAS is pinned as in run.py.
"""

import argparse
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import tracer
    from xtf import data, filtering, model, training

    examples = [data.tokenize(r) for r in data.gen_synth("addition", 620, 0.25, 1000 + seed)]
    tr = tracer.Tracer()
    tr.install()
    start = time.perf_counter()
    try:
        with tr.span("bench.op"):
            report = training.run_experiment(
                examples,
                filtering.FilterConfig(enabled=("RI", "KN")),
                training.TrainConfig(learning_rate=3e-3, epochs=22, batch_size=16, optimizer="adam", seed=seed),
                model_config=model.ModelConfig(seed=seed + 50),
                base_epochs=14,
                split_counts=(500, 60, 60),
            )
    finally:
        wall = time.perf_counter() - start
        tr.uninstall()
    m = tracer.derive(tr.spans)
    print(f"run_experiment wall {wall:.1f} s (seed {seed}; normal_acc {report['normal_acc']:.3f}, "
          f"xtf_acc {report['xtf_acc']:.3f}, filtered_fraction {report['filtered_fraction']:.3f})")
    for key in ("training.prepare_base_s", "training.train_s", "training.masked_loss_s", "training.validate_s",
                "training.test_eval_s", "scoring.score_dataset_s", "filtering.apply_filters_s",
                "numerics.tape_gradients_s", "model.optimizer_step_s"):
        print(f"  {key:28s} {m[key]:8.2f} s  {100 * m[key] / wall:5.1f}%")
    print(f"  training.masked_loss_calls   {m['training.masked_loss_calls']}")
    print(f"  model.decode_tokens          {m['model.decode_tokens']} "
          f"({m['model.decode_positions_per_token']:.1f} positions per token)")
    print(f"  trace.stage_coverage         {m['trace.stage_coverage']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
