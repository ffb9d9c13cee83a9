import inspect
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xtf import cli, scoring, training
from xtf.data import (
    ALPHABET,
    BOS_ID,
    DECORATION_MAP,
    DISTRACTOR_CHARS,
    EOS_ID,
    PAD_ID,
    VOCAB_SIZE,
    DatasetRecord,
    IngestionError,
    gen_synth,
    load_config,
    load_dataset,
    parse_config_text,
    save_dataset,
    split_records,
    strip_noise,
    subseed,
    tokenize,
)
from xtf.filtering import FilterConfig, NoiseMask, UnsupportedOperation, filter_quality, save_masks
from xtf.model import ModelConfig, init, load_checkpoint
from xtf.training import TrainConfig


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def decode_ids(ids) -> str:
    """The text of `ids`, specials dropped: the inverse of tokenizing."""
    return "".join(ALPHABET[i] for i in ids if 0 <= i < len(ALPHABET))


def test_alphabet_edge_ids():
    assert ALPHABET.index(" ") == 0
    assert ALPHABET.index("!") == 1
    assert ALPHABET.index("~") == 94
    assert ALPHABET.index("\n") == 95
    assert (PAD_ID, BOS_ID, EOS_ID, VOCAB_SIZE) == (96, 97, 98, 99)


def test_tokenize_round_trip():
    record = DatasetRecord("r", input_text="12+34=", output_text="46 ok!")
    ex = tokenize(record)
    assert decode_ids(ex.input_ids) == "12+34="
    assert ex.output_ids[-1] == EOS_ID
    assert decode_ids(ex.output_ids) == "46 ok!"  # specials dropped


def test_tokenize_rejects_empty_label_and_input():
    with pytest.raises(IngestionError):
        tokenize(DatasetRecord("r", input_text="a", output_text=""))
    with pytest.raises(IngestionError):
        tokenize(DatasetRecord("r", input_text="", output_text="b"))


def test_tokenize_rejects_out_of_alphabet():
    with pytest.raises(IngestionError) as err:
        tokenize(DatasetRecord("weird", input_text="café=", output_text="x"))
    assert "weird" in str(err.value)


def test_tokenize_ids_mode():
    ex = tokenize(DatasetRecord("r", input_ids=[1, 2], output_ids=[3, EOS_ID]))
    assert ex.input_ids == [1, 2]
    assert ex.output_ids == [3, EOS_ID]


def test_tokenize_text_xor_ids():
    with pytest.raises(IngestionError):
        DatasetRecord("r", input_text="a", output_text="b", input_ids=[1])
    with pytest.raises(IngestionError):
        DatasetRecord("r")


def test_noise_flags_padded_for_eos():
    record = DatasetRecord("r", input_text="a=", output_text="xy", noise=[True, False])
    ex = tokenize(record)
    assert ex.noise == [True, False, False]
    assert len(ex.noise) == len(ex.output_ids)


def test_strip_noise_recovers_clean_label():
    record = DatasetRecord("r", input_text="a=", output_text="x!y", noise=[False, True, False])
    clean = strip_noise(tokenize(record))
    assert decode_ids(clean.output_ids) == "xy"


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------


def test_gen_synth_clean_has_no_flags():
    records = gen_synth("addition", 50, 0.0, 1)
    assert all(not any(r.noise) for r in records)
    for r in records:
        a, b = r.input_text[:-1].split("+")
        assert r.output_text.startswith(f"{int(a) + int(b):02d} ")
        assert r.output_text == f"{int(a) + int(b):02d} {a}+{b}"


def test_gen_synth_flagged_fraction_binomial():
    records = gen_synth("addition", 500, 0.25, 7)
    inserted = sum(sum(r.noise) for r in records)
    clean_positions = sum(len(r.noise) - sum(r.noise) for r in records)
    fraction = inserted / clean_positions
    assert abs(fraction - 0.25) <= 0.04


def test_gen_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(gen_synth("addition", 40, 0.25, 5), a)
    save_dataset(gen_synth("addition", 40, 0.25, 5), b)
    assert a.read_bytes() == b.read_bytes()


def test_gen_synth_distractors_disjoint_and_keyed():
    records = gen_synth("addition", 200, 0.3, 3)
    task_chars = set("0123456789+= ")
    for r in records:
        prev = "="
        for ch, bad in zip(r.output_text, r.noise):
            if bad:
                assert ch in DISTRACTOR_CHARS and ch not in task_chars
                assert ch == DECORATION_MAP[prev]
            else:
                prev = ch


def test_gen_synth_hard_mode_uses_task_alphabet():
    records = gen_synth("addition_hard", 100, 0.3, 3)
    flagged_chars = {ch for r in records for ch, bad in zip(r.output_text, r.noise) if bad}
    assert flagged_chars <= set("0123456789+= ")


def test_gen_synth_rejects_bad_rate():
    with pytest.raises(IngestionError):
        gen_synth("addition", 5, 1.0, 0)
    with pytest.raises(IngestionError):
        gen_synth("no-such-task", 5, 0.1, 0)


# ---------------------------------------------------------------------------
# splits, sub-seeds, config
# ---------------------------------------------------------------------------


def test_split_exact_counts_and_determinism():
    records = gen_synth("addition", 620, 0.25, 9)
    tr1, va1, te1 = split_records(records, counts=(500, 60, 60))
    tr2, va2, te2 = split_records(records, counts=(500, 60, 60))
    assert [r.id for r in tr1] == [r.id for r in tr2]
    assert (len(tr1), len(va1), len(te1)) == (500, 60, 60)
    assert {r.id for r in tr1} | {r.id for r in va1} | {r.id for r in te1} == {r.id for r in records}


def test_split_fraction_mode():
    records = gen_synth("addition", 100, 0.0, 2)
    tr, va, te = split_records(records)
    assert (len(tr), len(va), len(te)) == (80, 10, 10)


def test_split_rejects_bad_counts():
    records = gen_synth("addition", 10, 0.0, 2)
    with pytest.raises(IngestionError):
        split_records(records, counts=(5, 4, 3))
    with pytest.raises(IngestionError):
        split_records(gen_synth("addition", 20, 0.0, 2), counts=(-5, 10, 15))  # train and test would share 10


def test_subseed_stable_and_distinct():
    assert subseed(1, "init") == subseed(1, "init")
    assert subseed(1, "init") != subseed(1, "shuffle")
    assert subseed(1, "init") != subseed(2, "init")


def test_parse_config_text():
    cfg = parse_config_text("a = 1\n# comment\nb = two words  # trailing\n\n")
    assert cfg == {"a": "1", "b": "two words"}
    with pytest.raises(IngestionError):
        parse_config_text("not a pair\n")
    with pytest.raises(IngestionError):
        parse_config_text("a = 1\na = 2\n")


# ---------------------------------------------------------------------------
# dataset files and filter quality
# ---------------------------------------------------------------------------


def test_dataset_file_round_trip(tmp_path):
    records = gen_synth("addition", 20, 0.25, 4)
    path = tmp_path / "data.jsonl"
    save_dataset(records, path)
    assert load_dataset(path) == [tokenize(r) for r in records]


_GOOD_LINE = {"id": "a", "input_text": "1+2=", "output_text": "3", "noise": [False]}


@pytest.mark.parametrize(
    "bad_line",
    [
        "[1, 2]",
        "{not json",
        json.dumps({k: v for k, v in _GOOD_LINE.items() if k != "id"}),
        json.dumps({**_GOOD_LINE, "id": 7}),
        json.dumps({**_GOOD_LINE, "input_text": 12}),
        json.dumps({"id": "a", "input_ids": [1, "2"], "output_ids": [3]}),
        json.dumps({"id": "a", "input_ids": [1, 2], "output_ids": 3}),
        json.dumps({**_GOOD_LINE, "noise": [0]}),
        json.dumps(_GOOD_LINE),  # the same id twice
    ],
)
def test_load_dataset_rejects_malformed_lines(tmp_path, bad_line):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(_GOOD_LINE) + "\n" + bad_line + "\n")
    with pytest.raises(IngestionError) as err:
        load_dataset(path)
    assert f"{path}:2: " in str(err.value)


def test_filter_quality_perfect_and_empty():
    records = gen_synth("addition", 30, 0.3, 5)
    examples = [tokenize(r) for r in records]
    perfect = [
        NoiseMask(ex.id, list(ex.noise), [("TR",) if f else () for f in ex.noise]) for ex in examples
    ]
    q = filter_quality(perfect, examples)
    assert q["overall"]["precision"] == 1.0 and q["overall"]["recall"] == 1.0
    empty = [NoiseMask(ex.id, [False] * len(ex.noise), [()] * len(ex.noise)) for ex in examples]
    q = filter_quality(empty, examples)
    assert q["overall"]["precision"] == 1.0  # empty-prediction convention
    assert q["overall"]["recall"] == 0.0


def test_filter_quality_requires_ground_truth():
    ex = tokenize(DatasetRecord("r", input_text="a=", output_text="b"))
    mask = NoiseMask("r", [False, False], [(), ()])
    with pytest.raises(UnsupportedOperation):
        filter_quality([mask], [ex])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _run(args):
    return cli.main(args)


def test_the_cli_imports_no_scipy():
    # a fresh interpreter: this one may hold modules that other tests imported;
    # the process modules load only when a command forks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    roots = ("scipy", "multiprocessing", "concurrent")
    code = f"import sys, xtf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_unknown_flag_exits_1(capsys):
    assert _run(["gen-synth", "--no-such-flag"]) == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["gen-synth", "--size", "-5", "--out", "d.jsonl"], "--size: expected an integer >= 0, got -5"),
        (["report", "--scores", "s.jsonl", "--masks", "m.jsonl", "--bins", "0", "--out-dir", "r"],
         "--bins: expected an integer >= 1, got 0"),
    ],
    ids=["negative-size", "zero-bins"],
)
def test_cli_rejects_an_out_of_range_count_while_parsing(args, message, tmp_path, monkeypatch, capsys):
    # an empty scores file made `--bins 0` pass, and `--size -5` wrote an empty dataset
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.jsonl").write_text("")
    (tmp_path / "m.jsonl").write_text("")
    assert _run(args) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert errors == [f"error: argument {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "s.jsonl"]


def test_cli_ctrl_c_exits_130_with_one_line(tmp_path, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.D, "gen_synth", interrupted)
    assert _run(["gen-synth", "--task", "copy", "--size", "4", "--out", str(tmp_path / "d.jsonl")]) == 130
    captured = capsys.readouterr()
    assert captured.err == "error: interrupted\n" and captured.out == ""
    assert not (tmp_path / "d.jsonl").exists()


def test_cli_missing_scores_file_exits_1(tmp_path, capsys):
    for missing in (tmp_path / "nope.jsonl", tmp_path):  # no file, or a directory
        code = _run(["filter", "--scores", str(missing), "--out", str(tmp_path / "m.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(missing) in err and err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_bad_artifacts_with_one_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    scores = tmp_path / "scores.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\n")
    assert _run(["gen-synth", "--task", "addition", "--size", "20", "--noise-rate", "0.25", "--seed", "3", "--out", str(data)]) == 0
    data_lines = data.read_text().splitlines()
    bad_data = tmp_path / "bad_data.jsonl"
    third = json.loads(data_lines[2])
    # lines that load but do not tokenize: no label, a character outside the alphabet, a flag too many
    untokenizable = [
        {k: v for k, v in third.items() if k != "output_text"},
        {**third, "output_text": third["output_text"] + "\u00e9", "noise": third["noise"] + [False]},
        {**third, "noise": third["noise"] + [False]},
    ]
    for bad in (
        [json.dumps({k: v for k, v in json.loads(data_lines[0]).items() if k != "id"})] + data_lines[1:],
        data_lines + [data_lines[3]],
        *(data_lines[:2] + [json.dumps(obj)] + data_lines[3:] for obj in untokenizable),
    ):
        bad_data.write_text("\n".join(bad) + "\n")
        capsys.readouterr()
        assert _run(["score", "--data", str(bad_data), "--config", str(cfg), "--seed", "3", "--out", str(scores)]) == 1
        err = capsys.readouterr().err
        assert re.match(rf"error: {re.escape(str(bad_data))}:\d+: ", err) and err.count("\n") == 1, err
        assert not scores.exists()
    assert _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "3", "--out", str(scores)]) == 0
    lines = scores.read_text().splitlines()

    masks = tmp_path / "masks.jsonl"
    for bad in (
        [json.dumps({k: v for k, v in json.loads(lines[0]).items() if k != "s_kn"})] + lines[1:],
        lines + [lines[3]],
    ):
        scores.write_text("\n".join(bad) + "\n")
        capsys.readouterr()
        assert _run(["filter", "--scores", str(scores), "--out", str(masks)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not masks.exists()

    scores.write_text("\n".join(lines) + "\n")
    assert _run(["filter", "--scores", str(scores), "--out", str(masks)]) == 0
    mask_lines = masks.read_text().splitlines()
    masks.write_text(
        "\n".join([json.dumps({k: v for k, v in json.loads(mask_lines[0]).items() if k != "sources"})] + mask_lines[1:])
        + "\n"
    )
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert _run(["train", "--data", str(data), "--masks", str(masks), "--config", str(cfg), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sources" in err and err.count("\n") == 1
    assert not ckpt.exists()
    all_flagged = [json.loads(line) for line in mask_lines]
    for obj in all_flagged:
        obj["noise"], obj["sources"] = [True] * len(obj["noise"]), [["KN"]] * len(obj["noise"])
    masks.write_text("".join(json.dumps(obj) + "\n" for obj in all_flagged))
    capsys.readouterr()
    assert _run(["train", "--data", str(data), "--masks", str(masks), "--config", str(cfg), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err == "error: every training sample is fully masked\n"
    assert not ckpt.exists()

    from xtf.model import ModelConfig, init, save_checkpoint

    save_checkpoint(init(ModelConfig()), ckpt)
    blob = ckpt.read_bytes()
    for bad in (blob + b"JUNKJUNK", blob[:20]):
        ckpt.write_bytes(bad)
        capsys.readouterr()
        assert _run(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_bad_config_with_one_line(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    assert _run(["gen-synth", "--task", "copy", "--size", "12", "--seed", "1", "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out"
    for text, command, needle in (
        ("d_model = 16\nlearning_rat = 0.5\n", "train", "learning_rat"),
        ("d_model = 16\ntie_output = flase\n", "score", "tie_output"),
        ("d_model = 16\nsplit_train = 8\n", "run-experiment", "split_val"),
        ("split_train = 8\nsplit_val = 2\n", "run-experiment", "split_test"),
        ("learning_rate = abc\n", "train", f"{cfg}: learning_rate = 'abc'"),
        ("d_model = 6x\n", "score", f"{cfg}: d_model = '6x'"),
        ("otsu_classes = 1.5\n", "train", f"{cfg}: otsu_classes = '1.5'"),
        ("enabled_attributes = RI,XX\n", "train", f"{cfg}: enabled_attributes = 'RI,XX'"),
        ("ri_agg = bogus\n", "run-experiment", f"{cfg}: ri_agg = 'bogus'"),
        ("optimizer = sgdx\n", "train", f"{cfg}: optimizer = 'sgdx'"),
        ("learning_rate = nan\n", "train", f"{cfg}: learning_rate must be"),
        ("val_fraction = 1.5\n", "train", f"{cfg}: val_fraction must be"),
        ("split_train = -5\nsplit_val = 10\nsplit_test = 15\n", "run-experiment", f"{cfg}: split_train = '-5'"),
        ("base_epochs = -3\n", "run-experiment", f"{cfg}: base_epochs = '-3'"),
        ("d_model = 16\nd_model = 32\n", "score", f"{cfg}:2: repeated key 'd_model'"),
        ("d_model = 16\nnot a pair\n", "score", f"{cfg}:2: expected 'key = value'"),
    ):
        cfg.write_text(text)
        capsys.readouterr()
        assert _run([command, "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err and err.count("\n") == 1
        assert not out.exists()
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\ntie_output = False\n")
    assert _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0


def test_cli_rejects_an_oversized_model_under_a_memory_limit(tmp_path):
    # the embedding table alone would be ~79 GB; the limit turns a check
    # that ever stops catching it into a MemoryError, not a machine out of memory
    import resource

    data, cfg, out = tmp_path / "data.jsonl", tmp_path / "run.cfg", tmp_path / "model.ckpt"
    assert _run(["gen-synth", "--size", "20", "--seed", "0", "--out", str(data)]) == 0
    cfg.write_text("d_model = 100000000\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    gib = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "xtf.cli", "train", "--data", str(data), "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {cfg}: ") and "d_model=100000000" in proc.stderr, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not out.exists()


def test_cli_reports_running_out_of_memory_in_one_line(tmp_path, monkeypatch, capsys):
    # ~12.8M weights pass the config's ceiling, but with Adam's moments, the
    # gradients and the share worker's buffers they outgrow 768 MiB, which
    # still leaves room for the interpreter and numpy to start
    import resource

    data, cfg, out = tmp_path / "data.jsonl", tmp_path / "run.cfg", tmp_path / "model.ckpt"
    assert _run(["gen-synth", "--size", "20", "--seed", "0", "--out", str(data)]) == 0
    cfg.write_text("d_model = 1024\nn_layers = 1\nd_ff = 4096\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    limit = 768 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "xtf.cli", "train", "--data", str(data), "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1 and proc.stdout == "", proc.stderr
    assert not out.exists()

    # a MemoryError without a message names its class
    def no_memory(path):
        raise MemoryError()

    monkeypatch.setattr(cli.D, "load_dataset", no_memory)
    capsys.readouterr()
    assert _run(["train", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n" and not out.exists()


def test_cli_run_experiment_checks_config_before_any_work(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.jsonl"
    assert _run(["gen-synth", "--task", "copy", "--size", "12", "--seed", "1", "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ri_agg = bogus\n")

    def no_base(*args, **kwargs):
        raise AssertionError("prepare_base ran before the config was checked")

    monkeypatch.setattr(training, "prepare_base", no_base)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert _run(["run-experiment", "--data", str(data), "--config", str(cfg), "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ri_agg" in err and err.count("\n") == 1
    assert not report.exists()


def test_cli_defaults_without_a_config(tmp_path, monkeypatch):
    """What the CLI runs with no --config: the library defaults, except the
    fine-tune's 8 epochs at batch 16, and seed 0."""
    data = tmp_path / "data.jsonl"
    assert _run(["gen-synth", "--task", "copy", "--size", "12", "--out", str(data)]) == 0
    calls = {}

    def recorder(fn, result):
        def record(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[fn.__name__] = bound.arguments
            return result

        return record

    monkeypatch.setattr(training, "run_experiment", recorder(training.run_experiment, {}))
    monkeypatch.setattr(scoring, "score_dataset", recorder(scoring.score_dataset, scoring.ScoreResult([], None)))
    assert _run(["run-experiment", "--data", str(data), "--out", str(tmp_path / "report.json")]) == 0
    assert _run(["score", "--data", str(data), "--out", str(tmp_path / "scores.jsonl")]) == 0
    run, score = calls["run_experiment"], calls["score_dataset"]
    assert run["model_config"] == score["params"].config == ModelConfig(seed=subseed(0, "init"))
    assert run["filter_config"] == FilterConfig()
    assert run["train_config"] == TrainConfig(epochs=8, batch_size=16, seed=subseed(0, "shuffle"))
    assert run["base_epochs"] == 14 and run["split_counts"] is None
    for args in (run, score):
        assert (args["ri_agg"], args["domain_source"], args["distance_metric"]) == ("mean", "all_tokens", "euclidean")


def test_cli_train_rejects_masks_of_another_dataset(tmp_path, capsys):
    copy_data = tmp_path / "copy.jsonl"
    addition_data = tmp_path / "addition.jsonl"
    scores = tmp_path / "scores.jsonl"
    masks = tmp_path / "masks.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\nepochs = 1\nbatch_size = 8\n")
    assert _run(["gen-synth", "--task", "copy", "--size", "16", "--seed", "2", "--out", str(copy_data)]) == 0
    assert _run(["gen-synth", "--task", "addition", "--size", "16", "--seed", "2", "--out", str(addition_data)]) == 0
    assert _run(["score", "--data", str(addition_data), "--config", str(cfg), "--seed", "2", "--out", str(scores)]) == 0
    assert _run(["filter", "--scores", str(scores), "--out", str(masks)]) == 0

    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert _run(["train", "--data", str(copy_data), "--masks", str(masks), "--config", str(cfg), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "addition-00000" in err and err.count("\n") == 1
    assert not ckpt.exists()

    # examples without a mask stay legal: scoring skips invalid examples
    masks.write_text("\n".join(masks.read_text().splitlines()[:5]) + "\n")
    assert _run(["train", "--data", str(addition_data), "--masks", str(masks), "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert ckpt.exists()


def test_cli_pipeline_smoke(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    scores = tmp_path / "scores.jsonl"
    masks = tmp_path / "masks.jsonl"
    stats = tmp_path / "stats.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\nepochs = 1\nbatch_size = 8\n")

    assert _run(["gen-synth", "--task", "addition", "--size", "30", "--noise-rate", "0.25", "--seed", "3", "--out", str(data)]) == 0
    assert _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "3", "--out", str(scores)]) == 0
    assert _run(["filter", "--scores", str(scores), "--stats", str(stats), "--out", str(masks)]) == 0
    report_dir = tmp_path / "reports"
    assert _run(["report", "--scores", str(scores), "--masks", str(masks), "--data", str(data), "--out-dir", str(report_dir)]) == 0
    assert (report_dir / "hist_s_ri.csv").exists()
    assert (report_dir / "complementarity.json").exists()
    assert (report_dir / "quality.json").exists()

    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "train.log"
    assert _run(["train", "--data", str(data), "--masks", str(masks), "--config", str(cfg), "--seed", "3", "--log", str(log), "--out", str(ckpt)]) == 0
    assert ckpt.exists() and log.exists()
    assert _run(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_cli_idempotent_stage_outputs(tmp_path):
    data = tmp_path / "data.jsonl"
    scores1 = tmp_path / "s1.jsonl"
    scores2 = tmp_path / "s2.jsonl"
    _run(["gen-synth", "--size", "12", "--noise-rate", "0.2", "--seed", "1", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\n")
    _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "1", "--out", str(scores1)])
    _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "1", "--out", str(scores2)])
    assert scores1.read_bytes() == scores2.read_bytes()


def test_cli_score_split_and_serial_write_the_same_bytes(tmp_path, monkeypatch):
    # twice split over three processes, then in this process alone
    data = tmp_path / "data.jsonl"
    _run(["gen-synth", "--size", "40", "--noise-rate", "0.25", "--seed", "4", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\n")
    outputs = []
    for cores in ({0, 1, 2}, {0, 1, 2}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores, raising=False)
        outputs.append(tmp_path / f"scores{len(outputs)}.jsonl")
        assert _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "4", "--out", str(outputs[-1])]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the worker by fork")
@pytest.mark.parametrize("command", ["score", "train"])
def test_cli_a_dead_worker_exits_1_with_one_line(command, tmp_path, monkeypatch, capsys):
    # on two cores `score` forks a helper and `train` a share worker; either dies
    data, out = tmp_path / "data.jsonl", tmp_path / "out"
    _run(["gen-synth", "--size", "60", "--noise-rate", "0.25", "--seed", "6", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\nepochs = 2\n")
    parent_pid = os.getpid()
    module, name = (scoring, "forward") if command == "score" else (training, "packed_loss")
    plain = getattr(module, name)

    def dying(*args):
        if os.getpid() != parent_pid:
            os._exit(3)
        return plain(*args)

    monkeypatch.setattr(module, name, dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    capsys.readouterr()
    assert _run([command, "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_cli_train_diverging_exits_1_with_one_line(tmp_path):
    # the first update at this rate overflows the next batch's logits
    data, cfg, ckpt, log = (tmp_path / name for name in ("data.jsonl", "run.cfg", "model.ckpt", "log.jsonl"))
    _run(["gen-synth", "--size", "60", "--seed", "0", "--out", str(data)])
    cfg.write_text("learning_rate = 1e300\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xtf.cli", "train", "--data", str(data), "--config", str(cfg), "--log", str(log), "--out", str(ckpt)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: training stopped in epoch 1: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
    assert [json.loads(line) for line in log.read_text().splitlines()] == [
        {"epoch": 1, "error": "sequence_nll input contains non-finite values"}
    ]
    # the best checkpoint so far is the starting one: no epoch was validated
    assert load_checkpoint(ckpt).fingerprint() == init(ModelConfig(seed=subseed(0, "init"))).fingerprint()


def test_cli_train_shared_and_serial_write_the_same_bytes(tmp_path, monkeypatch):
    # twice with the share worker, then in this process alone
    data = tmp_path / "data.jsonl"
    _run(["gen-synth", "--size", "60", "--noise-rate", "0.25", "--seed", "5", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\nepochs = 2\n")
    shared = []
    plain_collect = training._ShareWorker.collect
    monkeypatch.setattr(training._ShareWorker, "collect", lambda self: shared.append(None) or plain_collect(self))
    outputs = []
    for cores in ({0, 1}, {0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores, raising=False)
        ckpt, log = tmp_path / f"model{len(outputs)}.ckpt", tmp_path / f"log{len(outputs)}.jsonl"
        assert _run(["train", "--data", str(data), "--config", str(cfg), "--seed", "5", "--log", str(log), "--out", str(ckpt)]) == 0
        outputs.append(ckpt.read_bytes() + log.read_bytes())
        if cores == {0, 1}:
            assert shared, "the worker computed no share"
            shared.clear()
    assert not shared
    assert outputs[0] == outputs[1] == outputs[2]


def _tiny_cli_files(tmp_path):
    data, cfg = tmp_path / "data.jsonl", tmp_path / "run.cfg"
    _run(["gen-synth", "--size", "6", "--seed", "1", "--out", str(data)])
    cfg.write_text("d_model = 8\nn_layers = 1\nn_heads = 2\nd_ff = 8\nepochs = 1\n")
    return data, cfg


def test_cli_rejects_a_non_finite_checkpoint_with_one_line(tmp_path, capsys):
    from xtf.model import save_checkpoint

    data, cfg = _tiny_cli_files(tmp_path)
    params = init(ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=8))
    params["layer0.attn.wq"].value[1, 2] = np.nan
    ckpt, out = tmp_path / "model.ckpt", tmp_path / "out"
    save_checkpoint(params, ckpt)
    capsys.readouterr()
    for args in (
        ["score", "--data", str(data), "--checkpoint", str(ckpt), "--config", str(cfg), "--out", str(out)],
        ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out)],
        ["train", "--data", str(data), "--checkpoint", str(ckpt), "--config", str(cfg), "--out", str(out)],
    ):
        assert _run(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: tensor 'layer0.attn.wq' has non-finite values\n"
        assert not out.exists()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, 10**6), flip=st.tuples(st.integers(0, 10**6), st.integers(1, 255)) | st.none())
def test_a_damaged_checkpoint_loads_finite_or_exits_1_with_one_line(tmp_path, capsys, cut, flip):
    # a byte flipped (when `flip` is given) or the file cut short (otherwise)
    from xtf.model import InputError, save_checkpoint

    data = tmp_path / "data.jsonl"
    if not data.exists():
        _tiny_cli_files(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init(ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=8)), ckpt)
    blob = bytearray(ckpt.read_bytes())
    if flip is None:
        del blob[cut % len(blob) :]
    else:
        blob[flip[0] % len(blob)] ^= flip[1]
    ckpt.write_bytes(bytes(blob))
    try:
        params = load_checkpoint(ckpt)
    except InputError:
        capsys.readouterr()
        assert _run(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert all(np.isfinite(t.value).all() for t in params.values())


def _json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4), _json_containers, max_leaves=6
)
# a cut (at a byte), a byte flip, a dropped key, or a value of any JSON type
# put in place of a key's value or (given an index) of one item of its list
_DAMAGE = (
    st.tuples(st.just("cut"), st.integers(0, 10**6))
    | st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255))
    | st.tuples(st.just("drop"), st.integers(0, 10**6), st.integers(0, 10**6))
    | st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6), st.none() | st.integers(0, 10**6), _JSON_VALUES)
)


def _damaged(blob: bytes, damage) -> bytes:
    kind, at = damage[0], damage[1]
    if kind == "cut":
        return blob[: at % len(blob)]
    if kind == "flip":
        flipped = bytearray(blob)
        flipped[at % len(blob)] ^= damage[2]
        return bytes(flipped)
    lines = blob.decode().splitlines()
    obj = json.loads(lines[at % len(lines)])
    key = sorted(obj)[damage[2] % len(obj)]
    if kind == "drop":
        del obj[key]
    elif damage[3] is not None and isinstance(obj[key], list) and obj[key]:
        obj[key][damage[3] % len(obj[key])] = damage[4]
    else:
        obj[key] = damage[4]
    lines[at % len(lines)] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode()


def _succeeds_or_exits_1_with_one_line(args, out, capsys):
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = _run(args + ["--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert out.exists() and err == "", err
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
    return err


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_DAMAGE)
def test_a_damaged_scores_file_filters_or_exits_1_with_one_line(tmp_path, capsys, damage):
    data, scores = tmp_path / "data.jsonl", tmp_path / "scores.jsonl"
    if not data.exists():
        _, cfg = _tiny_cli_files(tmp_path)
        assert _run(["score", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "good.jsonl")]) == 0
    scores.write_bytes(_damaged((tmp_path / "good.jsonl").read_bytes(), damage))
    _succeeds_or_exits_1_with_one_line(["filter", "--scores", str(scores)], tmp_path / "masks.jsonl", capsys)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_DAMAGE)
def test_a_damaged_masks_file_trains_or_exits_1_with_one_line(tmp_path, capsys, damage):
    data, cfg, masks = tmp_path / "data.jsonl", tmp_path / "run.cfg", tmp_path / "masks.jsonl"
    if not data.exists():
        _tiny_cli_files(tmp_path)
        save_masks(
            [NoiseMask(r.id, list(r.noise), [("KN",) if f else () for f in r.noise]) for r in load_dataset(data)],
            tmp_path / "good.jsonl",
        )
        good = ["train", "--data", str(data), "--masks", str(tmp_path / "good.jsonl"), "--config", str(cfg)]
        assert _run(good + ["--out", str(tmp_path / "model.ckpt")]) == 0
    masks.write_bytes(_damaged((tmp_path / "good.jsonl").read_bytes(), damage))
    args = ["train", "--data", str(data), "--masks", str(masks), "--config", str(cfg)]
    _succeeds_or_exits_1_with_one_line(args, tmp_path / "model.ckpt", capsys)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_DAMAGE)
def test_a_damaged_dataset_scores_or_exits_1_with_one_line(tmp_path, capsys, damage):
    data, cfg = tmp_path / "data.jsonl", tmp_path / "run.cfg"
    if not data.exists():
        _tiny_cli_files(tmp_path)
        data.rename(tmp_path / "good.jsonl")
    data.write_bytes(_damaged((tmp_path / "good.jsonl").read_bytes(), damage))
    args = ["score", "--data", str(data), "--config", str(cfg)]
    _succeeds_or_exits_1_with_one_line(args, tmp_path / "scores.jsonl", capsys)


# every config key, each set to a value the CLI accepts
_FULL_CONFIG = """# a run
vocab_size = 99
d_model = 8
n_layers = 1
n_heads = 2
d_ff = 8
max_seq = 64
tie_output = true
kn_cutoff = 0.05
otsu_classes = 3
otsu_bins = 32
enabled_attributes = RI,KN,TR
ri_agg = mean
domain_source = all_tokens
distance_metric = euclidean
learning_rate = 0.003
epochs = 1
batch_size = 4
optimizer = adam
val_fraction = 0.1
report_every = 1
base_epochs = 1
split_train = 4
split_val = 1
split_test = 1
seed = 3
"""
# a cut or byte flip as above, a dropped line, or one line's value replaced by any text
_CONFIG_DAMAGE = (
    st.tuples(st.just("cut"), st.integers(0, 10**6))
    | st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255))
    | st.tuples(st.just("drop"), st.integers(0, 10**6))
    | st.tuples(st.just("value"), st.integers(0, 10**6), st.text(max_size=12))
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=_CONFIG_DAMAGE)
def test_a_damaged_config_generates_or_exits_1_with_one_line(tmp_path, capsys, damage):
    blob = _FULL_CONFIG.encode()
    if damage[0] in ("cut", "flip"):
        blob = _damaged(blob, damage)
    else:
        lines = _FULL_CONFIG.splitlines()
        at = damage[1] % len(lines)
        if damage[0] == "drop":
            del lines[at]
        else:
            lines[at] = lines[at].split("=")[0] + "= " + damage[2]
        blob = ("\n".join(lines) + "\n").encode()
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(blob)
    args = ["gen-synth", "--size", "6", "--config", str(cfg)]
    err = _succeeds_or_exits_1_with_one_line(args, tmp_path / "data.jsonl", capsys)
    assert not err or str(cfg) in err, err


def test_cli_train_ignores_allfalse_vs_no_masks(tmp_path):
    # the unmasked path and an all-false mask file produce identical bytes
    data = tmp_path / "data.jsonl"
    _run(["gen-synth", "--size", "16", "--noise-rate", "0.0", "--seed", "2", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\nepochs = 1\nbatch_size = 8\n")
    masks_path = tmp_path / "allfalse.jsonl"
    examples = load_dataset(data)
    from xtf.filtering import save_masks

    save_masks(
        [NoiseMask(ex.id, [False] * len(ex.output_ids), [()] * len(ex.output_ids)) for ex in examples],
        masks_path,
    )
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    _run(["train", "--data", str(data), "--config", str(cfg), "--seed", "2", "--out", str(a)])
    _run(["train", "--data", str(data), "--masks", str(masks_path), "--config", str(cfg), "--seed", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_experiment_smoke(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    _run(["gen-synth", "--size", "40", "--noise-rate", "0.25", "--seed", "5", "--out", str(data)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\n"
        "epochs = 1\nbatch_size = 8\nbase_epochs = 1\n"
        "split_train = 30\nsplit_val = 5\nsplit_test = 5\n"
    )
    out = tmp_path / "report.json"
    assert _run(["run-experiment", "--data", str(data), "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for key in ("normal_acc", "xtf_acc", "filtered_fraction", "per_attribute_counts", "seed"):
        assert key in payload


def test_cli_verify_theory_smoke(tmp_path, capsys):
    out = tmp_path / "theory.json"
    code = _run(["verify-theory", "--seed", "7", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert any(c["name"].startswith("alignment_gain") for c in payload["checks"])


def _csv_bytes_by_open(path, header, rows):
    """The CSV bytes a plain `open(newline="")` plus `csv.writer` gives."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_cli_csv_writes_are_atomic_and_unchanged(tmp_path, capsys, monkeypatch):
    from xtf import data as D
    from xtf import filtering as F
    from xtf import scoring as S
    from xtf import theory as T

    atomic = []
    plain_write_atomic = D.write_atomic

    def recording_write_atomic(path, data):
        atomic.append(os.path.basename(path))
        plain_write_atomic(path, data)

    monkeypatch.setattr(D, "write_atomic", recording_write_atomic)

    data = tmp_path / "data.jsonl"
    scores = tmp_path / "scores.jsonl"
    masks = tmp_path / "masks.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 24\n")
    assert _run(["gen-synth", "--size", "20", "--noise-rate", "0.25", "--seed", "3", "--out", str(data)]) == 0
    assert _run(["score", "--data", str(data), "--config", str(cfg), "--seed", "3", "--out", str(scores)]) == 0
    assert _run(["filter", "--scores", str(scores), "--out", str(masks)]) == 0
    out_dir = tmp_path / "reports"
    assert _run(["report", "--scores", str(scores), "--masks", str(masks), "--bins", "8", "--out-dir", str(out_dir)]) == 0
    sweep = out_dir / "sweep.csv"
    assert _run(["verify-theory", "--seed", "7", "--sweep", str(sweep)]) == 0

    ref = tmp_path / "ref.csv"
    loaded = S.load_scores(scores)
    for name in ("s_ri", "s_kn", "s_tr", "pcp"):
        rows = F.histogram_rows([v for s in loaded for v in getattr(s, name)], bins=8)
        want = _csv_bytes_by_open(ref, ["bin_left", "bin_right", "count"], rows)
        assert (out_dir / f"hist_{name}.csv").read_bytes() == want
    comp = F.complementarity_report(F.load_masks(masks))
    rows = [[a, comp["marginal"][a]] + ["" if b == a else comp["overlap"][a][b] for b in F.ATTRIBUTES] for a in F.ATTRIBUTES]
    want = _csv_bytes_by_open(ref, ["attribute", "marginal"] + [f"after_{b}" for b in F.ATTRIBUTES], rows)
    assert (out_dir / "complementarity.csv").read_bytes() == want
    rows = T.gain_sweep_rows(7)
    want = _csv_bytes_by_open(ref, list(rows[0]), [list(r.values()) for r in rows])
    assert sweep.read_bytes() == want
    csvs = [f"hist_{n}.csv" for n in ("s_ri", "s_kn", "s_tr", "pcp")] + ["complementarity.csv", "sweep.csv"]
    assert set(csvs) <= set(atomic)
    assert sorted(os.listdir(out_dir)) == sorted(csvs + ["complementarity.json"])  # no temporary left
