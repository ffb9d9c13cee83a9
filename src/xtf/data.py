"""Datasets, tokenization, and file formats.

The tokenizer is a fixed byte-level map over a 96-symbol printable alphabet
(ASCII 0x20..0x7E plus newline, ids 0..95) with three specials appended:
PAD=96, BOS=97, EOS=98. So ' ' is id 0, '!' is id 1, '~' is id 94 and '\\n'
is id 95. Labels get EOS appended at tokenization so generation has a stop
target.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

ALPHABET = "".join(chr(c) for c in range(0x20, 0x7F)) + "\n"
CHAR_TO_ID = {ch: i for i, ch in enumerate(ALPHABET)}
PAD_ID = len(ALPHABET)  # 96
BOS_ID = PAD_ID + 1  # 97
EOS_ID = PAD_ID + 2  # 98
VOCAB_SIZE = PAD_ID + 3  # 99


class IngestionError(ValueError):
    """A record that cannot be turned into a usable training example."""


@dataclass
class DatasetRecord:
    """One raw sample: either text fields or pre-tokenized id fields."""

    id: str
    input_text: str | None = None
    output_text: str | None = None
    input_ids: list[int] | None = None
    output_ids: list[int] | None = None
    noise: list[bool] | None = None  # ground truth per label position, synthetic only

    def __post_init__(self):
        text_mode = self.input_text is not None or self.output_text is not None
        ids_mode = self.input_ids is not None or self.output_ids is not None
        if text_mode == ids_mode:
            raise IngestionError(f"record {self.id!r}: exactly one of text/ids must be present")


@dataclass
class TokenizedExample:
    """One fine-tuning sample: input tokens, label tokens, input length."""

    id: str
    input_ids: list[int]
    output_ids: list[int]
    noise: list[bool] | None = None

    @property
    def l_input(self) -> int:
        return len(self.input_ids)

    @property
    def tokens(self) -> list[int]:
        return self.input_ids + self.output_ids


def encode_text(text: str, record_id: str = "?") -> list[int]:
    ids = []
    for ch in text:
        tid = CHAR_TO_ID.get(ch)
        if tid is None:
            raise IngestionError(f"record {record_id!r}: character {ch!r} outside the alphabet")
        ids.append(tid)
    return ids


def tokenize(record: DatasetRecord) -> TokenizedExample:
    """Byte-level tokenization; appends EOS to the label. Rejects empty
    inputs and empty labels."""
    if record.input_ids is not None:
        inp, out = list(record.input_ids), list(record.output_ids or [])
        flags = list(record.noise) if record.noise is not None else None
    else:
        if not record.output_text:
            raise IngestionError(f"record {record.id!r}: empty label")
        if not record.input_text:
            raise IngestionError(f"record {record.id!r}: empty input")
        inp = encode_text(record.input_text, record.id)
        out = encode_text(record.output_text, record.id) + [EOS_ID]
        flags = None
        if record.noise is not None:
            if len(record.noise) != len(record.output_text):
                raise IngestionError(f"record {record.id!r}: noise flags do not match label length")
            flags = list(record.noise) + [False]  # EOS is never noise
    if not out:
        raise IngestionError(f"record {record.id!r}: empty label")
    if not inp:
        raise IngestionError(f"record {record.id!r}: empty input")
    if any(i < 0 or i >= VOCAB_SIZE for i in inp + out):
        raise IngestionError(f"record {record.id!r}: token id outside vocabulary")
    if flags is not None and len(flags) != len(out):
        raise IngestionError(f"record {record.id!r}: noise flags do not match label length")
    return TokenizedExample(record.id, inp, out, flags)


def strip_noise(example: TokenizedExample) -> TokenizedExample:
    """Drop ground-truth-flagged label tokens; used to build clean eval sets."""
    if example.noise is None:
        return example
    out = [t for t, bad in zip(example.output_ids, example.noise) if not bad]
    return TokenizedExample(example.id, list(example.input_ids), out, [False] * len(out))


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

DISTRACTOR_CHARS = list("!@#$%^&*<>?~|{}[]\\;:")
ADDITION_TASK_CHARS = list("0123456789+= ")

# deterministic decoration style: the symbol inserted after a given task
# character is always the same one, like markup or OCR artifacts that are
# keyed to their surroundings rather than sampled fresh each time
DECORATION_MAP = {ch: DISTRACTOR_CHARS[i % len(DISTRACTOR_CHARS)] for i, ch in enumerate(ADDITION_TASK_CHARS)}


def _decoration_for(prev_char: str, rng: np.random.Generator, pool: list[str], keyed: bool) -> str:
    if keyed and prev_char in DECORATION_MAP:
        return DECORATION_MAP[prev_char]
    return pool[int(rng.integers(len(pool)))]


def _inject_noise(
    label: str,
    rng: np.random.Generator,
    rate: float,
    pool: list[str],
    prev_input_char: str = "=",
    keyed: bool = False,
) -> tuple[str, list[bool]]:
    """Insert a distractor before each label position with probability `rate`.

    The clean label survives as a subsequence, so dropping flagged positions
    recovers it exactly. The expected number of insertions is rate * len(label).
    With `keyed`, the inserted symbol is the fixed decoration of the
    preceding clean character instead of a fresh draw.
    """
    chars: list[str] = []
    flags: list[bool] = []
    prev = prev_input_char
    for ch in label:
        if rate > 0 and rng.random() < rate:
            chars.append(_decoration_for(prev, rng, pool, keyed))
            flags.append(True)
        chars.append(ch)
        flags.append(False)
        prev = ch
    return "".join(chars), flags


CORPUS_TASKS = ("addition", "addition_hard", "copy")  # the corpora a user generates; see gen_synth


def gen_synth(task: str, size: int, noise_rate: float, seed: int) -> list[DatasetRecord]:
    """Generate a byte-tokenizable synthetic corpus with ground-truth noise flags.

    Tasks:
      addition       input "a+b=" with zero-padded a, b < 50, label
                     "<a+b> a+b" (two-digit answer, then a restatement of
                     the expression; the restatement is copyable from the
                     clean input by content matching, so it stays learnable
                     under label-position jitter). Distractors come from an
                     off-task symbol alphabet and follow the fixed
                     decoration style (the same symbol always trails the
                     same task character), the way real formatting junk is
                     keyed to its surroundings.
      addition_hard  same task, distractors drawn uniformly at random from
                     the task alphabet (stresses the confidence and
                     attention rules instead of embedding distance).
      copy           input "w=" for a fixed-length word, label "w"
                     (no arithmetic; harness sanity task).
      symbol_noise   input and label are independent random strings over the
                     distractor alphabet: unlearnable by design, it exists to
                     give off-task symbols a trained domain identity in a
                     base model's embedding table.
    """
    if not 0 <= noise_rate < 1:
        raise IngestionError(f"noise_rate must be in [0, 1), got {noise_rate}")
    rng = np.random.default_rng(seed)
    records: list[DatasetRecord] = []
    for i in range(size):
        rid = f"{task}-{i:05d}"
        keyed = False
        prev_input_char = "="
        if task in ("addition", "addition_hard"):
            a = int(rng.integers(50))
            b = int(rng.integers(50))
            inp = f"{a:02d}+{b:02d}="
            label = f"{a + b:02d} {a:02d}+{b:02d}"
            pool = ADDITION_TASK_CHARS if task == "addition_hard" else DISTRACTOR_CHARS
            keyed = task == "addition"
        elif task == "copy":
            word = "".join(chr(ord("a") + int(rng.integers(26))) for _ in range(5))
            inp = word + "="
            label = word
            pool = DISTRACTOR_CHARS
        elif task == "symbol_noise":
            draw = lambda n: "".join(
                DISTRACTOR_CHARS[int(rng.integers(len(DISTRACTOR_CHARS)))] for _ in range(n)
            )
            inp = draw(5) + "="
            label = draw(5)
            pool = DISTRACTOR_CHARS
        else:
            raise IngestionError(f"unknown synthetic task {task!r}")
        noisy, flags = _inject_noise(label, rng, noise_rate, pool, prev_input_char, keyed)
        records.append(DatasetRecord(rid, input_text=inp, output_text=noisy, noise=flags))
    return records


# ---------------------------------------------------------------------------
# Deterministic splits
# ---------------------------------------------------------------------------


def _id_rank(sample_id: str) -> str:
    return hashlib.sha256(sample_id.encode("utf-8")).hexdigest()


def split_records(records, counts: tuple[int, int, int] | None = None, fractions=(0.8, 0.1, 0.1)):
    """Split records (anything with an `id`) by rank of hash(id):
    deterministic, id-driven, exact sizes.

    `counts` pins exact (train, val, test) sizes; otherwise sizes come from
    `fractions` of the total.
    """
    ordered = sorted(records, key=lambda r: (_id_rank(r.id), r.id))
    n = len(ordered)
    if counts is None:
        n_train = int(fractions[0] * n)
        n_val = int(fractions[1] * n)
        counts = (n_train, n_val, n - n_train - n_val)
    if min(counts) < 0 or sum(counts) != n:
        raise IngestionError(f"split counts {counts} must be non-negative and sum to dataset size {n}")
    train = ordered[: counts[0]]
    val = ordered[counts[0] : counts[0] + counts[1]]
    test = ordered[counts[0] + counts[1] :]
    return train, val, test


def subseed(seed: int, name: str) -> int:
    """Named sub-seed so every stochastic component draws from one root seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def fmt_float(x: float) -> str:
    """17 significant digits: parses back to the identical double."""
    return format(float(x), ".17g")


def write_atomic(path, data: str | bytes) -> None:
    """Write through a private temporary file in the target directory, then
    rename it over `path`, so readers never see a partial file and
    concurrent writers never share a temporary. Text is written as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file owner-only; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_dataset(records, path) -> None:
    lines = []
    for r in records:
        obj: dict = {"id": r.id}
        if r.input_text is not None:
            obj["input_text"] = r.input_text
            obj["output_text"] = r.output_text
        else:
            obj["input_ids"] = r.input_ids
            obj["output_ids"] = r.output_ids
        if r.noise is not None:
            obj["noise"] = r.noise
        lines.append(json.dumps(obj, ensure_ascii=False))
    write_atomic(path, "\n".join(lines) + "\n")


# optional record fields: the type a present value must have, and the exact
# type of each item when it is a list
_FIELD_TYPES = {
    "input_text": (str, None),
    "output_text": (str, None),
    "input_ids": (list, int),
    "output_ids": (list, int),
    "noise": (list, bool),
}


def read_records(path, error=IngestionError):
    """Yield ("path:line", object) for each non-blank line of a JSON-lines
    file. Lines end at a newline; each must be UTF-8 JSON for an object whose
    `id` is a string that no earlier line has; otherwise `error`, with a
    message that names the line."""
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise error(f"{where}: {exc}") from None
            if not isinstance(obj, dict):
                raise error(f"{where}: not a JSON object")
            rid = obj.get("id")
            if not isinstance(rid, str):
                raise error(f"{where}: id {rid!r} is missing or not a string")
            if rid in seen:
                raise error(f"{where}: id {rid!r} appears more than once")
            seen.add(rid)
            yield where, obj


def load_dataset(path) -> list[TokenizedExample]:
    """Read a dataset file through `read_records` and tokenize each record.
    Text fields, id fields and noise flags must have the right types, and
    each record must tokenize; otherwise IngestionError naming the line."""
    examples = []
    for where, obj in read_records(path):
        fields = {key: obj.get(key) for key in _FIELD_TYPES}
        for key, (kind, item) in _FIELD_TYPES.items():
            value = fields[key]
            if value is not None and not (
                isinstance(value, kind) and (item is None or all(type(x) is item for x in value))
            ):
                what = kind.__name__ if item is None else f"{kind.__name__} of {item.__name__}s"
                raise IngestionError(f"{where}: {key} of {obj['id']!r} is not a {what}")
        try:
            examples.append(tokenize(DatasetRecord(obj["id"], **fields)))
        except IngestionError as exc:
            raise IngestionError(f"{where}: {exc}") from None
    return examples


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment. A key may appear only
    once. Errors name `source` and the line number."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IngestionError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise IngestionError(f"{source}:{lineno}: repeated key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: {exc}") from None
    return parse_config_text(text, str(path))
