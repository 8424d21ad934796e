"""Corpus handling: aligned text files, length filtering, token-swap
corruption, token-budget batching, and synthetic toy tasks.

A batch carries the clean padded source plus two independently corrupted
copies (one per encoder branch); corruption swaps at most one pair of
non-special tokens per sequence and fires with the configured probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import BOS_ID, EOS_ID, PAD_ID, BpeModel, apply_bpe
from .errors import DataError, atomic_write, read_text
from .rng import Rng

_SPECIAL_IDS = frozenset((PAD_ID, BOS_ID, EOS_ID))


@dataclass
class ParallelCorpus:
    pairs: list[tuple[str, str]]

    def __len__(self):
        return len(self.pairs)

    def sources(self):
        return [s for s, _ in self.pairs]

    def targets(self):
        return [t for _, t in self.pairs]

    def lines(self):
        for s, t in self.pairs:
            yield s
            yield t


def load_corpus(src_path, tgt_path) -> ParallelCorpus:
    src = read_text(src_path).splitlines()
    tgt = read_text(tgt_path).splitlines()
    if len(src) != len(tgt):
        raise DataError(
            f"corpus sides disagree: {src_path} has {len(src)} lines, {tgt_path} has {len(tgt)}"
        )
    return ParallelCorpus(list(zip(src, tgt)))


def save_corpus(corpus: ParallelCorpus, src_path, tgt_path):
    for path, side in ((src_path, corpus.sources()), (tgt_path, corpus.targets())):
        with atomic_write(path, text=True) as fh:
            fh.write("\n".join(side) + "\n")


def length_filter(corpus: ParallelCorpus, max_len: int = 250, ratio_limit: float = 1.5) -> ParallelCorpus:
    """Drop pairs with an over-long side or an extreme source/target length ratio."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    kept = []
    for src, tgt in corpus.pairs:
        ls, lt = len(src.split()), len(tgt.split())
        if ls == 0 or lt == 0:
            continue
        if ls > max_len or lt > max_len:
            continue
        if max(ls, lt) / min(ls, lt) > ratio_limit:
            continue
        kept.append((src, tgt))
    return ParallelCorpus(kept)


def token_swap_corrupt(ids, p: float, rng: Rng) -> list[int]:
    """With probability p, swap one uniformly chosen pair of non-special tokens."""
    return token_swap_rows([ids], p, rng)[0]


def token_swap_rows(rows, p: float, rng: Rng) -> list[list[int]]:
    """``token_swap_corrupt`` of each row in turn, drawn in one vector call.

    A row takes one uniform, and two more, scaled to integers as
    ``Rng.integer`` scales them, when it swaps. The uniforms the rows could
    need are read ahead without advancing, and the rng then skips the ones
    they used, so the stream and the counter are the scalar draws'.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"swap probability must be in [0, 1], got {p}")
    draws = rng.peek(3 * len(rows)).tolist()
    out, used = [], 0
    for ids in rows:
        ids = list(ids)
        eligible = [i for i, t in enumerate(ids) if t not in _SPECIAL_IDS]
        used += 1
        if draws[used - 1] < p and len(eligible) >= 2:
            a = int(draws[used] * len(eligible))
            b = int(draws[used + 1] * (len(eligible) - 1))
            used += 2
            if b >= a:
                b += 1
            i, j = eligible[a], eligible[b]
            ids[i], ids[j] = ids[j], ids[i]
        out.append(ids)
    rng.skip(used)
    return out


@dataclass
class Batch:
    """Padded id matrices; src rows end with EOS, tgt_in starts with BOS."""

    src: np.ndarray
    src_corrupt_left: np.ndarray
    src_corrupt_right: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray

    @property
    def n_tokens(self) -> int:
        return int((self.src != PAD_ID).sum() + (self.tgt_out != PAD_ID).sum())


def _pad_rows(rows: list[list[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def encode_pair(bpe: BpeModel, src: str, tgt: str) -> tuple[list[int], list[int], list[int]]:
    src_ids = apply_bpe(bpe, src) + [EOS_ID]
    tgt_ids = apply_bpe(bpe, tgt)
    return src_ids, [BOS_ID] + tgt_ids, tgt_ids + [EOS_ID]


def make_batches(
    corpus: ParallelCorpus,
    bpe: BpeModel,
    token_budget: int,
    rng: Rng,
    swap_prob: float = 0.0,
    shuffle: bool = True,
) -> list[Batch]:
    """Bucket sentences by length under a per-batch non-pad token budget.

    Covers the corpus exactly once. Every batch carries two corrupted source
    copies drawn from independent rng streams so the two encoder branches
    de-correlate independently.
    """
    if not len(corpus):
        raise DataError("cannot batch an empty corpus")
    encoded = [encode_pair(bpe, s, t) for s, t in corpus.pairs]
    sizes = [len(src) + len(out) for src, _, out in encoded]
    worst = max(sizes)
    if worst > token_budget:
        raise DataError(f"a sentence pair needs {worst} tokens, over the budget {token_budget}")

    order_rng = rng.fork("order")
    order = order_rng.permutation(len(encoded)) if shuffle else np.arange(len(encoded))
    # stable length sort over a shuffled base: length buckets, random ties
    order = sorted(order, key=lambda i: (len(encoded[i][0]), len(encoded[i][2])))

    groups: list[list[int]] = []
    current: list[int] = []
    used = 0
    for idx in order:
        if current and used + sizes[idx] > token_budget:
            groups.append(current)
            current, used = [], 0
        current.append(idx)
        used += sizes[idx]
    if current:
        groups.append(current)
    if shuffle and len(groups) > 1:
        groups = [groups[i] for i in order_rng.permutation(len(groups))]

    corrupt_left = rng.fork("corrupt-left")
    corrupt_right = rng.fork("corrupt-right")
    batches = []
    for group in groups:
        srcs = [encoded[i][0] for i in group]
        left = token_swap_rows(srcs, swap_prob, corrupt_left)
        right = token_swap_rows(srcs, swap_prob, corrupt_right)
        batches.append(
            Batch(
                src=_pad_rows(srcs),
                src_corrupt_left=_pad_rows(left),
                src_corrupt_right=_pad_rows(right),
                tgt_in=_pad_rows([encoded[i][1] for i in group]),
                tgt_out=_pad_rows([encoded[i][2] for i in group]),
            )
        )
    return batches


_TASKS = ("copy", "reverse", "sort")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
# uniforms ``gen_synthetic`` reads ahead at a time, or one sentence's
# most if that is more: a larger read-ahead was no faster and held more memory
_SYNTH_DRAWS = 1 << 10


def token_alphabet(vocab_size: int) -> list[str]:
    """Single letters, then letter pairs, as far as the requested size."""
    tokens = list(_ALPHABET)
    if vocab_size > len(tokens):
        tokens += [a + b for a in _ALPHABET for b in _ALPHABET]
    return tokens[:vocab_size]


def gen_synthetic(
    task: str, vocab_size: int, n_pairs: int, len_range: tuple[int, int], rng: Rng
) -> ParallelCorpus:
    """Random token strings paired with a task-defined transform of themselves.

    A sentence takes one uniform for its length, scaled as ``Rng.integer``
    scales it, then one per token. The draws of a chunk of sentences are
    read ahead without advancing, walked, and the ones used are skipped, so
    the stream and the counter are the scalar draws'.
    """
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {_TASKS}")
    if vocab_size < 5:
        raise ValueError(f"synthetic vocab must be >= 5, got {vocab_size}")
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length range {len_range}")
    tokens = token_alphabet(vocab_size)
    chunk = max(1, _SYNTH_DRAWS // (1 + hi))  # sentences per read-ahead
    pairs = []
    while len(pairs) < n_pairs:
        m = min(chunk, n_pairs - len(pairs))
        draws, used = rng.peek(m * (1 + hi)).tolist(), 0
        for _ in range(m):
            n = lo + int(draws[used] * (hi - lo + 1))
            words = [tokens[int(u * len(tokens))] for u in draws[used + 1 : used + 1 + n]]
            used += 1 + n
            if task == "copy":
                out = words
            elif task == "reverse":
                out = words[::-1]
            else:
                out = sorted(words)
            pairs.append((" ".join(words), " ".join(out)))
        rng.skip(used)
    return ParallelCorpus(pairs)
