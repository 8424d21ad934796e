"""Decoding (greedy and beam) and corpus-level BLEU.

Both decoders drive the model's incremental decode protocol: ``start_decode``
(sources), ``step_logprobs`` (one token per row) and ``reorder`` (keep rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

import numpy as np

from .bpe import BOS_ID, EOS_ID, BpeModel, apply_bpe, ids_to_text
from .errors import DataError
from .tensor import no_grad


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple[int, ...]
    log_prob: float
    finished: bool = False

    def extend(self, token: int, lp: float) -> "Hypothesis":
        return Hypothesis(self.tokens + (token,), self.log_prob + lp, finished=token == EOS_ID)

    def score(self, alpha: float) -> float:
        if alpha == 0.0:
            return self.log_prob
        return self.log_prob / max(len(self.tokens), 1) ** alpha


# sentences per padded greedy batch in translate_corpus: bounds the
# (rows x vocab) logits of one step at real vocabulary sizes
DECODE_CHUNK = 64


def greedy_decode_batch(model, sources: list[list[int]], max_len: int) -> list[list[int]]:
    """Greedy decoding of every source as one padded batch: each row appends
    its argmax token until EOS or max_len, and leaves the batch at EOS."""
    if not sources:
        return []
    with no_grad():
        state = model.start_decode(sources)
        out: list[list[int]] = [[] for _ in sources]
        live = np.arange(len(sources))  # the sentence each row decodes
        tokens = np.full(len(sources), BOS_ID)
        for _ in range(max_len):
            tokens = np.argmax(model.step_logprobs(state, tokens), axis=-1)
            going = tokens != EOS_ID
            for i, t in zip(live[going], tokens[going]):
                out[i].append(int(t))
            if not going.all():
                if not going.any():
                    break
                rows = np.flatnonzero(going)
                model.reorder(state, rows)
                live, tokens = live[rows], tokens[rows]
    return out


def greedy_decode(model, src_ids: list[int], max_len: int) -> list[int]:
    """Append the argmax token until EOS or max_len; deterministic."""
    if not len(src_ids):
        raise DataError("cannot decode an empty source")
    return greedy_decode_batch(model, [src_ids], max_len)[0]


def beam_search(
    model, src_ids: list[int], beam: int, max_len: int, length_penalty_alpha: float = 0.0
) -> list[int]:
    """Best finished hypothesis under sum-log-prob / length^alpha scoring.

    All live hypotheses step as one batch. With beam=1 and alpha=0 this
    reduces exactly to greedy_decode.
    """
    if beam < 1:
        raise ValueError(f"beam width must be >= 1, got {beam}")
    with no_grad():
        state = model.start_decode([src_ids])
        active = [Hypothesis(tokens=(), log_prob=0.0)]
        finished: list[Hypothesis] = []
        for _ in range(max_len + 1):  # +1 leaves room for EOS after max_len tokens
            if not active:
                break
            lps = model.step_logprobs(state, [h.tokens[-1] if h.tokens else BOS_ID for h in active])
            candidates: list[tuple[Hypothesis, int]] = []  # (hypothesis, row of its parent)
            for row, (hyp, lp) in enumerate(zip(active, lps)):
                top = np.argsort(-lp, kind="stable")[:beam]
                candidates.extend((hyp.extend(int(t), float(lp[t])), row) for t in top)
            candidates.sort(key=lambda c: -c[0].log_prob)
            active, parents = [], []
            for hyp, row in candidates[:beam]:
                if hyp.finished:
                    finished.append(hyp)
                elif len(hyp.tokens) >= max_len:
                    finished.append(hyp)
                else:
                    active.append(hyp)
                    parents.append(row)
            if active:
                model.reorder(state, parents)
    pool = finished if finished else active
    best = max(pool, key=lambda h: h.score(length_penalty_alpha))
    tokens = list(best.tokens)
    return tokens[:-1] if tokens and tokens[-1] == EOS_ID else tokens


def translate_corpus(model, bpe: BpeModel, sentences: list[str], max_len: int, beam: int = 1,
                     length_penalty_alpha: float = 0.0) -> list[str]:
    """BPE-encode, decode, and join subwords back into plain text, in input
    order. Greedy decoding runs DECODE_CHUNK sentences at a time as one batch."""
    sources = [apply_bpe(bpe, sentence) + [EOS_ID] for sentence in sentences]
    if beam == 1 and length_penalty_alpha == 0.0:
        hyps = [
            hyp
            for lo in range(0, len(sources), DECODE_CHUNK)
            for hyp in greedy_decode_batch(model, sources[lo : lo + DECODE_CHUNK], max_len)
        ]
    else:
        hyps = [beam_search(model, ids, beam, max_len, length_penalty_alpha) for ids in sources]
    return [ids_to_text(bpe, hyp) for hyp in hyps]


def token_accuracy(model, batches) -> float:
    """Teacher-forced next-token accuracy over non-pad positions."""
    correct, total = 0, 0
    with no_grad():
        for b in batches:
            logits = model.forward_logits(b)
            pred = np.argmax(logits.data, axis=-1)
            keep = ~b.tgt_pad
            correct += int((pred[keep] == b.tgt_out[keep]).sum())
            total += int(keep.sum())
    return correct / total if total else 0.0


# ---------------------------------------------------------------------------
# corpus BLEU
# ---------------------------------------------------------------------------

_MAX_ORDER = 4


def _tokens(sentence) -> list[str]:
    return sentence.split() if isinstance(sentence, str) else list(sentence)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(hypotheses, references, n: int) -> tuple[int, int]:
    """Corpus-aggregated clipped n-gram matches and total hypothesis n-grams."""
    clipped, total = 0, 0
    for hyp, ref in zip(hypotheses, references):
        h = _ngrams(_tokens(hyp), n)
        r = _ngrams(_tokens(ref), n)
        total += sum(h.values())
        clipped += sum(min(c, r[g]) for g, c in h.items())
    return clipped, total


def corpus_bleu(hypotheses, references) -> float:
    """BLEU-4 in [0, 100]: geometric mean of modified precisions times the
    brevity penalty, aggregated at corpus level, no smoothing.

    Orders with no hypothesis n-grams at all (corpus shorter than n words
    everywhere) are skipped; any included order with zero matches scores 0.
    """
    if not len(hypotheses):
        raise DataError("BLEU needs at least one hypothesis")
    if len(hypotheses) != len(references):
        raise DataError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    hyp_tokens = [_tokens(h) for h in hypotheses]
    ref_tokens = [_tokens(r) for r in references]
    if any(not r for r in ref_tokens):
        raise DataError("references must be non-empty")

    log_precisions = []
    for n in range(1, _MAX_ORDER + 1):
        clipped, total = modified_precision(hyp_tokens, ref_tokens, n)
        if total == 0:
            continue
        if clipped == 0:
            return 0.0
        log_precisions.append(np.log(clipped / total))
    if not log_precisions:
        return 0.0
    c = sum(len(h) for h in hyp_tokens)
    r = sum(len(t) for t in ref_tokens)
    brevity = 1.0 if c > r else np.exp(1.0 - r / c) if c else 0.0
    return float(100.0 * brevity * np.exp(sum(log_precisions) / len(log_precisions)))
