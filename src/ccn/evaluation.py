"""Decoding and corpus-level BLEU.

One decoder, ``beam_decode_batch``, serves greedy search (beam 1) and beam
search. It steps every live hypothesis of every source as one padded batch
through the model's incremental decode protocol: ``start_decode``
(sources), ``step_logprobs`` (one token per row) and ``reorder`` (keep
rows). ``translate_corpus`` puts as many sentences in a batch as fit in
``DECODE_BYTES``, as ``sentence_bytes`` counts them: each hypothesis row
holds its step's logits and float64 log-probabilities and its cached self-
and cross-attention keys and values, and each sentence adds the encoder's
feed-forward activation. The budget gives ``thm-base`` at its default
vocabulary 64 greedy rows per batch (50-token sources, 108-token cap), and
decodes a 100-sentence ``tiny`` dev set as one batch at beam 1 or 4.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .bpe import BOS_ID, EOS_ID, BpeModel, apply_bpe, ids_to_text
from .errors import DataError
from .model import ARCH_THM, ModelConfig
from .tensor import no_grad

# bytes of one translate_corpus batch, as sentence_bytes counts them
DECODE_BYTES = 390 << 20


def beam_decode_batch(
    model, sources: list[list[int]], beam: int, max_len: int, length_penalty_alpha: float = 0.0
) -> list[list[int]]:
    """Beam search over every source at once; beam 1 is greedy decoding.

    Each step, every live row proposes its ``beam`` best next tokens (ties
    go to the lower id), and each sentence keeps the ``beam`` proposals of
    highest summed log-prob, ties going to the earlier row and then the
    better-ranked token. A hypothesis finishes when it ends in EOS or holds
    ``max_len`` tokens. Each sentence returns the first of its finished
    hypotheses, in finishing order, that maximises log-prob / length^alpha
    (the length counts the EOS), without the EOS.
    """
    if beam < 1:
        raise ValueError(f"beam width must be >= 1, got {beam}")
    if any(not len(s) for s in sources):
        raise DataError("cannot decode an empty source")
    if not sources:
        return []
    finished: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in sources]
    with no_grad():
        state = model.start_decode(sources)
        sent = np.arange(len(sources))  # each row's sentence; a sentence's rows are contiguous
        tokens = np.full(len(sources), BOS_ID)
        scores = np.zeros(len(sources))
        prefixes: list[tuple[int, ...]] = [()] * len(sources)
        for length in range(1, max_len + 1):
            lp = model.step_logprobs(state, tokens)
            if beam == 1:  # one proposal per row, one row per sentence: no sorting to do
                rows, tokens = np.arange(len(lp)), lp.argmax(axis=1)
                scores = scores + lp[rows, tokens]
            else:
                top = np.argsort(-lp, kind="stable")[:, :beam]
                cand = (scores[:, None] + np.take_along_axis(lp, top, axis=1)).ravel()
                cand_sent = np.repeat(sent, top.shape[1])
                pick = np.lexsort((-cand, cand_sent))  # stable: by sentence, then best first
                grouped = cand_sent[pick]
                pick = pick[np.arange(pick.size) - np.searchsorted(grouped, grouped) < beam]
                rows, tokens, scores = pick // top.shape[1], top.ravel()[pick], cand[pick]
            done = (tokens == EOS_ID) | (length == max_len)
            if done.any():
                for i in np.flatnonzero(done):
                    finished[sent[rows[i]]].append((float(scores[i]), prefixes[rows[i]] + (int(tokens[i]),)))
                if done.all():
                    break
                live = np.flatnonzero(~done)
                rows, tokens, scores = rows[live], tokens[live], scores[live]
            prefixes = [prefixes[r] + (t,) for r, t in zip(rows.tolist(), tokens.tolist())]
            sent = sent[rows]
            if rows.size != len(lp) or (rows != np.arange(rows.size)).any():
                model.reorder(state, rows)
    alpha = length_penalty_alpha
    out = []
    for hyps in finished:
        best = max(hyps, key=lambda h: h[0] / len(h[1]) ** alpha if alpha else h[0], default=(0.0, ()))[1]
        out.append(list(best[:-1] if best and best[-1] == EOS_ID else best))
    return out


def greedy_decode(model, src_ids: list[int], max_len: int) -> list[int]:
    """Append the argmax token until EOS or max_len; deterministic."""
    return beam_decode_batch(model, [src_ids], 1, max_len)[0]


def beam_search(
    model, src_ids: list[int], beam: int, max_len: int, length_penalty_alpha: float = 0.0
) -> list[int]:
    """Best finished hypothesis of one source under sum-log-prob / length^alpha
    scoring; beam_decode_batch of a batch of one."""
    return beam_decode_batch(model, [src_ids], beam, max_len, length_penalty_alpha)[0]


def sentence_bytes(config: ModelConfig, dtype, beam: int, src_len: int, max_len: int) -> int:
    """Bytes a sentence of at most ``src_len`` tokens holds in a decode batch
    when it takes ``beam`` rows decoding up to ``max_len`` tokens.

    A row holds its step's logits and float64 log-probabilities and every
    block's cached self- and cross-attention keys and values; a sentence
    adds its encoder feed-forward activation.
    """
    itemsize = np.dtype(dtype).itemsize
    branches = 2 if config.arch == ARCH_THM else 1
    row = config.vocab_size * (itemsize + 8) + (
        2 * config.n_blocks * config.d_model * itemsize * (max_len + branches * src_len)
    )
    return beam * row + branches * src_len * config.d_ff * itemsize


def sentences_per_batch(config: ModelConfig, dtype, beam: int, src_len: int, max_len: int) -> int:
    """Sentences that fit in DECODE_BYTES, at least one."""
    return max(1, DECODE_BYTES // sentence_bytes(config, dtype, beam, src_len, max_len))


def translate_corpus(model, bpe: BpeModel, sentences: list[str], max_len: int, beam: int = 1,
                     length_penalty_alpha: float = 0.0) -> list[str]:
    """BPE-encode, decode, and join subwords back into plain text, in input
    order, ``sentences_per_batch`` sentences per batch."""
    sources = [apply_bpe(bpe, sentence) + [EOS_ID] for sentence in sentences]
    src_len = max(map(len, sources), default=0)
    # max(beam, 1): size batches for any beam and leave rejecting beam < 1 to beam_decode_batch
    chunk = sentences_per_batch(model.config, model.dtype, max(beam, 1), src_len, max_len)
    hyps = [
        hyp
        for lo in range(0, len(sources), chunk)
        for hyp in beam_decode_batch(model, sources[lo : lo + chunk], beam, max_len, length_penalty_alpha)
    ]
    return [ids_to_text(bpe, hyp) for hyp in hyps]


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
