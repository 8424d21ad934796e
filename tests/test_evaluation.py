"""Decoders against exhaustive path enumeration; BLEU against a brute-force
n-gram oracle."""

import numpy as np
import pytest

from dataclasses import dataclass, replace

from ccn.bpe import BOS_ID, EOS_ID, learn_bpe
from ccn.data import gen_synthetic
from ccn import evaluation
from ccn.errors import DataError
from ccn.evaluation import (
    beam_decode_batch,
    beam_search,
    corpus_bleu,
    greedy_decode,
    modified_precision,
    sentence_bytes,
    sentences_per_batch,
    translate_corpus,
)
from ccn.model import ModelConfig, build_model, preset
from ccn.rng import Rng
from ccn.tensor import no_grad


class TableModel:
    """Fake decoder: log-probabilities are a deterministic hash of the prefix."""

    def __init__(self, vocab: int, seed: int, eos_boost: float = 0.0):
        self.vocab = vocab
        self.seed = seed
        self.eos_boost = eos_boost

    def encode_for_decode(self, src_ids):
        return tuple(src_ids)

    def next_logprobs(self, memory, prefix):
        draws = Rng(self.seed).fork(tuple(prefix)).uniform((self.vocab,)) * 5.0
        draws[EOS_ID] += self.eos_boost
        logits = draws - draws.max()
        return logits - np.log(np.exp(logits).sum())

    # the incremental decode protocol; the state is one prefix list per row
    def start_decode(self, sources):
        return [[] for _ in sources]

    def step_logprobs(self, state, tokens):
        for prefix, t in zip(state, tokens):
            prefix.append(int(t))
        return np.stack([self.next_logprobs(None, prefix) for prefix in state])

    def reorder(self, state, rows):
        state[:] = [list(state[r]) for r in rows]


def exhaustive_best(model, src_ids, max_len):
    """Enumerate every path (stopping at EOS or max_len); return best raw score."""
    memory = model.encode_for_decode(src_ids)
    best = {"tokens": None, "score": -np.inf}

    def walk(prefix, score):
        lp = model.next_logprobs(memory, [BOS_ID, *prefix])
        for t in range(model.vocab):
            s = score + float(lp[t])
            if t == EOS_ID or len(prefix) + 1 >= max_len:
                if s > best["score"]:
                    best["score"] = s
                    best["tokens"] = prefix + ([t] if t != EOS_ID else [])
            else:
                walk(prefix + [t], s)

    walk([], 0.0)
    return best["tokens"], best["score"]


def test_greedy_eos_first_model_gives_empty_output():
    model = TableModel(vocab=6, seed=1, eos_boost=100.0)
    assert greedy_decode(model, [4, 5], max_len=10) == []


def test_greedy_length_cap_and_determinism():
    model = TableModel(vocab=6, seed=2, eos_boost=-100.0)
    out1 = greedy_decode(model, [4], max_len=7)
    out2 = greedy_decode(model, [4], max_len=7)
    assert out1 == out2
    assert len(out1) == 7


def test_greedy_rejects_empty_source():
    with pytest.raises(DataError):
        greedy_decode(TableModel(6, 3), [], max_len=5)


def test_beam_one_equals_greedy_on_table_models():
    for seed in range(12):
        model = TableModel(vocab=7, seed=seed, eos_boost=1.0)
        greedy = greedy_decode(model, [4, 5], max_len=6)
        beam = beam_search(model, [4, 5], beam=1, max_len=6, length_penalty_alpha=0.0)
        assert greedy == beam, seed


def test_beam_one_equals_greedy_on_a_real_model():
    cfg = ModelConfig(
        arch="thm", d_model=16, n_heads=2, n_blocks=1, d_ff=32, vocab_size=16,
        dropout_p=0.0, swap_prob=0.0, max_len=16, label_smoothing=0.0,
    )
    model = build_model(cfg, Rng(5), dtype=np.float64)
    src = [5, 6, 7, EOS_ID]
    assert greedy_decode(model, src, 8) == beam_search(model, src, 1, 8)


def test_beam_width_four_matches_exhaustive_oracle():
    # three-step toy decoders with frozen tables; beam must find the optimum
    for seed in (0, 1, 2, 3, 4):
        model = TableModel(vocab=5, seed=seed, eos_boost=0.5)
        want, want_score = exhaustive_best(model, [4], max_len=3)
        got = beam_search(model, [4], beam=4, max_len=3, length_penalty_alpha=0.0)
        assert got == want, (seed, got, want, want_score)


def test_beam_score_dominates_greedy():
    def raw_score(model, tokens):
        memory = model.encode_for_decode([4])
        prefix, score = [BOS_ID], 0.0
        for t in tokens:
            score += float(model.next_logprobs(memory, prefix)[t])
            prefix.append(t)
        lp_eos = float(model.next_logprobs(memory, prefix)[EOS_ID])
        return score, score + lp_eos

    for seed in range(10):
        model = TableModel(vocab=6, seed=seed, eos_boost=2.0)
        greedy = greedy_decode(model, [4], max_len=4)
        beam = beam_search(model, [4], beam=4, max_len=4, length_penalty_alpha=0.0)
        g_partial, g_full = raw_score(model, greedy)
        b_partial, b_full = raw_score(model, beam)
        assert max(b_partial, b_full) >= min(g_partial, g_full) - 1e-12


def test_beam_rejects_bad_width():
    with pytest.raises(ValueError):
        beam_search(TableModel(6, 0), [4], beam=0, max_len=3)


def test_beam_wider_than_the_vocabulary_matches_exhaustive_oracle():
    # a row proposes all 4 tokens; at max_len 2 the beam keeps the best 6 of
    # the 12 two-token paths, so it must find the optimum
    for seed in (0, 1, 2, 3, 4):
        model = TableModel(vocab=4, seed=seed, eos_boost=0.5)
        want, want_score = exhaustive_best(model, [4], max_len=2)
        got = beam_search(model, [4], beam=6, max_len=2)
        assert got == want, (seed, got, want, want_score)


class UniformModel(TableModel):
    """Every token equally likely: every comparison is a tie."""

    def next_logprobs(self, memory, prefix):
        return np.full(self.vocab, -np.log(self.vocab))


def test_ties_go_to_the_lower_token_and_the_first_finished():
    model = UniformModel(vocab=5, seed=0)
    # (0, 0) and (0, 1) finish together with equal scores
    assert beam_search(model, [4], beam=2, max_len=2) == [0, 0]
    # EOS alone scores -log 5 / 1, the same as (0, 0) and (0, EOS) at alpha 1
    assert beam_search(model, [4], beam=3, max_len=2, length_penalty_alpha=1.0) == []


def test_zero_max_len_gives_empty_output():
    model = TableModel(vocab=6, seed=5, eos_boost=-100.0)
    assert greedy_decode(model, [4], max_len=0) == []
    assert beam_search(model, [4], beam=3, max_len=0) == []


# ---------------------------------------------------------------------------
# cached, batched decoding of real models against full recompute
# ---------------------------------------------------------------------------


def _real_model(arch, n_blocks, seed):
    cfg = ModelConfig(
        arch=arch, d_model=16, n_heads=2, n_blocks=n_blocks, d_ff=32, vocab_size=16,
        dropout_p=0.0, swap_prob=0.0, max_len=16, label_smoothing=0.0,
    )
    model = build_model(cfg, Rng(seed), dtype=np.float64)
    # a longer EOS row in the tied output projection makes EOS win at some
    # steps, so rows leave the batch at different times
    model.embed_table.data[EOS_ID] *= 2.0
    return model


def _memory(model, src):
    ids = np.asarray(src)[None, :]
    return model.encode(*[ids] * len(model.branches))


def recompute_greedy(model, src, max_len):
    """Greedy decoding by re-running the decoder over the whole prefix."""
    with no_grad():
        memory = _memory(model, src)
        prefix = [BOS_ID]
        for _ in range(max_len):
            token = int(np.argmax(model.next_logprobs(memory, prefix)))
            if token == EOS_ID:
                break
            prefix.append(token)
    return prefix[1:]


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


def recompute_beam(model, src, beam, max_len, length_penalty_alpha=0.0):
    """Beam search by full recompute, one hypothesis at a time."""
    with no_grad():
        memory = _memory(model, src)
        active, finished = [Hypothesis(tokens=(), log_prob=0.0)], []
        for _ in range(max_len + 1):
            if not active:
                break
            candidates = []
            for hyp in active:
                lp = model.next_logprobs(memory, [BOS_ID, *hyp.tokens])
                top = np.argsort(-lp, kind="stable")[:beam]
                candidates.extend(hyp.extend(int(t), float(lp[t])) for t in top)
            candidates.sort(key=lambda h: -h.log_prob)
            active = []
            for hyp in candidates[:beam]:
                (finished if hyp.finished or len(hyp.tokens) >= max_len else active).append(hyp)
    tokens = list(max(finished or active, key=lambda h: h.score(length_penalty_alpha)).tokens)
    return tokens[:-1] if tokens and tokens[-1] == EOS_ID else tokens


# different lengths force padding
REAL_SOURCES = [[5, 6, 7, EOS_ID], [8, EOS_ID], [9, 10, 11, 12, 13, EOS_ID], [14, 4, EOS_ID], [6, 5, EOS_ID]]

# (arch, n_blocks, init seed); with blocks, each seed makes the rows of
# REAL_SOURCES stop after at least three different lengths
REAL_MODELS = [
    ("thm", 0, 9), ("thm", 1, 11), ("thm", 2, 10),
    ("transformer", 0, 9), ("transformer", 1, 22), ("transformer", 2, 30),
]


@pytest.mark.parametrize("arch, n_blocks, seed", REAL_MODELS)
def test_batched_greedy_equals_per_sentence_and_full_recompute(arch, n_blocks, seed):
    model = _real_model(arch, n_blocks, seed)
    batched = beam_decode_batch(model, REAL_SOURCES, 1, 10)
    assert batched == [greedy_decode(model, s, 10) for s in REAL_SOURCES]
    assert batched == [recompute_greedy(model, s, 10) for s in REAL_SOURCES]
    if n_blocks:  # without blocks the output ignores the source
        assert len({len(h) for h in batched}) >= 3, batched


@pytest.mark.parametrize("arch, n_blocks, seed", REAL_MODELS)
def test_cached_beam_search_equals_full_recompute(arch, n_blocks, seed):
    model = _real_model(arch, n_blocks, seed)
    for src in REAL_SOURCES:
        assert beam_search(model, src, 3, 8) == recompute_beam(model, src, 3, 8), src


@pytest.mark.parametrize("arch, n_blocks, seed", REAL_MODELS)
def test_batched_beam_search_equals_full_recompute(arch, n_blocks, seed):
    model = _real_model(arch, n_blocks, seed)
    for beam in (2, 3):
        for alpha in (0.0, 0.7):
            want = [recompute_beam(model, s, beam, 8, alpha) for s in REAL_SOURCES]
            assert beam_decode_batch(model, REAL_SOURCES, beam, 8, alpha) == want, (beam, alpha)


def test_real_model_rejects_empty_source():
    model = _real_model("thm", 1, 11)
    with pytest.raises(DataError, match="cannot decode an empty source"):
        greedy_decode(model, [], 5)


def test_translate_empty_corpus_is_empty():
    corpus = gen_synthetic("copy", 8, 6, (2, 4), Rng(12))
    bpe = learn_bpe(corpus.lines(), 12)
    model = build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(12))
    assert translate_corpus(model, bpe, [], max_len=5) == []
    assert translate_corpus(model, bpe, [], max_len=5, beam=2) == []
    with pytest.raises(ValueError, match="beam width"):
        translate_corpus(model, bpe, ["a b"], max_len=5, beam=0)


# ---------------------------------------------------------------------------
# the decode batch budget
# ---------------------------------------------------------------------------


def test_thm_base_keeps_about_64_greedy_rows_per_batch():
    # its default vocabulary, a 50-token source and a 108-token cap
    assert 56 <= sentences_per_batch(preset("thm-base"), np.float32, 1, 50, 108) <= 72


@pytest.mark.parametrize("beam", [1, 4])
@pytest.mark.parametrize("name", ["tiny", "transformer-tiny"])
def test_a_tiny_dev_set_fits_in_one_batch(name, beam):
    cfg = preset(name)
    assert sentences_per_batch(cfg, np.float32, beam, 14, cfg.max_len - 1) >= 100


def test_a_sentence_over_the_budget_is_a_batch_of_one(monkeypatch):
    # test_batching_never_changes_a_hypothesis decodes such batches
    cfg = preset("thm-base")
    monkeypatch.setattr(evaluation, "DECODE_BYTES", sentence_bytes(cfg, np.float32, 4, 50, 108) - 1)
    assert sentences_per_batch(cfg, np.float32, 4, 50, 108) == 1


def _tiny_setup(arch, n_sentences):
    """A tiny model of ``arch`` and an acceptance-7 style copy corpus."""
    corpus = gen_synthetic("copy", 20, n_sentences, (3, 12), Rng(21))
    bpe = learn_bpe(corpus.lines(), 28)
    name = "tiny" if arch == "thm" else "transformer-tiny"
    return build_model(replace(preset(name), vocab_size=bpe.vocab_size), Rng(22)), bpe, corpus


def _count_start_decode(monkeypatch, model) -> list[int]:
    """Batch sizes of every start_decode call on ``model``."""
    calls, start = [], model.start_decode
    monkeypatch.setattr(model, "start_decode", lambda sources: calls.append(len(sources)) or start(sources))
    return calls


@pytest.mark.parametrize("beam", [1, 4])
def test_a_100_sentence_tiny_corpus_is_one_decode_batch(monkeypatch, beam):
    model, bpe, corpus = _tiny_setup("thm", 100)
    calls = _count_start_decode(monkeypatch, model)
    assert len(translate_corpus(model, bpe, corpus.sources(), max_len=32, beam=beam)) == 100
    assert calls == [100]


@pytest.mark.parametrize("beam", [1, 3])
@pytest.mark.parametrize("arch", ["thm", "transformer"])
def test_batching_never_changes_a_hypothesis(monkeypatch, arch, beam):
    model, bpe, corpus = _tiny_setup(arch, 12)
    together = translate_corpus(model, bpe, corpus.sources(), max_len=16, beam=beam)
    monkeypatch.setattr(evaluation, "DECODE_BYTES", 1)
    calls = _count_start_decode(monkeypatch, model)
    assert translate_corpus(model, bpe, corpus.sources(), max_len=16, beam=beam) == together
    assert calls == [1] * 12
    assert len(set(together)) > 1, together


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


from oracles import bleu_oracle


def test_bleu_identity_is_100():
    hyps = ["the cat sat on the mat", "a b c d"]
    assert corpus_bleu(hyps, hyps) == 100.0


def test_bleu_identity_is_100_even_for_short_sentences():
    # corpora with no 4-grams anywhere skip that order instead of zeroing out
    hyps = ["a b", "c"]
    assert corpus_bleu(hyps, hyps) == 100.0


def test_bleu_no_overlap_is_zero():
    assert corpus_bleu(["x y z w"], ["a b c d"]) == 0.0


def test_bleu_clipped_unigram_hand_case():
    hyp = "the the the the the the the"
    ref = "the cat is on the mat"
    assert modified_precision([hyp], [ref], 1) == (2, 7)
    # bigram overlap is empty, so full BLEU collapses to zero
    assert corpus_bleu([hyp], [ref]) == 0.0
    assert bleu_oracle([hyp], [ref]) == 0.0


def test_bleu_brevity_penalty_direction():
    ref = ["a b c d e f g h"]
    short = corpus_bleu(["a b c d"], ref)
    full = corpus_bleu(ref, ref)
    assert 0.0 < short < full


def test_bleu_matches_brute_force_oracle_on_random_corpora():
    rng = Rng(31)
    for trial in range(20):
        vocab = ["w%d" % i for i in range(6)]
        n = 3 + trial % 4
        hyps, refs = [], []
        for _ in range(n):
            lh = 4 + rng.integer(6)
            lr = 4 + rng.integer(6)
            hyps.append(" ".join(vocab[rng.integer(len(vocab))] for _ in range(lh)))
            refs.append(" ".join(vocab[rng.integer(len(vocab))] for _ in range(lr)))
        assert abs(corpus_bleu(hyps, refs) - bleu_oracle(hyps, refs)) < 1e-9


def test_bleu_invariant_under_joint_permutation():
    rng = Rng(32)
    hyps = ["a b c d", "b b c e", "c d e f g", "a a a b"]
    refs = ["a b c e", "b b c d", "c d f f g", "a b a b"]
    base = corpus_bleu(hyps, refs)
    for _ in range(5):
        perm = rng.permutation(len(hyps))
        assert corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == base


def test_bleu_errors():
    with pytest.raises(DataError):
        corpus_bleu([], [])
    with pytest.raises(DataError):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(DataError):
        corpus_bleu(["a"], [""])
