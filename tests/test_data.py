"""Corpus pipeline: corruption statistics, filtering, budget batching, toys."""

import numpy as np
import pytest

from ccn.bpe import BOS_ID, EOS_ID, PAD_ID, learn_bpe
from ccn.data import (
    _SYNTH_DRAWS,
    ParallelCorpus,
    gen_synthetic,
    length_filter,
    load_corpus,
    make_batches,
    save_corpus,
    token_alphabet,
    token_swap_corrupt,
    token_swap_rows,
)
from ccn.errors import DataError
from ccn.rng import Rng
from oracles import permutation_reference, synthetic_pairs_reference, token_swap_reference


def test_swap_short_sequence_unchanged():
    assert token_swap_corrupt([7], 1.0, Rng(0)) == [7]
    assert token_swap_corrupt([1, 2, 7], 1.0, Rng(0)) == [1, 2, 7]  # one eligible token


def test_swap_golden_positions():
    # frozen rng stream: seed 0 with p=1 swaps the first two eligible positions
    assert token_swap_corrupt([10, 11, 12], 1.0, Rng(0)) == [11, 10, 12]


def test_swap_p_zero_is_identity():
    ids = [5, 6, 7, 8]
    assert token_swap_corrupt(ids, 0.0, Rng(3)) == ids


def test_swap_preserves_multiset_and_hamming_two():
    rng = Rng(123)
    for trial in range(2000):
        ids = list(np.array([4, 5, 6, 7, 8, 9]) + (trial % 3))
        out = token_swap_corrupt(ids, 0.5, rng)
        assert sorted(out) == sorted(ids)
        diff = sum(a != b for a, b in zip(ids, out))
        assert diff in (0, 2)


def test_swap_skips_special_positions():
    rng = Rng(9)
    ids = [1, 5, 6, 2, 0, 0]  # BOS, tokens, EOS, pads
    for _ in range(200):
        out = token_swap_corrupt(ids, 1.0, rng)
        assert out[0] == 1 and out[3] == 2 and out[4:] == [0, 0]
        assert sorted(out[1:3]) == [5, 6]


def test_swap_fire_rate():
    rng = Rng(77)
    fired = 0
    n = 10_000
    for _ in range(n):
        ids = [4, 5, 6, 7, 8]  # all distinct so a swap always alters
        fired += token_swap_corrupt(ids, 0.5, rng) != ids
    assert 0.48 <= fired / n <= 0.52


def test_length_filter_identity_when_within_limits():
    corpus = ParallelCorpus([("a b c", "d e"), ("x", "y")])
    assert length_filter(corpus, max_len=10, ratio_limit=2.0).pairs == corpus.pairs


def test_length_filter_drops_overlong_side():
    corpus = ParallelCorpus([("a " * 11, "b"), ("a", "b")])
    kept = length_filter(corpus, max_len=10, ratio_limit=100.0)
    assert kept.pairs == [("a", "b")]


def test_length_filter_drops_extreme_ratio():
    corpus = ParallelCorpus([("a " * 10, "b " * 16)])
    assert length_filter(corpus, max_len=100, ratio_limit=1.5).pairs == []
    corpus2 = ParallelCorpus([("a " * 10, "b " * 15)])
    assert len(length_filter(corpus2, max_len=100, ratio_limit=1.5)) == 1


def test_corpus_loader_rejects_misaligned_files(tmp_path):
    (tmp_path / "a.src").write_text("one\ntwo\n")
    (tmp_path / "a.tgt").write_text("uno\n")
    with pytest.raises(DataError):
        load_corpus(tmp_path / "a.src", tmp_path / "a.tgt")


def _toy_setup(n_pairs=30, seed=0):
    corpus = gen_synthetic("copy", 12, n_pairs, (2, 6), Rng(seed))
    bpe = learn_bpe(corpus.lines(), 16)
    return corpus, bpe


def test_single_pair_single_batch():
    corpus, bpe = _toy_setup(n_pairs=1)
    batches = make_batches(corpus, bpe, 64, Rng(1))
    assert len(batches) == 1
    b = batches[0]
    assert b.src[0, -1] == EOS_ID
    assert b.tgt_in[0, 0] == BOS_ID
    assert b.tgt_out[0, -1] == EOS_ID


def test_zero_swap_prob_copies_equal_source():
    corpus, bpe = _toy_setup()
    for b in make_batches(corpus, bpe, 100, Rng(2), swap_prob=0.0):
        assert np.array_equal(b.src, b.src_corrupt_left)
        assert np.array_equal(b.src, b.src_corrupt_right)


def test_corrupt_copies_are_row_permutations_of_source():
    corpus, bpe = _toy_setup(n_pairs=50, seed=3)
    for b in make_batches(corpus, bpe, 100, Rng(4), swap_prob=1.0):
        for row in range(b.src.shape[0]):
            assert sorted(b.src[row]) == sorted(b.src_corrupt_left[row])
            assert sorted(b.src[row]) == sorted(b.src_corrupt_right[row])


def test_batches_respect_token_budget_property():
    rng = Rng(5)
    for trial in range(10):
        corpus = gen_synthetic("copy", 10, 40 + trial * 7, (2, 8), rng.fork(trial))
        bpe = learn_bpe(corpus.lines(), 16)
        budget = 48 + 16 * trial
        for b in make_batches(corpus, bpe, budget, rng.fork(("b", trial))):
            assert b.n_tokens <= budget


def test_batches_cover_corpus_exactly_once():
    corpus, bpe = _toy_setup(n_pairs=57, seed=6)
    batches = make_batches(corpus, bpe, 80, Rng(7))
    seen = []
    for b in batches:
        for row in range(b.src.shape[0]):
            src = [t for t in b.src[row] if t not in (PAD_ID, EOS_ID)]
            tgt = [t for t in b.tgt_out[row] if t not in (PAD_ID, EOS_ID)]
            seen.append((tuple(src), tuple(tgt)))
    from ccn.data import encode_pair

    want = []
    for s, t in corpus.pairs:
        src, _, out = encode_pair(bpe, s, t)
        want.append((tuple(src[:-1]), tuple(out[:-1])))
    assert sorted(seen) == sorted(want)


def test_batch_order_depends_only_on_rng():
    corpus, bpe = _toy_setup(n_pairs=40, seed=8)
    a = make_batches(corpus, bpe, 64, Rng(9), swap_prob=0.5)
    b = make_batches(corpus, bpe, 64, Rng(9), swap_prob=0.5)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.src, y.src)
        assert np.array_equal(x.src_corrupt_left, y.src_corrupt_left)
        assert np.array_equal(x.src_corrupt_right, y.src_corrupt_right)


def test_branch_corruption_streams_independent():
    corpus, bpe = _toy_setup(n_pairs=400, seed=10)
    p = 0.5
    both = total = 0
    for b in make_batches(corpus, bpe, 4000, Rng(11), swap_prob=p):
        for row in range(b.src.shape[0]):
            src = b.src[row]
            if len(set(src[src != PAD_ID])) < len(src[src != PAD_ID]):
                continue  # repeated tokens can hide a swap
            left = not np.array_equal(src, b.src_corrupt_left[row])
            right = not np.array_equal(src, b.src_corrupt_right[row])
            both += left and right
            total += 1
    assert abs(both / total - p * p) <= 0.03


def test_oversized_sentence_is_data_error():
    corpus, bpe = _toy_setup()
    with pytest.raises(DataError):
        make_batches(corpus, bpe, 4, Rng(12))


def test_empty_corpus_is_data_error():
    _, bpe = _toy_setup()
    with pytest.raises(DataError):
        make_batches(ParallelCorpus([]), bpe, 64, Rng(0))


def test_synthetic_tasks_define_targets():
    rng = Rng(13)
    copy = gen_synthetic("copy", 8, 20, (1, 6), rng.fork("c"))
    for s, t in copy.pairs:
        assert s == t
    rev = gen_synthetic("reverse", 8, 20, (1, 6), rng.fork("r"))
    for s, t in rev.pairs:
        assert t.split() == s.split()[::-1]
    srt = gen_synthetic("sort", 8, 20, (1, 6), rng.fork("s"))
    for s, t in srt.pairs:
        assert t.split() == sorted(s.split())


def test_synthetic_respects_length_range_and_vocab():
    corpus = gen_synthetic("copy", 5, 50, (3, 7), Rng(14))
    letters = set("abcde")
    for s, _ in corpus.pairs:
        words = s.split()
        assert 3 <= len(words) <= 7
        assert set("".join(words)) <= letters


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_synthetic("shuffle", 8, 5, (1, 3), Rng(0))
    with pytest.raises(ValueError):
        gen_synthetic("copy", 4, 5, (1, 3), Rng(0))
    with pytest.raises(ValueError):
        gen_synthetic("copy", 8, 5, (3, 1), Rng(0))


def test_corpus_save_load_round_trip(tmp_path):
    corpus = gen_synthetic("reverse", 6, 12, (1, 5), Rng(15))
    save_corpus(corpus, tmp_path / "x.src", tmp_path / "x.tgt")
    loaded = load_corpus(tmp_path / "x.src", tmp_path / "x.tgt")
    assert loaded.pairs == corpus.pairs


@pytest.mark.parametrize("task", ["copy", "reverse", "sort"])
@pytest.mark.parametrize("vocab_size, len_range", [(8, (1, 6)), (300, (3, 12))])
def test_gen_synthetic_draws_the_scalar_stream(task, vocab_size, len_range):
    # sentences per read-ahead chunk; corpora end just before, at and after one
    chunk = _SYNTH_DRAWS // (1 + len_range[1])
    for n_pairs in (40, 2000, chunk - 1, chunk, chunk + 1):
        got, ref = Rng(21).fork(task), Rng(21).fork(task)
        corpus = gen_synthetic(task, vocab_size, n_pairs, len_range, got)
        assert corpus.pairs == synthetic_pairs_reference(task, token_alphabet(vocab_size), n_pairs, len_range, ref)
        assert got.uniform() == ref.uniform()


@pytest.mark.parametrize("n", [0, 1, 2, 17, 2000])
def test_permutation_draws_the_scalar_fisher_yates_stream(n):
    got, ref = Rng(22).fork(n), Rng(22).fork(n)
    assert got.permutation(n).tolist() == permutation_reference(ref, n)
    assert got.uniform() == ref.uniform()


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_token_swap_rows_draw_the_scalar_stream(p):
    # rows with no, one and several eligible tokens, specials among them
    rows = [[], [7], [1, 2], [1, 9, 2], [4, 5], [1, 4, 5, 6, 2, 0, 0]]
    rows += [list(range(3, 3 + n)) + [EOS_ID] for n in range(2, 30)]
    got, ref = Rng(23).fork(p), Rng(23).fork(p)
    assert token_swap_rows(rows, p, got) == [token_swap_reference(r, p, ref) for r in rows]
    assert got.uniform() == ref.uniform()


def test_make_batches_corrupts_each_branch_with_the_scalar_stream():
    corpus = gen_synthetic("copy", 12, 120, (2, 9), Rng(24))
    bpe = learn_bpe(corpus.lines(), 16)
    batches = make_batches(corpus, bpe, 64, Rng(25), swap_prob=0.5)
    left, right = Rng(25).fork("corrupt-left"), Rng(25).fork("corrupt-right")
    for b in batches:
        for corrupt, rng in ((b.src_corrupt_left, left), (b.src_corrupt_right, right)):
            want = [token_swap_reference([t for t in row if t != PAD_ID], 0.5, rng) for row in b.src]
            assert [[t for t in row if t != PAD_ID] for row in corrupt] == want
