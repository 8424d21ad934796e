"""Subword learning/encoding against a brute-force pair-counting oracle."""

import numpy as np
import pytest

from ccn.bpe import (
    END_OF_WORD,
    SPECIALS,
    UNK_ID,
    BpeModel,
    apply_bpe,
    ids_to_text,
    learn_bpe,
    load_bpe,
    save_bpe,
)
from ccn.data import gen_synthetic
from ccn.errors import DataError
from ccn.rng import Rng


def oracle_merges(words_with_freq: dict[tuple[str, ...], int], n_merges: int):
    """Independent reimplementation: exhaustive pair counting per round."""
    words = dict(words_with_freq)
    out = []
    for _ in range(n_merges):
        counts = {}
        for word, freq in words.items():
            for pair in zip(word, word[1:]):
                counts[pair] = counts.get(pair, 0) + freq
        if not counts:
            break
        best = max(counts.values())
        pair = sorted(p for p, c in counts.items() if c == best)[0]
        out.append(pair)
        merged = {}
        for word, freq in words.items():
            symbols = []
            i = 0
            while i < len(word):
                if i + 1 < len(word) and (word[i], word[i + 1]) == pair:
                    symbols.append(word[i] + word[i + 1])
                    i += 2
                else:
                    symbols.append(word[i])
                    i += 1
            key = tuple(symbols)
            merged[key] = merged.get(key, 0) + freq
        words = merged
    return out


def _symbols(word):
    chars = list(word)
    chars[-1] += END_OF_WORD
    return tuple(chars)


def _word_freqs(lines):
    words = {}
    for line in lines:
        for w in line.split():
            words[_symbols(w)] = words.get(_symbols(w), 0) + 1
    return words


def _floor(words):
    return len(SPECIALS) + len({sym for word in words for sym in word})


def test_first_merge_on_single_repeated_word():
    model = learn_bpe(["ab ab ab"], target_vocab_size=7)
    assert model.merges[0] == ("a", "b" + END_OF_WORD)


def test_target_equal_to_base_means_zero_merges():
    model = learn_bpe(["ab ba"], target_vocab_size=4 + 4)  # specials + {a, b, a</w>, b</w>}
    assert model.merges == []


def test_merge_order_matches_exhaustive_oracle():
    corpus = ["abab abab abab", "abc cab", "aabb ccaa abab"]
    words = _word_freqs(corpus)
    model = learn_bpe(corpus, target_vocab_size=100)
    assert model.merges == oracle_merges(words, len(model.merges))
    assert len(model.merges) > 3


def test_ties_break_lexicographically():
    # "ab" and "cd" both occur once; (a, b</w>) sorts before (c, d</w>)
    model = learn_bpe(["ab cd"], target_vocab_size=9)
    assert model.merges[0] == ("a", "b" + END_OF_WORD)


def test_empty_corpus_is_data_error():
    with pytest.raises(DataError):
        learn_bpe([], target_vocab_size=10)
    with pytest.raises(DataError):
        learn_bpe(["", "   "], target_vocab_size=10)


def test_target_below_base_is_data_error():
    with pytest.raises(DataError):
        learn_bpe(["abcdefgh"], target_vocab_size=5)


def test_a_word_holding_the_end_of_word_marker_is_a_data_error_naming_it():
    # ids_to_text would end the word at the marker: 'ab</w>c d' came back 'ab c d'
    with pytest.raises(DataError, match=r"word 'ab</w>c' contains '</w>'"):
        learn_bpe(["ab</w>c d"], target_vocab_size=12)
    model = learn_bpe(["ab c d"], target_vocab_size=12)
    with pytest.raises(DataError, match=r"word 'x</w>' contains '</w>'"):
        apply_bpe(model, "ab x</w>")
    partial = learn_bpe(["ab</w c d"], target_vocab_size=14)  # a part of the marker is plain text
    assert ids_to_text(partial, apply_bpe(partial, "ab</w c d")) == "ab</w c d"


def test_apply_empty_sentence():
    model = learn_bpe(["ab"], target_vocab_size=8)
    assert apply_bpe(model, "") == []


def test_apply_single_known_character():
    model = learn_bpe(["a b"], target_vocab_size=8)
    ids = apply_bpe(model, "a")
    assert ids == [model.token_to_id["a" + END_OF_WORD]]


def test_apply_learn_closure_never_unk():
    rng = np.random.default_rng(0)
    letters = "abcdefg"
    lines = [
        " ".join(
            "".join(rng.choice(list(letters), size=rng.integers(1, 6)))
            for _ in range(rng.integers(1, 8))
        )
        for _ in range(60)
    ]
    model = learn_bpe(lines, target_vocab_size=60)
    for line in lines:
        assert UNK_ID not in apply_bpe(model, line)


def test_unknown_character_maps_to_unk():
    model = learn_bpe(["ab ab"], target_vocab_size=8)
    assert UNK_ID in apply_bpe(model, "xy")


def test_segmentation_reproduces_training_merges():
    corpus = ["abab abab", "ab abab"]
    model = learn_bpe(corpus, target_vocab_size=30)
    # encoding then joining the pieces reproduces the sentence
    for line in corpus:
        assert ids_to_text(model, apply_bpe(model, line)) == line


def test_apply_is_deterministic_across_instances():
    corpus = ["the cat sat on the mat", "the mat sat"]
    m1 = learn_bpe(corpus, target_vocab_size=40)
    m2 = learn_bpe(corpus, target_vocab_size=40)
    for line in corpus:
        assert apply_bpe(m1, line) == apply_bpe(m2, line)


def test_save_load_round_trip(tmp_path):
    corpus = ["abab cdcd abab", "dcba bacd"]
    model = learn_bpe(corpus, target_vocab_size=30)
    path = tmp_path / "bpe.vocab"
    save_bpe(model, path)
    text = path.read_text()
    assert text.splitlines()[0] == "<pad>"
    assert "#merges" in text
    loaded = load_bpe(path)
    assert loaded.merges == model.merges
    assert loaded.id_to_token == model.id_to_token
    for line in corpus:
        assert apply_bpe(loaded, line) == apply_bpe(model, line)


def test_specials_hold_the_four_lowest_ids():
    model = learn_bpe(["ab"], target_vocab_size=8)
    assert [model.id_to_token[i] for i in range(4)] == ["<pad>", "<bos>", "<eos>", "<unk>"]


def test_duplicate_tokens_rejected():
    with pytest.raises(DataError):
        BpeModel(base_vocab=["a", "a"], merges=[])


@pytest.mark.parametrize(
    "lines",
    [
        ["aaaa aaa aa a"],  # overlapping repeats of one pair
        ["aaaa aaaa aaaaa"],
        ["abab ababab abab", "baba"],
        ["abcabc"] * 3,  # a single word type
        ["ab cd ef", "gh"],  # every pair tied
    ],
)
def test_merges_equal_the_oracle_up_to_the_last_possible_merge(lines):
    words = _word_freqs(lines)
    target = _floor(words) + 100  # past the last possible merge
    model = learn_bpe(lines, target)
    assert model.merges == oracle_merges(words, 100)
    assert len(model.merges) < 100


@pytest.mark.parametrize("seed", range(4))
def test_merges_equal_the_oracle_on_random_corpora(seed, tmp_path):
    rng = np.random.default_rng(seed)
    stopped_early = 0
    for _ in range(60):
        letters = list(rng.choice(["a", "ab", "abc", "abcdefg"]))
        lines = [
            " ".join(
                "".join(rng.choice(letters, size=rng.integers(1, 9)))
                for _ in range(rng.integers(1, 7))
            )
            for _ in range(rng.integers(1, 8))
        ]
        if rng.random() < 0.2:  # a single word type, repeated
            lines = [lines[0].split()[0]] * int(rng.integers(1, 4))
        words = _word_freqs(lines)
        n_merges = int(rng.integers(0, 40))
        model = learn_bpe(lines, _floor(words) + n_merges)
        assert model.merges == oracle_merges(words, n_merges)
        stopped_early += len(model.merges) < n_merges
        save_bpe(model, tmp_path / "bpe.vocab")  # every check of load_bpe passes
        assert load_bpe(tmp_path / "bpe.vocab").id_to_token == model.id_to_token
    assert stopped_early > 0


def test_merges_equal_the_oracle_on_the_width_256_benchmark_corpus():
    # perfbench's train-w256 corpus at seed 1: 700 word types, vocab 730
    lines = list(gen_synthetic("reverse", 700, 195, (8, 16), Rng(1).fork("train")).lines())
    words = _word_freqs(lines)
    model = learn_bpe(lines, 730)
    assert model.merges == oracle_merges(words, 730 - _floor(words))
    assert len(model.merges) == 652
