"""Greedy byte-pair subword vocabulary, shared across source and target.

Words are whitespace tokens; the final character of each word carries an
end-of-word marker ``</w>`` so segmentations are reversible. Merges are
learned most-frequent-pair first with lexicographic tie-breaking and applied
at encode time in learned order, so encoding reproduces the training-time
segmentation exactly. The four special tokens always take ids 0..3.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, atomic_write, read_text

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

END_OF_WORD = "</w>"
MERGE_SENTINEL = "#merges"


def _word_symbols(word: str) -> tuple[str, ...]:
    chars = list(word)
    chars[-1] += END_OF_WORD
    return tuple(chars)


@dataclass
class BpeModel:
    base_vocab: list[str]
    merges: list[tuple[str, str]]
    token_to_id: dict[str, int] = field(init=False)
    id_to_token: list[str] = field(init=False)
    _ranks: dict[tuple[str, str], int] = field(init=False)
    _cache: dict[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self):
        tokens = list(SPECIALS) + list(self.base_vocab) + [a + b for a, b in self.merges]
        self.id_to_token = tokens
        self.token_to_id = {t: i for i, t in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise DataError("BPE vocabulary contains duplicate tokens")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    def segment_word(self, word: str) -> tuple[str, ...]:
        """Apply merges in learned order until none fits."""
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        symbols = list(_word_symbols(word))
        while len(symbols) > 1:
            best_rank, best_idx = None, -1
            for i in range(len(symbols) - 1):
                rank = self._ranks.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_idx = rank, i
            if best_rank is None:
                break
            symbols[best_idx : best_idx + 2] = [symbols[best_idx] + symbols[best_idx + 1]]
        out = tuple(symbols)
        self._cache[word] = out
        return out


def learn_bpe(lines, target_vocab_size: int) -> BpeModel:
    """Learn merges by greedy most-frequent-pair counting over word frequencies."""
    word_freq: Counter[tuple[str, ...]] = Counter()
    for line in lines:
        for word in line.split():
            word_freq[_word_symbols(word)] += 1
    if not word_freq:
        raise DataError("cannot learn BPE from an empty corpus")

    base = sorted({sym for word in word_freq for sym in word})
    floor = len(SPECIALS) + len(base)
    if target_vocab_size < floor:
        raise DataError(
            f"target vocab {target_vocab_size} below base character vocabulary {floor}"
        )

    words = {w: f for w, f in word_freq.items()}
    merges: list[tuple[str, str]] = []
    while floor + len(merges) < target_vocab_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        for word, freq in words.items():
            for i in range(len(word) - 1):
                pair_counts[(word[i], word[i + 1])] += freq
        if not pair_counts:
            break
        best_count = max(pair_counts.values())
        pair = min(p for p, c in pair_counts.items() if c == best_count)
        merges.append(pair)
        merged = pair[0] + pair[1]
        new_words = {}
        for word, freq in words.items():
            symbols = list(word)
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
                    symbols[i : i + 2] = [merged]
                else:
                    i += 1
            new_words[tuple(symbols)] = new_words.get(tuple(symbols), 0) + freq
        words = new_words
    return BpeModel(base_vocab=base, merges=merges)


def apply_bpe(model: BpeModel, sentence: str) -> list[int]:
    """Deterministic segmentation into ids; unknown symbols map to UNK."""
    ids: list[int] = []
    for word in sentence.split():
        for sym in model.segment_word(word):
            ids.append(model.token_to_id.get(sym, UNK_ID))
    return ids


def ids_to_text(model: BpeModel, ids) -> str:
    """Join subwords back into words; the inverse of apply_bpe for known text."""
    words: list[str] = []
    piece = ""
    for t in ids:
        token = model.id_to_token[t]
        if token in SPECIALS:
            continue
        piece += token
        if piece.endswith(END_OF_WORD):
            words.append(piece[: -len(END_OF_WORD)])
            piece = ""
    if piece:
        words.append(piece)
    return " ".join(words)


def save_bpe(model: BpeModel, path):
    lines = list(SPECIALS) + list(model.base_vocab) + [MERGE_SENTINEL]
    lines += [f"{a} {b}" for a, b in model.merges]
    with atomic_write(path, text=True) as fh:
        fh.write("\n".join(lines) + "\n")


def load_bpe(path) -> BpeModel:
    lines = read_text(path).splitlines()
    if MERGE_SENTINEL not in lines:
        raise DataError(f"{path}: missing {MERGE_SENTINEL!r} sentinel")
    split = lines.index(MERGE_SENTINEL)
    base = lines[:split]
    if tuple(base[:4]) != SPECIALS:
        raise DataError(f"{path}: special tokens must head the vocabulary")
    merges = []
    for line in lines[split + 1 :]:
        if not line:
            continue
        a, _, b = line.partition(" ")
        merges.append((a, b))
    return BpeModel(base_vocab=base[4:], merges=merges)
