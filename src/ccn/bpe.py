"""Greedy byte-pair subword vocabulary, shared across source and target.

Words are whitespace tokens; the final character of each word carries an
end-of-word marker ``</w>`` so segmentations are reversible. The marker is
reserved: learning from or applying to a word that contains it raises
DataError naming the word. Merges are learned most-frequent-pair first
with lexicographic tie-breaking and applied at encode time in learned
order, so encoding reproduces the training-time segmentation exactly. The
four special tokens always take ids 0..3.

Learning is incremental (Sennrich et al. 2016). Each distinct word is split
into symbols once, and a table of pair counts, weighted by word frequency,
is kept between merges, with an index from each pair to the words that
hold it. A heap of ``(-count, pair)`` entries yields the most frequent pair,
ties to the lexicographically smallest; an entry whose count has moved
since it was pushed is dropped when popped. A merge rewrites only the
indexed words, left to right, and moves the pair counts by each such word's
old pairs out and its new pairs in, which is exact for overlapping pairs
such as ``a a`` in ``aaaa``. A merge then costs time in the words indexed
under its pair, not in the corpus, and the merges equal those of a full
recount of every pair after every merge.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import DataError, atomic_write, read_text

PAD, BOS, EOS, UNK = "<pad>", "<bos>", "<eos>", "<unk>"
SPECIALS = (PAD, BOS, EOS, UNK)
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

END_OF_WORD = "</w>"
MERGE_SENTINEL = "#merges"


def _word_symbols(word: str) -> tuple[str, ...]:
    if END_OF_WORD in word:
        # ids_to_text ends a word at every piece ending with the marker
        raise DataError(f"word {word!r} contains {END_OF_WORD!r}, the reserved end-of-word marker")
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
    """Learn merges by greedy most-frequent-pair counting over word frequencies,
    updating the pair counts of only the words each merge changes."""
    counts = Counter(word for line in lines for word in line.split())
    if not counts:
        raise DataError("cannot learn BPE from an empty corpus")
    words = [_word_symbols(word) for word in counts]
    freqs = list(counts.values())

    base = sorted({sym for word in words for sym in word})
    floor = len(SPECIALS) + len(base)
    if target_vocab_size < floor:
        raise DataError(
            f"target vocab {target_vocab_size} below base character vocabulary {floor}"
        )

    pair_counts: Counter[tuple[str, str]] = Counter()
    holders = defaultdict(set)  # pair -> ids of the words that hold it, or once did
    for i, (word, freq) in enumerate(zip(words, freqs)):
        for pair in zip(word, word[1:]):
            pair_counts[pair] += freq
            holders[pair].add(i)
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while heap and floor + len(merges) < target_vocab_size:
        neg, pair = heapq.heappop(heap)
        if pair_counts[pair] != -neg:  # stale: the count moved since the push
            continue
        merges.append(pair)
        a, b = pair
        delta: Counter[tuple[str, str]] = Counter()
        for i in holders.pop(pair):
            word, freq, new = words[i], freqs[i], []
            for sym in word:  # a merged a + b never equals a
                if sym == b and new and new[-1] == a:
                    new[-1] = a + b
                else:
                    new.append(sym)
            if len(new) == len(word):
                continue
            for old in zip(word, word[1:]):
                delta[old] -= freq
            for fresh in zip(new, new[1:]):
                delta[fresh] += freq
                holders[fresh].add(i)
            words[i] = new
        for p, d in delta.items():
            if d:
                pair_counts[p] += d
                if pair_counts[p]:
                    heapq.heappush(heap, (-pair_counts[p], p))
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
    """Read a ``save_bpe`` file, checking every line; a bad line is a
    ``DataError`` naming the file and the line."""
    lines = read_text(path).splitlines()
    if MERGE_SENTINEL not in lines:
        raise DataError(f"{path}: missing {MERGE_SENTINEL!r} sentinel")
    split = lines.index(MERGE_SENTINEL)
    if tuple(lines[:4]) != SPECIALS:
        raise DataError(f"{path}: special tokens must head the vocabulary")
    first_line: dict[str, int] = {}  # token -> the line that made it
    merges = []
    for lineno, line in enumerate(lines, 1):
        if lineno <= split:
            if not line:
                raise DataError(f"{path}:{lineno}: empty base symbol")
            token = line
        elif lineno == split + 1 or not line:
            continue
        else:
            pair = tuple(line.split(" "))
            if len(pair) != 2 or not all(pair):
                raise DataError(
                    f"{path}:{lineno}: a merge is two non-empty symbols and one space, got {line!r}"
                )
            for part in pair:
                if part not in first_line or part in SPECIALS:
                    raise DataError(
                        f"{path}:{lineno}: merge part {part!r} is neither a base symbol nor an earlier merge"
                    )
            merges.append(pair)
            token = pair[0] + pair[1]
        if token in first_line:
            raise DataError(
                f"{path}:{lineno}: duplicate token {token!r}, first on line {first_line[token]}"
            )
        first_line[token] = lineno
    return BpeModel(base_vocab=lines[4:split], merges=merges)
