"""Independent brute-force reference implementations used by the tests.

These deliberately re-derive results from definitions, sharing no code with
the library paths they certify. The random-draw references draw one
scalar ``Rng.integer`` at a time, the stream the vectorised draws must
reproduce. Two helpers ride along: ``tape_ops`` counts the nodes of a tape,
and ``FailingArray`` makes a file write fail midway.
"""

import math
from collections import Counter

import numpy as np

from ccn.attention import MultiHeadParams
from ccn.tensor import Tensor


class FailingArray:
    """An array whose conversion raises, as a full disk would in the middle
    of a write; it records the names in ``directory`` as they were then."""

    def __init__(self, directory):
        self.directory = directory
        self.seen = None

    def __array__(self, *args, **kwargs):
        self.seen = sorted(p.name for p in self.directory.iterdir())
        raise OSError("No space left on device")


def adam_reference(p, g, m, v, lr, beta1, beta2, eps, t):
    """One-shot in-place Adam step over whole arrays (Kingma and Ba 2015,
    algorithm 1), the operations of the blocked ``kernels.adam_update`` in
    its order."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def synthetic_pairs_reference(task, tokens, n_pairs, len_range, rng):
    """``gen_synthetic``'s pairs over ``tokens``, one scalar draw per token."""
    lo, hi = len_range
    pairs = []
    for _ in range(n_pairs):
        n = lo + rng.integer(hi - lo + 1)
        words = [tokens[rng.integer(len(tokens))] for _ in range(n)]
        out = {"copy": words, "reverse": words[::-1], "sort": sorted(words)}[task]
        pairs.append((" ".join(words), " ".join(out)))
    return pairs


def permutation_reference(rng, n):
    """Fisher-Yates shuffle of range(n), one scalar draw per swap."""
    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.integer(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def tape_ops(out: Tensor) -> int:
    """Op nodes (those with parents, not leaves) reachable from ``out``."""
    seen, stack, ops = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += bool(node._parents)
        stack.extend(node._parents)
    return ops


def fuse_heads(heads, w_o, leaf=Tensor):
    """MultiHeadParams whose gate weights hold the per-head weights of
    ``heads`` (AttentionHeadParams) side by side, head j in the j-th block of
    columns; ``leaf`` wraps each fused array."""
    gates = [np.concatenate([getattr(h, g).data for h in heads], axis=-1) for g in ("w_q", "w_k", "w_v")]
    return MultiHeadParams(*map(leaf, gates), w_o=w_o, n_heads=len(heads))


def bleu_oracle(hyps, refs):
    """By-the-definition corpus BLEU-4 with clipped counts and brevity penalty."""

    def grams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    hyps = [h.split() if isinstance(h, str) else list(h) for h in hyps]
    refs = [r.split() if isinstance(r, str) else list(r) for r in refs]
    logs = []
    for n in (1, 2, 3, 4):
        num = den = 0
        for h, r in zip(hyps, refs):
            hg, rg = grams(h, n), grams(r, n)
            den += sum(hg.values())
            num += sum(min(c, rg.get(g, 0)) for g, c in hg.items())
        if den == 0:
            continue
        if num == 0:
            return 0.0
        logs.append(math.log(num / den))
    if not logs:
        return 0.0
    c = sum(len(h) for h in hyps)
    r = sum(len(t) for t in refs)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))
