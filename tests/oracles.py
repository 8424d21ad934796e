"""Independent brute-force reference implementations used by the tests.

These deliberately re-derive results from definitions, sharing no code with
the library paths they certify. The random-draw references draw one
scalar ``Rng`` draw at a time, the stream the vectorised draws must
reproduce; ``relu``, the tape op the fused ``ffn`` replaced, is its
oracle. ``nonlocal_op`` is the generic non-local form (a double loop over
query and key positions) that attention is checked against, and
``token_accuracy`` scores teacher-forced predictions for acceptance 7.
Three helpers ride along: ``graph_nodes`` lists the nodes of a tape,
``tape_ops`` counts its op nodes, and ``FailingArray`` makes a file write
fail midway.
"""

import math
from collections import Counter

import numpy as np

from ccn.attention import MultiHeadParams
from ccn.bpe import BOS_ID, EOS_ID, PAD_ID
from ccn.errors import DataError, ShapeError
from ccn.tensor import Tensor, _make, no_grad


class FailingArray:
    """An array whose conversion raises, as a full disk would in the middle
    of a write; it records the names in ``directory`` as they were then."""

    def __init__(self, directory):
        self.directory = directory
        self.seen = None

    def __array__(self, *args, **kwargs):
        self.seen = sorted(p.name for p in self.directory.iterdir())
        raise OSError("No space left on device")


def nonlocal_op(q, k, v, pairwise, unary, normalizer) -> np.ndarray:
    """y_i = (1 / normalizer(q_i, K)) * sum_j pairwise(q_i, k_j) * unary(v_j).

    Direct double loop over query and key positions; the reference
    implementation the fast attention path is tested against.
    """
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"K and V disagree on length: {k.shape} vs {v.shape}")
    n_q = q.shape[0]
    rows = []
    for i in range(n_q):
        c = float(normalizer(q[i], k))
        if c == 0.0:
            raise DataError(f"non-local normalizer is zero for query row {i}")
        acc = None
        for j in range(k.shape[0]):
            term = float(pairwise(q[i], k[j])) * np.asarray(unary(v[j]), dtype=np.float64)
            acc = term if acc is None else acc + term
        rows.append(acc / c)
    return np.stack(rows)


def token_accuracy(model, batches) -> float:
    """Teacher-forced next-token accuracy over non-pad positions."""
    correct, total = 0, 0
    with no_grad():
        for b in batches:
            logits = model.forward_logits(b)
            pred = np.argmax(logits.data, axis=-1)
            keep = b.tgt_out != PAD_ID
            correct += int((pred[keep] == b.tgt_out[keep]).sum())
            total += int(keep.sum())
    return correct / total if total else 0.0


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


def token_swap_reference(ids, p, rng):
    """With probability p, swap one uniformly chosen pair of non-special
    tokens: one scalar uniform, then two scalar integers when it swaps."""
    ids = list(ids)
    eligible = [i for i, t in enumerate(ids) if t not in (PAD_ID, BOS_ID, EOS_ID)]
    if rng.uniform() >= p or len(eligible) < 2:
        return ids
    a = rng.integer(len(eligible))
    b = rng.integer(len(eligible) - 1)
    if b >= a:
        b += 1
    i, j = eligible[a], eligible[b]
    ids[i], ids[j] = ids[j], ids[i]
    return ids


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)
    live = a.data > 0

    def backward(g):
        return (g * live,)

    return _make(data, (a,), backward)


def graph_nodes(out: Tensor) -> list:
    """The nodes of ``out``'s graph, ``out``'s own first."""
    seen, stack, nodes = set(), [out.node], []
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def tape_ops(out: Tensor) -> int:
    """Op nodes (those with parents, not leaves) reachable from ``out``."""
    return sum(node.leaf is None for node in graph_nodes(out))


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
