"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints an `ACCEPTANCE <n> ... PASS` line (visible under -s) after
its assertions hold. Full-scale WMT scores are out of scope by design; these
criteria are property-based plus toy-scale training runs.
"""

import time
from dataclasses import replace

import numpy as np

from ccn import tensor as T
from ccn.attention import (
    LEFT,
    RIGHT,
    AttentionHeadParams,
    coattention,
    multi_head,
    nonlocal_op,
    scaled_dot_attention,
    self_routing,
)
from ccn.bpe import learn_bpe
from ccn.data import gen_synthetic, make_batches, token_swap_corrupt
from ccn.evaluation import corpus_bleu, token_accuracy
from ccn.gradcheck import finite_diff_check
from ccn.model import ModelConfig, build_model, count_parameters, preset
from ccn.rng import Rng
from ccn.training import (
    DataBundle,
    RunRecord,
    TrainParams,
    TrainState,
    evaluate_bleu,
    run_experiment,
    topk_selection,
    train_step,
)

from oracles import bleu_oracle, fuse_heads


def _report(n: int, label: str, detail: str = ""):
    print(f"ACCEPTANCE {n} {label}: PASS {detail}".rstrip(), flush=True)


def _mha(rng, d, n_heads=1):
    d_k = d // n_heads
    heads = [
        AttentionHeadParams(
            w_q=T.Tensor(rng.normal(size=(d, d_k))),
            w_k=T.Tensor(rng.normal(size=(d, d_k))),
            w_v=T.Tensor(rng.normal(size=(d, d_k))),
        )
        for _ in range(n_heads)
    ]
    return fuse_heads(heads, w_o=T.Tensor(rng.normal(size=(d, d))))


def test_acceptance_1_degradation_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_l, n_r, d = (int(v) for v in rng.integers(1, 9, size=3))
        x_l = T.Tensor(rng.normal(size=(n_l, d)))
        x_r = T.Tensor(rng.normal(size=(n_r, d)))
        p_l, p_r = _mha(rng, d), _mha(rng, d)
        y_l, y_r = coattention(
            x_l, x_r, self_routing(LEFT), self_routing(RIGHT), p_l, p_r
        )
        want_l = multi_head(x_l, x_l, x_l, p_l).data
        want_r = multi_head(x_r, x_r, x_r, p_r).data
        worst = max(
            worst,
            np.abs(y_l.data - want_l).max(),
            np.abs(y_r.data - want_r).max(),
        )
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, worst
    assert elapsed < 10.0, elapsed
    _report(1, "degradation to two self-attentions", f"(max diff {worst:.2e}, {elapsed:.1f}s)")


def test_acceptance_2_nonlocal_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n_q, n_k, d = (int(v) for v in rng.integers(2, 7, size=3))
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(n_k, d))
        v = rng.normal(size=(n_k, d))
        head = AttentionHeadParams(
            w_q=T.Tensor(rng.normal(size=(d, d))),
            w_k=T.Tensor(rng.normal(size=(d, d))),
            w_v=T.Tensor(rng.normal(size=(d, d))),
        )
        wq_scaled = head.w_q.data / np.sqrt(d)
        f = lambda qi, kj: float(np.exp((qi @ wq_scaled) @ (kj @ head.w_k.data)))
        want = nonlocal_op(
            q, k, v, f, lambda vj: vj @ head.w_v.data,
            lambda qi, kk: sum(f(qi, kj) for kj in kk),
        )
        got = scaled_dot_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), head).data
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10, worst
    _report(2, "scaled attention equals double-loop non-local oracle", f"(max diff {worst:.2e})")


def test_acceptance_3_row_space_property():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        n_q, n_k, d = (int(v) for v in rng.integers(2, 7, size=3))
        head = AttentionHeadParams(
            w_q=T.Tensor(rng.normal(size=(d, d))),
            w_k=T.Tensor(rng.normal(size=(d, d))),
            w_v=T.Tensor(np.eye(d)),
        )
        q = rng.normal(size=(n_q, d))
        k = rng.normal(size=(n_k, d))
        v = rng.normal(size=(n_k, d))
        out = scaled_dot_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), head).data
        basis = np.linalg.svd(v, full_matrices=False)[2]
        residual = np.abs(out - (out @ basis.T) @ basis).max()
        worst = max(worst, residual)
    assert worst < 1e-8, worst
    _report(3, "outputs lie in the value row space", f"(max residual {worst:.2e})")


def test_acceptance_4_full_model_gradient_check():
    cfg = ModelConfig(
        arch="thm", d_model=8, n_heads=2, n_blocks=1, d_ff=32, vocab_size=16,
        dropout_p=0.0, swap_prob=0.0, max_len=16, label_smoothing=0.1,
    )
    rng = Rng(7)
    model = build_model(cfg, rng, dtype=np.float64)
    corpus = gen_synthetic("copy", 12, 2, (3, 5), rng.fork("data"))
    bpe = learn_bpe(corpus.lines(), 16)
    batch = make_batches(corpus, bpe, 64, rng.fork("batch"))[0]
    assert batch.src.shape[0] == 2
    start = time.perf_counter()
    report = finite_diff_check(
        lambda: model.loss_on_batch(batch), model.params
    )
    elapsed = time.perf_counter() - start
    assert report.max_rel_error < 1e-4, report.worst()
    assert elapsed < 120.0, elapsed
    _report(
        4,
        "full-model finite-difference gradient check",
        f"({report.checked_entries} entries, max rel {report.max_rel_error:.2e}, {elapsed:.0f}s)",
    )


def test_acceptance_5_causality_bit_exact():
    rng = np.random.default_rng(105)
    trials = 0
    for model_seed in (1, 2, 3, 4, 5):
        cfg = ModelConfig(
            arch="thm", d_model=16, n_heads=2, n_blocks=2, d_ff=32, vocab_size=20,
            dropout_p=0.0, swap_prob=0.0, max_len=32, label_smoothing=0.1,
        )
        model = build_model(cfg, Rng(model_seed), dtype=np.float64)
        src = rng.integers(4, 20, size=(1, 5))
        src[0, -1] = 2
        with T.no_grad():
            memory = model.encode(src, src)
            tgt = np.concatenate([[1], rng.integers(4, 20, size=7)])[None, :]
            base = model.decode(memory, tgt).data.copy()
            for _ in range(10):
                i = int(rng.integers(0, 7))
                perturbed = tgt.copy()
                perturbed[0, i + 1 :] = rng.integers(4, 20, size=7 - i)
                out = model.decode(memory, perturbed).data
                assert np.array_equal(out[0, : i + 1], base[0, : i + 1])
                trials += 1
    assert trials == 50
    _report(5, "decoder causality bit-exact", f"({trials} trials)")


def test_acceptance_6_parameter_count_ratio():
    start = time.perf_counter()
    vocab = 33712
    base_m, _ = count_parameters(replace(preset("thm-base"), vocab_size=vocab))
    base_t, _ = count_parameters(replace(preset("transformer-base"), vocab_size=vocab))
    big_m, _ = count_parameters(replace(preset("thm-big"), vocab_size=vocab))
    big_t, _ = count_parameters(replace(preset("transformer-big"), vocab_size=vocab))
    elapsed = time.perf_counter() - start
    assert 1.80 <= base_m / base_t <= 2.05
    assert 1.80 <= big_m / big_t <= 2.05
    assert elapsed < 1.0
    _report(
        6,
        "parameter-count ratios in band",
        f"(base {base_m / base_t:.3f}, big {big_m / big_t:.3f})",
    )


def _train_until_converged(preset_name: str, seed: int):
    rng = Rng(seed)
    train = gen_synthetic("copy", 20, 2000, (3, 12), rng.fork("train"))
    dev = gen_synthetic("copy", 20, 100, (3, 12), rng.fork("dev"))
    bpe = learn_bpe(train.lines(), 28)
    cfg = replace(preset(preset_name), vocab_size=bpe.vocab_size)
    model = build_model(cfg, Rng(seed))
    state = TrainState.for_model(model)
    hp = TrainParams(warmup=400, batch_tokens=512)
    dev_batches = make_batches(dev, bpe, 2048, Rng(seed).fork("dev"), swap_prob=0.0)
    swap = cfg.swap_prob if cfg.arch == "thm" else 0.0
    start = time.perf_counter()
    for epoch in range(1, 31):
        erng = Rng(seed).fork(("epoch", epoch))
        batches = make_batches(train, bpe, hp.batch_tokens, erng.fork("batches"), swap_prob=swap)
        drng = erng.fork("dropout")
        for b in batches:
            train_step(model, b, state, hp, drng)
        acc = token_accuracy(model, dev_batches)
        if acc >= 0.99:
            bleu = evaluate_bleu(model, dev, bpe, 30)
            if bleu >= 95.0:
                return epoch, acc, bleu, time.perf_counter() - start
    return None, acc, 0.0, time.perf_counter() - start


def test_acceptance_7_toy_copy_convergence():
    for preset_name in ("tiny", "transformer-tiny"):
        for seed in (1, 2, 3):
            epoch, acc, bleu, elapsed = _train_until_converged(preset_name, seed)
            assert epoch is not None and epoch <= 30, (preset_name, seed, acc)
            assert acc >= 0.99 and bleu >= 95.0, (preset_name, seed, acc, bleu)
            assert elapsed <= 600.0, (preset_name, seed, elapsed)
            print(
                f"  convergence {preset_name} seed={seed}: epoch {epoch}, "
                f"acc {acc:.4f}, dev BLEU {bleu:.2f}, {elapsed:.0f}s",
                flush=True,
            )
    _report(7, "toy copy-task convergence, both architectures, 3 seeds")


def test_acceptance_8_corruption_statistics():
    rng = Rng(81)
    fired = 0
    n = 10_000
    for trial in range(n):
        base = list(4 + Rng(trial).permutation(6))  # all distinct, no specials
        out = token_swap_corrupt(base, 0.5, rng)
        assert sorted(out) == sorted(base)
        diff = sum(a != b for a, b in zip(base, out))
        assert diff in (0, 2)
        fired += diff == 2
    rate = fired / n
    assert 0.48 <= rate <= 0.52, rate
    _report(8, "token-swap corruption statistics", f"(fire rate {rate:.4f})")


def test_acceptance_9_bleu_brute_force_oracle():
    rng = Rng(91)
    worst = 0.0
    for trial in range(20):
        vocab = [f"w{i}" for i in range(5 + trial % 3)]
        hyps, refs = [], []
        for _ in range(3 + trial % 5):
            hyps.append(" ".join(vocab[rng.integer(len(vocab))] for _ in range(4 + rng.integer(8))))
            refs.append(" ".join(vocab[rng.integer(len(vocab))] for _ in range(4 + rng.integer(8))))
        worst = max(worst, abs(corpus_bleu(hyps, refs) - bleu_oracle(hyps, refs)))
        assert corpus_bleu(hyps, hyps) == 100.0
    assert worst < 1e-9, worst
    _report(9, "corpus BLEU matches brute-force oracle", f"(max diff {worst:.1e})")


def test_acceptance_10_topk_selection_truth_tables():
    def rec(dev, test):
        r = RunRecord()
        for e, (d, t) in enumerate(zip(dev, test), start=1):
            r.add(e, 1.0, 1.0, float(d), float(t))
        return r

    # (dev, test, k, expected) including every tie family
    cases = [
        ([1, 2, 3], [1, 2, 3], 1, True),          # aligned rankings
        ([3, 1, 2], [1, 3, 2], 1, False),         # misaligned, k too small
        ([3, 1, 2], [1, 3, 2], 3, True),          # k covers the field
        ([5, 5, 1], [9, 1, 5], 1, True),          # dev tie -> earliest epoch wins
        ([5, 5, 1], [1, 9, 5], 1, False),         # earliest-tie rule costs the win
        ([2, 2, 2], [7, 7, 7], 1, True),          # full test tie shares rank 1
        ([1, 9], [4, 4], 1, True),                # pairwise test tie
        ([9, 1], [3, 8], 2, True),                # rank 2 at k=2
        ([9, 1], [3, 8], 1, False),               # rank 2 at k=1
        ([1, 2, 3, 4], [9, 8, 8, 7], 2, False),   # tied middle shares rank 2, pick is rank 4
    ]
    for dev, test, k, want in cases:
        assert topk_selection(rec(dev, test), k) is want, (dev, test, k)
    _report(10, "top-k selection truth tables", f"({len(cases)} crafted records)")


def test_acceptance_11_resume_equivalence(tmp_path):
    rng = Rng(111)
    train = gen_synthetic("copy", 10, 48, (2, 5), rng.fork("tr"))
    dev = gen_synthetic("copy", 10, 8, (2, 5), rng.fork("de"))
    test = gen_synthetic("copy", 10, 8, (2, 5), rng.fork("te"))
    bpe = learn_bpe(train.lines(), 16)
    data = DataBundle(train, dev, test, bpe)
    cfg = ModelConfig(
        arch="thm", d_model=16, n_heads=2, n_blocks=1, d_ff=32,
        vocab_size=bpe.vocab_size, dropout_p=0.1, swap_prob=0.5, max_len=32,
        label_smoothing=0.1,
    )
    hp = TrainParams(warmup=50, batch_tokens=128)
    full = tmp_path / "full"
    run_experiment(cfg, data, epochs=5, out_dir=full, seed=13, hp=hp)
    want = (full / "loss.log").read_text()
    for stop in (1, 3, 4):
        part = tmp_path / f"stop{stop}"
        run_experiment(cfg, data, epochs=stop, out_dir=part, seed=13, hp=hp)
        run_experiment(cfg, data, epochs=5, out_dir=part, seed=13, hp=hp, resume=True)
        assert (part / "loss.log").read_text() == want, stop
    _report(11, "resume reproduces the loss log bit-for-bit", "(interrupts at 1, 3, 4)")
