"""Print digests of the numbers a ccn checkout computes, to check that a
refactor is bit-identical to the commit before it.

    PYTHONPATH=OLD/src python tools/fingerprint.py OLD_OUT --load OLD_OUT > old.txt
    PYTHONPATH=NEW/src python tools/fingerprint.py NEW_OUT --load OLD_OUT > new.txt
    diff old.txt new.txt

Its first line names the BLAS thread variables and the CPU count: GEMMs at
2048-token batches round differently at 1 and 2 OpenBLAS threads, so
compare only outputs printed under the same setting.

For THM and the transformer at 0, 1 and 2 blocks, in float32 and float64,
with dropout 0.1, token swap 0.5 and label smoothing 0.1, it prints the
digest of: the initial parameters; the fresh model's decodes (as below)
and eval-mode losses on the 4 batches, so that a forward pass is compared
apart from training; the losses of 4 train steps; the
parameters, gradients and Adam moments after them; greedy and beam-3
decodes; cached-step and full-recompute log-probabilities; the
``translate_corpus`` output of 12 sentences, greedy and beam 3, at the
default decode budget and at one sentence per batch, which must be equal;
and the bytes of the checkpoint it writes to OUT/ckpt. With --load DIR it
also decodes with every checkpoint DIR/ckpt holds. It prints the digest of
dropout masks drawn by ``Rng.uniform_at_least`` at sizes around, at and
over the 2**15 draws it mixes per block, and of the draws that follow
them, which pin the counter. It prints the digest of the merges and
tokens ``learn_bpe`` learns from the benchmark's 700-type reverse corpus
(about 650 merges) and from a corpus of overlapping repeats such as
``aaaa`` and ``abab``, and of the reverse corpus itself. Last, it runs 3 epochs of run_experiment
on acceptance 7's copy-task data and prints the digest of the loss.log,
then runs 2 epochs into another directory, resumes that run to 3, and
prints the digest of its loss.log, which matches the first when resume is
bit-exact. Every digest covers dtypes, shapes and raw bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from ccn import evaluation
from ccn.bpe import learn_bpe
from ccn.checkpoint import model_from_checkpoint, save_model
from ccn.data import gen_synthetic, make_batches
from ccn.evaluation import beam_decode_batch, translate_corpus
from ccn.model import ModelConfig, build_model, preset
from ccn.rng import Rng
from ccn.tensor import no_grad
from ccn.training import DataBundle, TrainParams, TrainState, run_experiment, train_step

SOURCES = [[5, 6, 7, 8, 2], [9, 2], [10, 11, 12, 2]]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def decode_digests(model) -> dict[str, str]:
    ids = np.array([[5, 6, 7, 8, 2]])
    tokens = np.array([1, 5, 6, 7, 8])
    with no_grad():
        memory = model.encode(*[ids] * len(model.branches))
        full = model.decode(memory, tokens[None, :]).data
        state = model.start_decode(SOURCES)
        steps = [model.step_logprobs(state, [t] * len(SOURCES)) for t in tokens]
    return {
        "decode_logits": digest(full),
        "step_logprobs": digest(*steps),
        "greedy": repr(beam_decode_batch(model, SOURCES, 1, 8)),
        "beam3": repr(beam_decode_batch(model, SOURCES, 3, 8)),
    }


def corpus_digests(model, bpe, sentences) -> dict[str, str]:
    """translate_corpus at the default decode budget, then at one sentence per batch."""
    out, budget = {}, evaluation.DECODE_BYTES
    for key, beam in (("greedy", 1), ("beam3", 3)):
        default = text_digest(translate_corpus(model, bpe, sentences, 12, beam))
        evaluation.DECODE_BYTES = 1
        try:
            single = text_digest(translate_corpus(model, bpe, sentences, 12, beam))
        finally:
            evaluation.DECODE_BYTES = budget
        out[key] = f"{default} one per batch {single}"
    return out


def model_digests(out: Path, others: Path | None):
    corpus = gen_synthetic("copy", 12, 24, (2, 6), Rng(0))
    bpe = learn_bpe(corpus.lines(), 16)
    hp = TrainParams(warmup=20, batch_tokens=64)
    for arch in ("thm", "transformer"):
        for n_blocks in (0, 1, 2):
            for dtype in (np.float32, np.float64):
                name = f"{arch}-{n_blocks}-{np.dtype(dtype).name}"
                cfg = ModelConfig(
                    arch=arch, d_model=16, n_heads=2, n_blocks=n_blocks, d_ff=32,
                    vocab_size=bpe.vocab_size, dropout_p=0.1, swap_prob=0.5, max_len=32,
                    label_smoothing=0.1,
                )
                model = build_model(cfg, Rng(3), dtype=dtype)
                params = model.params.values()
                print(name, "init", digest(*[p.data for p in params]))
                batches = make_batches(corpus, bpe, hp.batch_tokens, Rng(4), swap_prob=0.5)
                for key, value in decode_digests(model).items():
                    print(name, "fresh", key, value)
                with no_grad():
                    eval_losses = [float(model.loss_on_batch(b).data) for b in batches[:4]]
                print(name, "fresh eval_losses", repr(eval_losses))
                state = TrainState.for_model(model)
                losses = [train_step(model, b, state, hp, Rng(5).fork(i)) for i, b in enumerate(batches[:4])]
                print(name, "losses", repr(losses))
                print(name, "params", digest(*[p.data for p in params]))
                print(name, "grads", digest(*[p.grad for p in params]))
                print(name, "moments", digest(*state.m.values(), *state.v.values()))
                for key, value in decode_digests(model).items():
                    print(name, key, value)
                for key, value in corpus_digests(model, bpe, corpus.sources()[:12]).items():
                    print(name, "translate", key, value)
                ckpt = out / "ckpt" / f"{name}.ckpt"
                save_model(ckpt, model, step=state.step)
                print(name, "checkpoint", digest(np.frombuffer(ckpt.read_bytes(), dtype=np.uint8)))
    if others is not None:
        for path in sorted((others / "ckpt").glob("*.ckpt")):
            loaded, step = model_from_checkpoint(path)
            for key, value in decode_digests(loaded).items():
                print("load", path.stem, step, key, value)


def mask_digests():
    block = 1 << 15
    for shape in [(7,), (block - 1,), (block,), (block + 1,), (3, 2, block // 2 + 7), (2, 2048, 256)]:
        for p in (0.1, 0.5):
            rng = Rng(6).fork(shape)
            masks = [rng.uniform_at_least(shape, p) for _ in range(2)]
            print("mask", shape, p, digest(*masks), "then", digest(rng.uniform((3,))))


def text_digest(lines) -> str:
    return digest(np.frombuffer("\n".join(lines).encode(), dtype=np.uint8))


def bpe_digests():
    # perfbench's train-w256 corpus at seed 1, and words drawn from "aab"
    reverse = list(gen_synthetic("reverse", 700, 195, (8, 16), Rng(1).fork("train")).lines())
    rng = Rng(7)
    repeats = [" ".join("".join("aab"[i] for i in rng.integers(3, (1 + rng.integer(12),)).tolist())
                        for _ in range(5)) for _ in range(80)]
    print("synth reverse-700", text_digest(reverse))
    for name, lines, vocab_size in (("reverse-700", reverse, 730), ("repeats", repeats, 1000)):
        bpe = learn_bpe(lines, vocab_size)
        merges = [f"{a} {b}" for a, b in bpe.merges]
        print("bpe", name, len(bpe.merges), "merges", text_digest(merges), "tokens", text_digest(bpe.id_to_token))


def run_digest(out: Path):
    """3 epochs of run_experiment on acceptance 7's data (tiny THM, seed 1),
    straight through and resumed after 2."""
    rng = Rng(1)
    train = gen_synthetic("copy", 20, 2000, (3, 12), rng.fork("train"))
    dev = gen_synthetic("copy", 20, 100, (3, 12), rng.fork("dev"))
    test = gen_synthetic("copy", 20, 100, (3, 12), rng.fork("test"))
    bpe = learn_bpe(train.lines(), 28)
    cfg = replace(preset("tiny"), vocab_size=bpe.vocab_size)
    hp = TrainParams(warmup=400, batch_tokens=512)
    data = DataBundle(train, dev, test, bpe)
    run_experiment(cfg, data, epochs=3, out_dir=out / "run", seed=1, hp=hp)
    log = (out / "run" / "loss.log").read_bytes()
    print("run loss.log", digest(np.frombuffer(log, dtype=np.uint8)))
    print(log.decode(), end="")
    run_experiment(cfg, data, epochs=2, out_dir=out / "resumed", seed=1, hp=hp)
    run_experiment(cfg, data, epochs=3, out_dir=out / "resumed", seed=1, hp=hp, resume=True)
    log = (out / "resumed" / "loss.log").read_bytes()
    print("resumed loss.log", digest(np.frombuffer(log, dtype=np.uint8)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="directory for the checkpoints and the run")
    ap.add_argument("--load", type=Path, help="a directory an earlier run wrote; decode its checkpoints")
    args = ap.parse_args()
    print("threads", {var: os.environ.get(var) for var in THREAD_VARS}, "cpu_count", os.cpu_count())
    (args.out / "ckpt").mkdir(parents=True, exist_ok=True)
    model_digests(args.out, args.load)
    mask_digests()
    bpe_digests()
    run_digest(args.out)


if __name__ == "__main__":
    main()
