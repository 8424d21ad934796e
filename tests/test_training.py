"""Schedule, optimizer loop, run records, selection metrics, resume."""

import ctypes
import shutil
import tracemalloc
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from ccn import errors, kernels
from ccn.bpe import learn_bpe
from ccn.checkpoint import model_from_checkpoint, save_model
from ccn.data import gen_synthetic, make_batches
from ccn.errors import DataError, DivergenceError
from ccn.model import ModelConfig, build_model, preset
from ccn.rng import Rng
from ccn.training import (
    DataBundle,
    RunRecord,
    TrainParams,
    TrainState,
    lr_at,
    run_experiment,
    select_best,
    topk_selection,
    train_step,
)
from oracles import FailingArray, adam_reference

SMALL = ModelConfig(
    arch="thm", d_model=16, n_heads=2, n_blocks=1, d_ff=32, vocab_size=16,
    dropout_p=0.1, swap_prob=0.5, max_len=32, label_smoothing=0.1,
)


def _toy(n_pairs=24, seed=0, vocab=12):
    corpus = gen_synthetic("copy", vocab, n_pairs, (2, 5), Rng(seed))
    bpe = learn_bpe(corpus.lines(), 16)
    return corpus, bpe


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_increases_through_warmup():
    values = [lr_at(s, 512, 4000) for s in range(1, 4000, 97)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_lr_decreases_after_warmup():
    values = [lr_at(s, 512, 4000) for s in range(4000, 20000, 371)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lr_reference_value_at_warmup():
    want = 512**-0.5 * 4000**-0.5  # 6.9877e-4 evaluated in full precision
    assert abs(lr_at(4000, 512, 4000) - want) < 1e-18
    assert abs(want - 6.9877e-4) < 1e-7


def test_lr_continuous_at_warmup_boundary():
    # the two min() branches agree at step == warmup (to roundoff; exactly
    # when warmup is a power of four so the square root is a power of two)
    for w in (4000, 1000, 300):
        left, right = w**-0.5, w * w**-1.5
        assert abs(left - right) <= 1e-15 * left
    assert 4096**-0.5 == 4096 * 4096**-1.5
    assert lr_at(4096, 512, 4096) == 512**-0.5 * 4096**-0.5


def test_lr_rejects_step_zero():
    with pytest.raises(ValueError):
        lr_at(0, 512, 4000)


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


def test_first_step_loss_under_uniform_ceiling():
    corpus, bpe = _toy()
    cfg = replace(SMALL, vocab_size=bpe.vocab_size)
    model = build_model(cfg, Rng(1))
    state = TrainState.for_model(model)
    batch = make_batches(corpus, bpe, 512, Rng(2), swap_prob=0.5)[0]
    loss = train_step(model, batch, state, TrainParams(warmup=100), Rng(3))
    # smoothed CE at init sits near ln(V); logits start at unit scale
    assert loss < np.log(cfg.vocab_size) + 1.0
    assert state.step == 1


def test_two_runs_same_seed_identical_loss_sequences():
    def run():
        corpus, bpe = _toy(seed=4)
        cfg = replace(SMALL, vocab_size=bpe.vocab_size)
        model = build_model(cfg, Rng(5))
        state = TrainState.for_model(model)
        hp = TrainParams(warmup=100)
        losses = []
        for epoch in range(2):
            drng = Rng(6).fork(("drop", epoch))
            for b in make_batches(corpus, bpe, 256, Rng(7).fork(epoch), swap_prob=0.5):
                losses.append(train_step(model, b, state, hp, drng))
        return losses

    a, b = run(), run()
    assert a == b  # bit-identical floats


def test_loss_halves_within_200_steps_on_copy_task():
    corpus, bpe = _toy(n_pairs=200, seed=8)
    cfg = replace(SMALL, vocab_size=bpe.vocab_size, dropout_p=0.0)
    model = build_model(cfg, Rng(9))
    state = TrainState.for_model(model)
    hp = TrainParams(warmup=100, batch_tokens=512)
    first = None
    for epoch in range(200):
        drng = Rng(10).fork(epoch)
        for b in make_batches(corpus, bpe, 512, Rng(11).fork(epoch), swap_prob=0.5):
            loss = train_step(model, b, state, hp, drng)
            if first is None:
                first = loss
            if state.step >= 200:
                break
        if state.step >= 200:
            break
    assert loss <= 0.5 * first, (first, loss)


def test_divergence_error_reports_step():
    corpus, bpe = _toy(seed=12)
    cfg = replace(SMALL, vocab_size=bpe.vocab_size)
    model = build_model(cfg, Rng(13))
    for p in model.params.values():
        p.data[:] = np.inf
    state = TrainState.for_model(model)
    batch = make_batches(corpus, bpe, 512, Rng(14))[0]
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        train_step(model, batch, state, TrainParams(), Rng(15))
    assert err.value.step == 1


def test_gradient_accumulation_combines_micro_batches():
    # one accumulated step over [b0, b1] equals a manual adam step on the
    # mean of the two batch gradients
    corpus, bpe = _toy(n_pairs=16, seed=16)
    cfg = replace(SMALL, vocab_size=bpe.vocab_size, dropout_p=0.0, swap_prob=0.0)
    batches = make_batches(corpus, bpe, 128, Rng(17), shuffle=False)
    assert len(batches) >= 2
    m1 = build_model(cfg, Rng(18))
    s1 = TrainState.for_model(m1)
    train_step(m1, batches[:2], s1, TrainParams(warmup=100), Rng(19))
    assert s1.step == 1

    m2 = build_model(cfg, Rng(18))
    m2.zero_grads()
    for b in batches[:2]:
        m2.loss_on_batch(b, rng=Rng(19)).backward()
    from ccn import kernels

    s2 = TrainState.for_model(m2)
    for n, p in m2.params.items():
        kernels.adam_update(
            p.data, p.grad / 2.0, s2.m[n], s2.v[n], lr_at(1, cfg.d_model, 100), 0.9, 0.98, 1e-9, 1
        )
    for n in m1.params:
        assert np.array_equal(m1.params[n].data, m2.params[n].data), n


@pytest.mark.parametrize("accum", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_step_matches_a_per_parameter_adam_loop(dtype, accum):
    # the old optimizer: the one-shot Adam per parameter name, on the mean gradient
    corpus, bpe = _toy(n_pairs=16, seed=20)
    cfg = replace(SMALL, vocab_size=bpe.vocab_size)
    batches = make_batches(corpus, bpe, 128, Rng(21), swap_prob=0.5, shuffle=False)[:accum]
    assert len(batches) == accum
    hp = TrainParams(warmup=10)
    m1 = build_model(cfg, Rng(22), dtype=dtype)
    s1 = TrainState.for_model(m1)
    m2 = build_model(cfg, Rng(22), dtype=dtype)
    moments = [{n: np.zeros_like(p.data) for n, p in m2.params.items()} for _ in "mv"]
    for step in (1, 2):
        loss = train_step(m1, batches if accum > 1 else batches[0], s1, hp, Rng(23).fork(step))
        m2.zero_grads()
        rng = Rng(23).fork(step)
        for b in batches:
            m2.loss_on_batch(b, rng=rng).backward()
        lr = lr_at(step, cfg.d_model, hp.warmup)
        for n, p in m2.params.items():
            g = p.grad if accum == 1 else p.grad * (1.0 / accum)
            adam_reference(
                p.data, g, moments[0][n], moments[1][n], lr, hp.beta1, hp.beta2, hp.eps, step
            )
        assert np.isfinite(loss)
        for n, p in m1.params.items():
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, m2.params[n].data), (step, n)
            assert np.array_equal(s1.m[n], moments[0][n]), n
            assert np.array_equal(s1.v[n], moments[1][n]), n


def test_a_tiny_thm_train_step_makes_one_adam_call(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "adam_update", lambda *a: calls.append(a[0].shape))
    corpus, bpe = _toy(seed=24)
    model = build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(25))
    batch = make_batches(corpus, bpe, 512, Rng(26))[0]
    train_step(model, batch, TrainState.for_model(model), TrainParams(), Rng(27))
    assert calls == [(model.param_count(),)]


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_a_warm_width_128_thm_train_step_faults_in_no_fresh_heap():
    # glibc's default trims the heap after each backward pass, and the next
    # forward pass faults it back in page by page (about 6000 faults here)
    import resource

    corpus = gen_synthetic("reverse", 60, 200, (6, 12), Rng(1))
    bpe = learn_bpe(corpus.lines(), 64)
    batch = max(make_batches(corpus, bpe, 512, Rng(2), swap_prob=0.5), key=lambda b: b.n_tokens)
    cfg = ModelConfig(arch="thm", d_model=128, n_heads=4, n_blocks=1, d_ff=512,
                      vocab_size=bpe.vocab_size, max_len=64, swap_prob=0.5)
    model = build_model(cfg, Rng(3))
    state, hp = TrainState.for_model(model), TrainParams(batch_tokens=512)
    for i in range(2):
        train_step(model, batch, state, hp, Rng(4).fork(i))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_step(model, batch, state, hp, Rng(4).fork(2))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def _trained_state(tmp_path):
    """A model and its arena-backed state after one step, the model saved to
    tmp_path/m.ckpt; a copy of the state in plain per-name arrays; and a
    batch for the next step."""
    corpus, bpe = _toy(seed=28)
    model = build_model(replace(SMALL, vocab_size=bpe.vocab_size), Rng(29))
    batch = make_batches(corpus, bpe, 512, Rng(30))[0]
    state = TrainState.for_model(model)
    train_step(model, batch, state, TrainParams(warmup=10), Rng(31))
    state.epoch, state.best_dev_bleu = 1, 4.5
    save_model(tmp_path / "m.ckpt", model, step=state.step)
    plain = replace(
        state, m={n: a.copy() for n, a in state.m.items()}, v={n: a.copy() for n, a in state.v.items()}
    )
    return model, state, plain, batch


def test_a_state_file_of_plain_arrays_resumes_into_the_arenas_bit_exactly(tmp_path):
    model, state, plain, batch = _trained_state(tmp_path)
    path = tmp_path / "plain.state.npz"
    plain.save(path)
    resumed, _ = model_from_checkpoint(tmp_path / "m.ckpt")
    rstate = TrainState.load(path, resumed)
    assert (rstate.step, rstate.epoch, rstate.best_dev_bleu) == (1, 1, 4.5)
    for n in state.m:
        assert np.shares_memory(rstate.m[n], rstate.m_arena), n
        assert np.shares_memory(rstate.v[n], rstate.v_arena), n
    assert np.array_equal(rstate.m_arena, state.m_arena) and np.array_equal(rstate.v_arena, state.v_arena)
    hp = TrainParams(warmup=10)
    assert train_step(model, batch, state, hp, Rng(32)) == train_step(resumed, batch, rstate, hp, Rng(32))
    assert np.array_equal(model.param_arena, resumed.param_arena)
    assert np.array_equal(state.m_arena, rstate.m_arena) and np.array_equal(state.v_arena, rstate.v_arena)


def test_an_arena_state_file_holds_the_per_name_arrays(tmp_path):
    _, state, plain, _ = _trained_state(tmp_path)
    state.save(tmp_path / "arena.npz")
    plain.save(tmp_path / "plain.npz")
    with zipfile.ZipFile(tmp_path / "arena.npz") as za, zipfile.ZipFile(tmp_path / "plain.npz") as zp:
        assert za.namelist() == zp.namelist()
        assert za.namelist()[: len(state.m)] == [f"m/{n}.npy" for n in state.m]
        for name in za.namelist():
            assert za.read(name) == zp.read(name), name


def test_loading_a_state_holds_one_stored_moment_at_a_time(tmp_path):
    """The load reads each stored moment into its arena view and drops it,
    so its traced peak stays near the two arenas it fills (2x the parameter
    bytes); reading every moment first and copying after peaks above 4x."""
    model = build_model(preset("tiny"), Rng(33))
    state = TrainState.for_model(model)
    state.m_arena[:] = np.random.default_rng(34).standard_normal(state.m_arena.size)
    state.v_arena[:] = np.random.default_rng(35).random(state.v_arena.size)
    state.step, state.epoch = 7, 2
    path = tmp_path / "tiny.state.npz"
    state.save(path)
    tracemalloc.start()
    try:
        loaded = TrainState.load(path, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * model.param_arena.nbytes, peak / model.param_arena.nbytes
    assert np.array_equal(loaded.m_arena, state.m_arena) and np.array_equal(loaded.v_arena, state.v_arena)
    assert (loaded.step, loaded.epoch) == (7, 2)


# ---------------------------------------------------------------------------
# records, selection
# ---------------------------------------------------------------------------


def _record(dev, test=None):
    rec = RunRecord()
    test = test or dev
    for e, (d, t) in enumerate(zip(dev, test), start=1):
        rec.add(e, 1.0, 1.0, d, t)
    return rec


def test_select_best_argmax_and_ties():
    assert select_best(_record([1.0, 2.0, 3.0])) == 3
    assert select_best(_record([2.0, 2.0])) == 1
    assert select_best(_record([5.0])) == 1


def test_select_best_empty_is_error():
    with pytest.raises(DataError):
        select_best(RunRecord())


def test_select_best_invariant_under_monotone_transform():
    rng = Rng(20)
    for _ in range(10):
        dev = [float(rng.uniform() * 40) for _ in range(6)]
        rec = _record(dev)
        warped = _record([2.0 * d + 1.0 for d in dev])
        assert select_best(rec) == select_best(warped)


def test_topk_selection_truth_tables():
    aligned = _record([1, 2, 3], [1, 2, 3])
    assert topk_selection(aligned, 1)
    scrambled = _record([3, 1, 2], [1, 3, 2])
    assert not topk_selection(scrambled, 1)
    assert not topk_selection(scrambled, 2)
    assert topk_selection(scrambled, 3)
    ties = _record([1, 5, 2], [7, 7, 7])
    for k in (1, 2, 3):
        assert topk_selection(ties, k)


def test_topk_rejects_bad_k():
    with pytest.raises(ValueError):
        topk_selection(_record([1.0]), 0)


def test_run_record_log_round_trip():
    rec = _record([1.25, 3.5, 2.0], [0.5, 1.0, 9.0])
    text = rec.to_log()
    assert len(text.splitlines()) == 3
    back = RunRecord.from_log(text)
    assert back.rows == rec.rows


@pytest.mark.parametrize(
    "row, why",
    [("2 abc 2 3 4", "could not convert"), ("2 1 2", "expected 5, got 3"), ("3 1 2 3 4", "contiguous")],
)
def test_a_malformed_log_row_raises_data_error_naming_file_and_line(row, why):
    text = f"1 1 1 1 1\n\n{row}\n"
    with pytest.raises(DataError, match=f"^runs/loss.log: line 3: .*{why}"):
        RunRecord.from_log(text, "runs/loss.log")
    with pytest.raises(DataError, match=f"^line 3: .*{why}"):
        RunRecord.from_log(text)


def test_run_record_requires_contiguous_epochs():
    rec = RunRecord()
    rec.add(1, 1, 1, 1, 1)
    with pytest.raises(DataError):
        rec.add(3, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# run_experiment and resume equivalence
# ---------------------------------------------------------------------------


def _bundle(seed=21):
    train = gen_synthetic("copy", 10, 40, (2, 5), Rng(seed).fork("tr"))
    dev = gen_synthetic("copy", 10, 8, (2, 5), Rng(seed).fork("de"))
    test = gen_synthetic("copy", 10, 8, (2, 5), Rng(seed).fork("te"))
    bpe = learn_bpe(train.lines(), 16)
    return DataBundle(train, dev, test, bpe)


def test_run_experiment_writes_checkpoints_and_log(tmp_path):
    data = _bundle()
    cfg = replace(SMALL, vocab_size=data.bpe.vocab_size)
    records = run_experiment(
        cfg, data, epochs=1, out_dir=tmp_path, seed=3, hp=TrainParams(warmup=50, batch_tokens=128)
    )
    assert len(records.rows) == 1
    assert (tmp_path / "epoch001.ckpt").exists()
    assert (tmp_path / "epoch001.state.npz").exists()
    log = (tmp_path / "loss.log").read_text().splitlines()
    assert len(log) == 1 and log[0].startswith("1 ")
    assert len(log[0].split()) == 5


def test_resume_equivalence_bitwise(tmp_path):
    data = _bundle(seed=22)
    cfg = replace(SMALL, vocab_size=data.bpe.vocab_size)
    hp = TrainParams(warmup=50, batch_tokens=128)

    full_dir = tmp_path / "full"
    run_experiment(cfg, data, epochs=4, out_dir=full_dir, seed=9, hp=hp)
    full_log = (full_dir / "loss.log").read_text()

    for stop in (1, 2, 3):
        part_dir = tmp_path / f"resume{stop}"
        run_experiment(cfg, data, epochs=stop, out_dir=part_dir, seed=9, hp=hp)
        run_experiment(cfg, data, epochs=4, out_dir=part_dir, seed=9, hp=hp, resume=True)
        assert (part_dir / "loss.log").read_text() == full_log, f"stop={stop}"


class _OneParam:
    """A stand-in model with one (2, 3) float32 parameter ``w``."""

    param_arena = np.zeros(6, dtype=np.float32)

    @staticmethod
    def arena_views(flat):
        return {"w": flat.reshape(2, 3)}


def _w_state():
    """A state of one (2, 3) parameter ``w``, its moments all ones and twos."""
    state = TrainState.for_model(_OneParam())
    state.step, state.epoch, state.best_dev_bleu = 3, 1, 2.5
    state.m_arena[:], state.v_arena[:] = 1, 2
    return state


@pytest.mark.parametrize("mask", [0xFF, 0x01])
def test_state_file_with_any_byte_flipped_loads_or_raises_data_error(tmp_path, mask):
    """zipfile raises NotImplementedError, OSError or RuntimeError on some
    corrupt headers; TrainState.load reports each as a DataError naming the file."""
    path = tmp_path / "epoch001.state.npz"
    _w_state().save(path)
    blob = path.read_bytes()
    loaded = 0
    for i in range(len(blob)):
        path.write_bytes(blob[:i] + bytes([blob[i] ^ mask]) + blob[i + 1 :])
        try:
            TrainState.load(path, _OneParam())
            loaded += 1
        except DataError as exc:
            assert str(path) in str(exc)
    assert 0 < loaded < len(blob)


def test_state_write_failing_midway_leaves_the_previous_file(tmp_path):
    path = tmp_path / "epoch001.state.npz"
    state = _w_state()
    state.save(path)
    blob = path.read_bytes()
    failing = FailingArray(tmp_path)
    with pytest.raises(OSError, match="No space left"):
        replace(state, step=4, epoch=2, m={**state.m, "x": failing}).save(path)
    assert len(failing.seen) == 2  # the state file and a temporary file beside it
    assert path.read_bytes() == blob
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_loss_log_rewrite_failing_midway_leaves_the_old_log(tmp_path, monkeypatch):
    """Resume rewrites loss.log without the rows past its last saved epoch;
    a write that fails halfway leaves the old log and no temporary file."""
    data = _bundle(seed=23)
    cfg = replace(SMALL, vocab_size=data.bpe.vocab_size)
    hp = TrainParams(warmup=50, batch_tokens=128)
    run_experiment(cfg, data, epochs=2, out_dir=tmp_path, seed=9, hp=hp)
    (tmp_path / "epoch002.state.npz").unlink()  # resume starts after epoch 1
    blob = (tmp_path / "loss.log").read_bytes()
    seen = []

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            seen.extend(sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"))
            raise OSError("No space left on device")

    monkeypatch.setattr(errors, "open", lambda *a, **kw: HalfWriter(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        run_experiment(cfg, data, epochs=3, out_dir=tmp_path, seed=9, hp=hp, resume=True)
    assert seen == ["loss.log.tmp"]
    assert (tmp_path / "loss.log").read_bytes() == blob
    assert not list(tmp_path.glob("*.tmp"))


def test_resume_with_another_epochs_state_file_raises_naming_both_files(tmp_path):
    data = _bundle(seed=23)
    cfg = replace(SMALL, vocab_size=data.bpe.vocab_size)
    hp = TrainParams(warmup=50, batch_tokens=128)
    run_experiment(cfg, data, epochs=2, out_dir=tmp_path, seed=9, hp=hp)
    state = tmp_path / "epoch002.state.npz"
    shutil.copyfile(tmp_path / "epoch001.state.npz", state)
    blob = (tmp_path / "loss.log").read_bytes()
    with pytest.raises(DataError, match="does not belong to checkpoint") as err:
        run_experiment(cfg, data, epochs=3, out_dir=tmp_path, seed=9, hp=hp, resume=True)
    assert str(err.value).startswith(f"{state}: training state at step ")
    assert f"{tmp_path / 'epoch002.ckpt'} at step " in str(err.value)
    assert (tmp_path / "loss.log").read_bytes() == blob


def _acceptance_11_setup():
    """The data, config and hyperparameters of acceptance 11."""
    rng = Rng(111)
    train = gen_synthetic("copy", 10, 48, (2, 5), rng.fork("tr"))
    dev = gen_synthetic("copy", 10, 8, (2, 5), rng.fork("de"))
    test = gen_synthetic("copy", 10, 8, (2, 5), rng.fork("te"))
    data = DataBundle(train, dev, test, learn_bpe(train.lines(), 16))
    cfg = replace(SMALL, vocab_size=data.bpe.vocab_size)
    return data, cfg, TrainParams(warmup=50, batch_tokens=128)


@pytest.mark.parametrize("crash", ["before_state", "before_log", "torn_log"])
def test_resume_after_crash_inside_an_epoch_write(tmp_path, crash):
    """Epoch 2 wrote its checkpoint but crashed before its state file, before
    its loss-log row, or halfway through that row; resuming redoes epoch 2."""
    data, cfg, hp = _acceptance_11_setup()
    run_experiment(cfg, data, epochs=3, out_dir=tmp_path / "full", seed=13, hp=hp)
    want = (tmp_path / "full" / "loss.log").read_bytes()

    part = tmp_path / "part"
    run_experiment(cfg, data, epochs=2, out_dir=part, seed=13, hp=hp)
    log = (part / "loss.log").read_bytes()
    last_row = log.rindex(b"\n", 0, len(log) - 1) + 1
    if crash == "before_state":
        (part / "epoch002.state.npz").unlink()
    cut = last_row + (len(log) - last_row) // 2 if crash == "torn_log" else last_row
    (part / "loss.log").write_bytes(log[:cut])

    run_experiment(cfg, data, epochs=3, out_dir=part, seed=13, hp=hp, resume=True)
    assert (part / "loss.log").read_bytes() == want
