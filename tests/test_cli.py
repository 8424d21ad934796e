"""End-to-end command-line behavior: exit codes, flags, help, pipelines."""

import numpy as np
import pytest

from ccn import cli, errors, evaluation
from ccn.bpe import EOS_ID, apply_bpe, ids_to_text, load_bpe
from ccn.checkpoint import save_checkpoint, save_model
from ccn.evaluation import beam_search, greedy_decode
from ccn.model import build_model, preset
from ccn.rng import Rng
from ccn.training import RunRecord
from dataclasses import replace


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 1


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["bleu", "--hyp", "x", "--ref", "y", "--frobnicate"])
    assert err.value.code == 1


def test_missing_seed_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "make-synth", "--out", str(tmp_path))
    assert code == 1
    assert "--seed" in err


def test_no_command_prints_help(capsys):
    assert cli.main([]) == 1


def test_help_round_trips_all_flags(capsys):
    for command, flags in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for flag, _ in flags:
            assert flag in out, (command, flag)
        assert "--config" in out


def test_make_synth_learn_apply_pipeline(capsys, tmp_path):
    data = tmp_path / "data"
    code, out, _ = run_cli(
        capsys, "make-synth", "--task", "copy", "--seed", "5", "--out", str(data),
        "--vocab-size", "12", "--n-train", "30", "--n-dev", "5", "--n-test", "5",
    )
    assert code == 0
    for split in ("train", "dev", "test"):
        assert (data / f"{split}.src").exists()
        assert (data / f"{split}.tgt").exists()

    code, out, _ = run_cli(
        capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt", str(data / "train.tgt"),
        "--vocab-size", "20", "--out", str(tmp_path),
    )
    assert code == 0
    bpe_path = tmp_path / "bpe.vocab"
    assert bpe_path.exists()

    code, out, _ = run_cli(
        capsys, "apply-bpe", "--bpe", str(bpe_path), "--src", str(data / "dev.src")
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    # single-letter words segment to letter-with-marker tokens
    assert all("</w>" in line for line in lines)


def test_make_synth_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "make-synth", "--seed", "9", "--out", str(a), "--n-train", "10",
            "--n-dev", "2", "--n-test", "2")
    run_cli(capsys, "make-synth", "--seed", "9", "--out", str(b), "--n-train", "10",
            "--n-dev", "2", "--n-test", "2")
    assert (a / "train.src").read_text() == (b / "train.src").read_text()


def test_bleu_identical_files_print_100(capsys, tmp_path):
    f = tmp_path / "text"
    f.write_text("a b c d\ne f g h\n")
    code, out, _ = run_cli(capsys, "bleu", "--hyp", str(f), "--ref", str(f))
    assert code == 0
    assert out.strip() == "100.00"


def test_bleu_mismatched_files_exit_two(capsys, tmp_path):
    h = tmp_path / "h"
    r = tmp_path / "r"
    h.write_text("a b\n")
    r.write_text("a b\nc d\n")
    code, _, err = run_cli(capsys, "bleu", "--hyp", str(h), "--ref", str(r))
    assert code == 2
    assert "counts differ" in err


def test_param_count_outputs_and_table_ratio(capsys):
    code, out, _ = run_cli(capsys, "param-count", "--preset", "thm-base", "--vocab", "33712")
    assert code == 0
    total_thm = int([l for l in out.splitlines() if l.startswith("total")][0].split()[1])
    code, out, _ = run_cli(capsys, "param-count", "--preset", "transformer-base", "--vocab", "33712")
    total_base = int([l for l in out.splitlines() if l.startswith("total")][0].split()[1])
    assert total_thm == 114_928_640
    assert total_base == 61_364_224
    assert 1.80 <= total_thm / total_base <= 2.05


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "pc.cfg"
    cfg.write_text("preset=transformer-base\nvocab=33712\n")
    code, out, _ = run_cli(capsys, "param-count", "--config", str(cfg))
    assert code == 0
    assert "total 61364224" in out
    # explicit flag wins over the file
    code, out, _ = run_cli(capsys, "param-count", "--config", str(cfg), "--preset", "thm-base")
    assert "total 114928640" in out


def test_config_file_unknown_key_exits_one(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code, _, err = run_cli(capsys, "param-count", "--config", str(cfg), "--preset", "tiny")
    assert code == 1
    assert "nonsense" in err


@pytest.mark.parametrize(
    "command, line",
    [
        ("make-synth", "n-train=abc"),
        ("train", "resume=maybe"),
        ("param-count", "preset=nope"),
        ("translate", "beam=2.5"),
    ],
)
def test_config_file_bad_value_exits_one_naming_file_and_line(capsys, tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# defaults\n{line}\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:2: bad value for {line.split('=')[0]}: " in err


def test_config_file_booleans_read_as_store_true_flags():
    spec = dict(cli._COMMANDS["train"])["--resume"]
    values = ("1", "TRUE", "yes", "0", "False", "no")
    assert [cli._config_value(spec, v) for v in values] == [True] * 3 + [False] * 3


def test_select_model_and_plot_loss(capsys, tmp_path):
    log = tmp_path / "loss.log"
    log.write_text("1 3.0 3.1 10 11\n2 2.0 2.1 30 29\n3 1.5 1.9 20 33\n")
    code, out, _ = run_cli(capsys, "select-model", "--log", str(log), "--k", "1")
    assert code == 0
    assert "best_epoch 2" in out
    assert "top1 false" in out
    code, out, _ = run_cli(capsys, "select-model", "--log", str(log), "--k", "2")
    assert "top2 true" in out

    code, out, _ = run_cli(capsys, "plot-loss", "--log", str(log), "--out", str(tmp_path / "plot"))
    assert code == 0
    dat = (tmp_path / "plot" / "loss.dat").read_text()
    assert dat.splitlines()[0].startswith("#")
    assert len(dat.splitlines()) == 4
    assert (tmp_path / "plot" / "loss.gp").read_text().startswith("set terminal png")


def test_plot_loss_failing_midway_leaves_the_previous_files(capsys, tmp_path, monkeypatch):
    log, plot = tmp_path / "loss.log", tmp_path / "plot"
    log.write_text("1 3.0 3.1 10 11\n")
    assert run_cli(capsys, "plot-loss", "--log", str(log), "--out", str(plot))[0] == 0
    before = (plot / "loss.dat").read_bytes()
    seen = []

    def failing(records):
        # the header is already written to the temporary file
        seen.extend(sorted(p.name for p in plot.iterdir()))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(RunRecord, "to_log", failing)
    log.write_text("1 3.0 3.1 10 11\n2 2.0 2.1 30 29\n")
    code, _, err = run_cli(capsys, "plot-loss", "--log", str(log), "--out", str(plot))
    assert code == 2 and "No space left" in err
    assert seen == ["loss.dat", "loss.dat.tmp", "loss.gp"]
    assert (plot / "loss.dat").read_bytes() == before
    assert sorted(p.name for p in plot.iterdir()) == ["loss.dat", "loss.gp"]


def test_translate_runs_on_saved_checkpoint(capsys, tmp_path):
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "3", "--out", str(data), "--vocab-size", "10",
            "--n-train", "20", "--n-dev", "3", "--n-test", "3")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt", str(data / "train.tgt"),
            "--vocab-size", "18", "--out", str(tmp_path))
    bpe = load_bpe(tmp_path / "bpe.vocab")
    model = build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(0))
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, model)
    code, out, _ = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(tmp_path / "bpe.vocab"),
        "--src", str(data / "dev.src"), "--max-len", "8",
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    # beam decoding takes the same path
    code, out2, _ = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(tmp_path / "bpe.vocab"),
        "--src", str(data / "dev.src"), "--max-len", "8", "--beam", "2",
    )
    assert code == 0
    assert len(out2.splitlines()) == 3


@pytest.mark.parametrize("beam", [1, 2])
def test_translate_writes_lines_in_input_order(capsys, tmp_path, monkeypatch, beam):
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "4", "--out", str(data), "--vocab-size", "10",
            "--n-train", "20", "--n-dev", "5", "--n-test", "3")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt", str(data / "train.tgt"),
            "--vocab-size", "18", "--out", str(tmp_path))
    bpe = load_bpe(tmp_path / "bpe.vocab")
    model = build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(1))
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, model)
    # a budget of two greedy sentences, so the five lines span three batches
    lines = (data / "dev.src").read_text(encoding="utf-8").splitlines()
    src_len = max(len(apply_bpe(bpe, line)) + 1 for line in lines)
    budget = 2 * evaluation.sentence_bytes(model.config, np.float32, 1, src_len, 8)
    monkeypatch.setattr(evaluation, "DECODE_BYTES", budget)
    code, out, _ = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(tmp_path / "bpe.vocab"),
        "--src", str(data / "dev.src"), "--max-len", "8", "--beam", str(beam),
    )
    assert code == 0
    want = []
    for line in (data / "dev.src").read_text(encoding="utf-8").splitlines():
        ids = apply_bpe(bpe, line) + [EOS_ID]
        hyp = greedy_decode(model, ids, 8) if beam == 1 else beam_search(model, ids, beam, 8)
        want.append(ids_to_text(bpe, hyp))
    assert len(set(want)) > 1, want
    assert out.splitlines() == want


def test_translate_truncated_checkpoint_exits_two(capsys, tmp_path):
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "3", "--out", str(data), "--vocab-size", "10",
            "--n-train", "20", "--n-dev", "3", "--n-test", "3")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt", str(data / "train.tgt"),
            "--vocab-size", "18", "--out", str(tmp_path))
    bpe = load_bpe(tmp_path / "bpe.vocab")
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(0)))
    ckpt.write_bytes(ckpt.read_bytes()[:-7])
    code, out, err = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(tmp_path / "bpe.vocab"),
        "--src", str(data / "dev.src"), "--max-len", "8",
    )
    assert code == 2
    assert out == ""
    assert "m.ckpt: byte " in err and "truncated" in err
    assert "Traceback" not in err


def test_translate_a_word_holding_the_end_of_word_marker_exits_two_naming_it(capsys, tmp_path):
    data, vocab = _tiny_data(capsys, tmp_path)
    bpe = load_bpe(vocab)
    ckpt = tmp_path / "m.ckpt"
    save_model(ckpt, build_model(replace(preset("tiny"), vocab_size=bpe.vocab_size), Rng(0)))
    src = tmp_path / "in.txt"
    src.write_text("ab</w>c d\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(vocab), "--src", str(src), "--max-len", "8",
    )
    assert code == 2
    assert out == ""
    assert "word 'ab</w>c' contains '</w>'" in err
    assert "Traceback" not in err


def test_translate_checkpoint_lacking_a_parameter_exits_two(capsys, tmp_path):
    data, vocab = _tiny_data(capsys, tmp_path)
    model = build_model(replace(preset("tiny"), vocab_size=load_bpe(vocab).vocab_size), Rng(0))
    params = {n: p.data for n, p in model.params.items()}
    del params["dec.0.self_attn.wo"]
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model.config, 0, params)
    code, out, err = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(vocab), "--src", str(data / "dev.src"),
    )
    assert code == 2
    assert out == ""
    assert f"{ckpt}: checkpoint parameters do not match the model: ['dec.0.self_attn.wo']" in err
    assert "Traceback" not in err


def test_translate_checkpoint_with_a_misshapen_parameter_exits_two_naming_the_file(capsys, tmp_path):
    data, vocab = _tiny_data(capsys, tmp_path)
    model = build_model(replace(preset("tiny"), vocab_size=load_bpe(vocab).vocab_size), Rng(0))
    params = {n: p.data for n, p in model.params.items()}
    params["dec.0.self_attn.wo"] = params["dec.0.self_attn.wo"][:, :-1]
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model.config, 0, params)
    code, out, err = run_cli(
        capsys, "translate", "--ckpt", str(ckpt), "--bpe", str(vocab), "--src", str(data / "dev.src"),
    )
    assert code == 2
    assert out == ""
    assert f"{ckpt}: checkpoint shape mismatch for dec.0.self_attn.wo" in err
    assert "Traceback" not in err


def _tiny_data(capsys, tmp_path):
    """A small copy-task corpus under tmp_path/d and its BPE vocabulary."""
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "3", "--out", str(data), "--vocab-size", "8",
            "--n-train", "30", "--n-dev", "4", "--n-test", "4", "--min-len", "2", "--max-len", "5")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt",
            str(data / "train.tgt"), "--vocab-size", "14", "--out", str(tmp_path))
    return data, tmp_path / "bpe.vocab"


_BASE = ["a", "b", "a</w>", "b</w>"]  # lines 5-8; "#merges" is line 9


def _apply_bpe_with(capsys, tmp_path, base, merges):
    """Run apply-bpe with a hand-written vocabulary file."""
    vocab, src = tmp_path / "bpe.vocab", tmp_path / "in.txt"
    vocab.write_text("\n".join(["<pad>", "<bos>", "<eos>", "<unk>", *base, "#merges", *merges]) + "\n")
    src.write_text("ab ba\n")
    code, out, err = run_cli(capsys, "apply-bpe", "--bpe", str(vocab), "--src", str(src))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    return f"{vocab}:", err


@pytest.mark.parametrize("line", ["ab", "a b c", "a  b", "a ", " b</w>", "a\tb</w>"])
def test_apply_bpe_merge_line_not_two_symbols_exits_two_naming_the_line(capsys, tmp_path, line):
    name, err = _apply_bpe_with(capsys, tmp_path, _BASE, ["a b</w>", line])
    assert f"{name}11: a merge is two non-empty symbols and one space, got {line!r}" in err


@pytest.mark.parametrize(
    "merges, part",
    [(["x y"], "x"), (["a ab</w>", "a b</w>"], "ab</w>"), (["<unk> a"], "<unk>")],
    ids=["unknown", "later-merge", "special"],
)
def test_apply_bpe_merge_of_unknown_parts_exits_two_naming_the_line(capsys, tmp_path, merges, part):
    name, err = _apply_bpe_with(capsys, tmp_path, _BASE, merges)
    assert f"{name}10: merge part {part!r} is neither a base symbol nor an earlier merge" in err


def test_apply_bpe_empty_base_symbol_exits_two_naming_the_line(capsys, tmp_path):
    name, err = _apply_bpe_with(capsys, tmp_path, ["a", "", "b"], [])
    assert f"{name}6: empty base symbol" in err


@pytest.mark.parametrize(
    "base, merges, where",
    [
        (_BASE, ["a b</w>", "a b</w>"], "11: duplicate token 'ab</w>', first on line 10"),
        (_BASE + ["b"], [], "9: duplicate token 'b', first on line 6"),
        (_BASE + ["ab"], ["a b"], "11: duplicate token 'ab', first on line 9"),
    ],
    ids=["two-merges", "two-base-symbols", "merge-and-base-symbol"],
)
def test_apply_bpe_duplicate_token_exits_two_naming_it(capsys, tmp_path, base, merges, where):
    name, err = _apply_bpe_with(capsys, tmp_path, base, merges)
    assert f"{name}{where}" in err


def test_non_utf8_input_exits_two_naming_the_file(capsys, tmp_path):
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_bytes(b"a b\n\xff c\n")
    good.write_text("a b\nc d\n")
    code, out, err = run_cli(capsys, "bleu", "--hyp", str(bad), "--ref", str(good))
    assert code == 2
    assert out == ""
    assert f"{bad}: byte 4: not UTF-8" in err
    assert "Traceback" not in err


def test_missing_input_file_exits_one_naming_the_file(capsys, tmp_path):
    missing = tmp_path / "missing.txt"
    code, _, err = run_cli(capsys, "bleu", "--hyp", str(missing), "--ref", str(missing))
    assert code == 1
    assert str(missing) in err
    assert "Traceback" not in err


def test_translate_directory_as_checkpoint_exits_two(capsys, tmp_path):
    data, vocab = _tiny_data(capsys, tmp_path)
    code, out, err = run_cli(
        capsys, "translate", "--ckpt", str(data), "--bpe", str(vocab), "--src", str(data / "dev.src"),
    )
    assert code == 2
    assert out == ""
    assert str(data) in err and "Is a directory" in err
    assert "Traceback" not in err


def _train_argv(capsys, tmp_path) -> list[str]:
    """``ccn train`` of tiny on a small corpus into tmp_path/run, one epoch run."""
    data, vocab = _tiny_data(capsys, tmp_path)
    argv = [
        "train", "--preset", "tiny", "--seed", "1", "--quiet", "--out", str(tmp_path / "run"),
        "--src", str(data / "train.src"), "--tgt", str(data / "train.tgt"),
        "--dev-src", str(data / "dev.src"), "--dev-tgt", str(data / "dev.tgt"),
        "--test-src", str(data / "test.src"), "--test-tgt", str(data / "test.tgt"),
        "--bpe", str(vocab), "--batch-tokens", "64", "--warmup", "50",
    ]
    assert run_cli(capsys, *argv, "--epochs", "1")[0] == 0
    return argv


def test_resume_from_truncated_state_file_exits_two(capsys, tmp_path):
    argv = _train_argv(capsys, tmp_path)
    state = tmp_path / "run" / "epoch001.state.npz"
    state.write_bytes(state.read_bytes()[:-10])
    code, _, err = run_cli(capsys, *argv, "--epochs", "2", "--resume")
    assert code == 2
    assert f"{state}: not a readable training state" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("change", ["rename", "reshape"])
def test_resume_from_state_file_not_matching_the_model_exits_two(capsys, tmp_path, change):
    argv = _train_argv(capsys, tmp_path)
    state = tmp_path / "run" / "epoch001.state.npz"
    with np.load(state) as zf:
        arrays = {k: zf[k] for k in zf.files}
    key = "v/dec.0.self_attn.wo"
    if change == "rename":
        arrays["v/dec.0.self_attn.wx"] = arrays.pop(key)
    else:
        arrays[key] = arrays[key][:, :-1]
    np.savez(state, **arrays)
    code, _, err = run_cli(capsys, *argv, "--epochs", "2", "--resume")
    assert code == 2
    assert f"{state}: training state does not match the model" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "meta",
    [[1.0, 1.0], [np.nan, 1.0, -1.0], [[1.0, 1.0, -1.0]], 1.0, [-1.0, 1.0, -1.0], [1.5, 1.0, -1.0], [1.0, 1.0, np.inf]],
    ids=["two-entries", "nan-step", "2-d", "0-d", "negative-step", "fractional-step", "infinite-bleu"],
)
def test_resume_from_state_file_with_malformed_meta_exits_two(capsys, tmp_path, meta):
    argv = _train_argv(capsys, tmp_path)
    state = tmp_path / "run" / "epoch001.state.npz"
    with np.load(state) as zf:
        arrays = {k: zf[k] for k in zf.files}
    arrays["meta"] = np.array(meta, dtype=np.float64)
    np.savez(state, **arrays)
    code, _, err = run_cli(capsys, *argv, "--epochs", "2", "--resume")
    assert code == 2
    assert f"{state}: malformed training state" in err
    assert "Traceback" not in err


def test_resume_over_a_malformed_loss_log_row_exits_two_naming_the_log(capsys, tmp_path):
    argv = _train_argv(capsys, tmp_path)
    log = tmp_path / "run" / "loss.log"
    log.write_text("1 abc 2 3 4\n")
    code, _, err = run_cli(capsys, *argv, "--epochs", "2", "--resume")
    assert code == 2
    assert f"{log}: line 1: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["select-model", "plot-loss"])
@pytest.mark.parametrize("row", ["2 abc 2 3 4", "2 1 2", "3 1 2 3 4"])
def test_malformed_loss_log_row_exits_two_naming_the_log(capsys, tmp_path, command, row):
    log = tmp_path / "loss.log"
    log.write_text(f"1 1 1 1 1\n{row}\n")
    extra = ["--out", str(tmp_path / "plot")] if command == "plot-loss" else []
    code, out, err = run_cli(capsys, command, "--log", str(log), *extra)
    assert code == 2
    assert out == ""
    assert f"{log}: line 2: " in err
    assert "Traceback" not in err


def test_gradcheck_cli_sampled(capsys):
    code, out, _ = run_cli(capsys, "gradcheck", "--preset", "tiny", "--seed", "7", "--entries", "2")
    assert code == 0
    assert "max_rel_error" in out


def test_divergence_maps_to_exit_three(capsys, monkeypatch, tmp_path):
    from ccn.errors import DivergenceError

    def explode(*a, **k):
        raise DivergenceError("non-finite loss at step 3", step=3)

    monkeypatch.setattr(cli, "run_experiment", explode)
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "3", "--out", str(data), "--n-train", "4",
            "--n-dev", "2", "--n-test", "2")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt",
            str(data / "train.tgt"), "--vocab-size", "30", "--out", str(tmp_path))
    code, _, err = run_cli(
        capsys, "train", "--preset", "tiny", "--seed", "1", "--epochs", "1",
        "--out", str(tmp_path / "run"), "--src", str(data / "train.src"),
        "--tgt", str(data / "train.tgt"), "--dev-src", str(data / "dev.src"),
        "--dev-tgt", str(data / "dev.tgt"), "--test-src", str(data / "test.src"),
        "--test-tgt", str(data / "test.tgt"), "--bpe", str(tmp_path / "bpe.vocab"),
    )
    assert code == 3
    assert "non-finite" in err


@pytest.mark.parametrize(
    "exc, code, shown",
    [
        (errors.DivergenceError("non-finite loss at step 3", step=3), 3, "non-finite loss at step 3"),
        (errors.DataError("f.txt: line 2: bad row"), 2, "f.txt: line 2: bad row"),
        (FileNotFoundError(2, "No such file or directory", "in.txt"), 1, "[Errno 2] No such file or directory: 'in.txt'"),
        (ValueError("--epochs must be positive"), 1, "--epochs must be positive"),
        (IsADirectoryError(21, "Is a directory", "out"), 2, "[Errno 21] Is a directory: 'out'"),
        (KeyError("enc.0.w"), 2, "KeyError: 'enc.0.w'"),
        (TypeError("unsupported operand"), 2, "TypeError: unsupported operand"),
    ],
    ids=["DivergenceError", "DataError", "FileNotFoundError", "ValueError", "OSError", "KeyError", "TypeError"],
)
def test_every_failure_exits_with_its_code_naming_the_command(capsys, monkeypatch, exc, code, shown):
    """Each row of errors.EXIT_CODES, and an exception no row names, which
    exits 2 with its type; none prints a traceback."""

    def explode(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "param-count", explode)
    got, _, err = run_cli(capsys, "param-count", "--preset", "tiny")
    assert got == code
    assert err == f"ccn param-count: {shown}\n"
    assert "Traceback" not in err


def test_train_cli_end_to_end(capsys, tmp_path):
    data = tmp_path / "d"
    run_cli(capsys, "make-synth", "--seed", "3", "--out", str(data), "--vocab-size", "8",
            "--n-train", "30", "--n-dev", "4", "--n-test", "4", "--min-len", "2", "--max-len", "5")
    run_cli(capsys, "learn-bpe", "--src", str(data / "train.src"), "--tgt",
            str(data / "train.tgt"), "--vocab-size", "14", "--out", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "train", "--preset", "tiny", "--seed", "1", "--epochs", "2", "--quiet",
        "--out", str(tmp_path / "run"), "--src", str(data / "train.src"),
        "--tgt", str(data / "train.tgt"), "--dev-src", str(data / "dev.src"),
        "--dev-tgt", str(data / "dev.tgt"), "--test-src", str(data / "test.src"),
        "--test-tgt", str(data / "test.tgt"), "--bpe", str(tmp_path / "bpe.vocab"),
        "--batch-tokens", "64", "--warmup", "50",
    )
    assert code == 0
    log = (tmp_path / "run" / "loss.log").read_text().splitlines()
    assert len(log) == 2
    assert (tmp_path / "run" / "epoch002.ckpt").exists()
    assert "best dev BLEU" in out
