"""The benchmark's layer tracer (perfbench/spans.py) still finds every ccn
name it wraps, and the bit-identity tool (tools/fingerprint.py) still runs
and is deterministic, so a refactor that breaks either fails here first."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

import fingerprint  # noqa: E402
import spans  # noqa: E402


def test_perfbench_tracer_installs_and_uninstalls():
    owners = list(spans.LAYER_MODULES) + [cls for cls, _, _ in spans.METHODS]
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in attrs.items()), owner


def test_fingerprint_model_digests_are_complete_and_repeat(capsys, tmp_path):
    outputs = []
    for run in ("a", "b"):
        (tmp_path / run / "ckpt").mkdir(parents=True)
        fingerprint.model_digests(tmp_path / run, None)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    keys = {tuple(line.split()[:2]) for line in outputs[0].splitlines()}
    for arch in ("thm", "transformer"):
        for n_blocks in (0, 1, 2):
            for dtype in ("float32", "float64"):
                name = f"{arch}-{n_blocks}-{dtype}"
                for key in ("init", "losses", "params", "grads", "moments", "checkpoint"):
                    assert (name, key) in keys, (name, key)
