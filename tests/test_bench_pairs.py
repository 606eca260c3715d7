"""scripts/bench_pairs.py: argument checks that must fail before any run."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_too_few_pairs_exit_two_before_any_run(tmp_path, monkeypatch, pairs):
    bench_pairs = _load()
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args, **kw: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--pr", "0", "--workload", "grid-serial",
                          "--first-seed", "1", "--pairs", pairs])
    assert exc.value.code == 2
    assert calls == []
