"""The stdout digest of each workload's seed-1 check round, pinned.

The benchmark hashes the stdout of its first round of jobs; an unchanged
digest is how a refactor shows that the CLI output stayed bit-identical.
The round is run here as `perfbench/run.py` runs it, with the benchmark
loaded read-only from its file."""

import importlib.util
from pathlib import Path

import pytest

RUN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

DIGESTS = {
    "verify_fp": "c87451349416",
    "rational_q": "3b8c43690897",
    "bridge_qh": "3936933b18a4",
}


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_check_round_digest(run, workload, tmp_path, monkeypatch):
    ditred = run.load_ditred()
    monkeypatch.chdir(tmp_path)  # jobs name their files relative to the work directory
    tally = run.run_rounds(run.Runner(ditred, tmp_path), workload, 1, more=lambda t: not t.round_walls)
    assert tally.unexplained == []
    assert tally.digest.hexdigest().startswith(DIGESTS[workload])
