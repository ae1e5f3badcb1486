import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from wnsf import blas
from wnsf.arx import ArxGrid
from wnsf.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

needs_openblas = pytest.mark.skipif(
    not blas.openblas_pools(), reason="no OpenBLAS found in this process")


def _counts():
    return [get() for get, _ in blas.openblas_pools()]


@needs_openblas
class TestSingleThread:
    def test_one_thread_inside_previous_counts_after(self):
        before = _counts()
        for _, put in blas.openblas_pools():
            put(2)
        try:
            with blas.single_thread():
                assert _counts() == [1] * len(before)
            assert _counts() == [2] * len(before)
            with pytest.raises(RuntimeError):
                with blas.single_thread():
                    raise RuntimeError("body failed")
            assert _counts() == [2] * len(before)
        finally:
            for (_, put), count in zip(blas.openblas_pools(), before):
                put(count)

    def test_cli_identify_solves_at_one_thread(self, tmp_path):
        data = str(tmp_path / "data.csv")
        assert main(["simulate", str(DEMOS / "closed_loop_bj.json"),
                     "--out", data]) == EXIT_OK
        before = _counts()
        seen = []
        estimate = ArxGrid.estimate

        def spy(self, n):
            seen.append(_counts())
            return estimate(self, n)

        with mock.patch.object(ArxGrid, "estimate", spy):
            assert main(["identify", "--data", data, "--orders", "2,2,1,1",
                         "--n-grid", "10,20", "--max-iter", "2",
                         "--out", str(tmp_path / "est.json")]) == EXIT_OK
        assert len(seen) == 2 and all(c == [1] * len(c) for c in seen)
        assert _counts() == before


@needs_openblas
def test_cli_identify_bytes_do_not_depend_on_thread_count(tmp_path):
    """The same input gives the same file at one and two BLAS threads.
    Before steps 1-3 ran at one thread, the trace theta of this grid
    differed in the last bits between the two."""
    data = str(tmp_path / "data.csv")
    assert main(["simulate", str(DEMOS / "closed_loop_bj.json"),
                 "--out", data]) == EXIT_OK
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"estimate_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "wnsf.cli", "identify", "--data", data,
             "--orders", "2,2,1,1", "--n-grid", "50:300:50",
             "--known-zero-ic", "--out", str(out)],
            env=env, cwd=ROOT, capture_output=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr.decode()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
