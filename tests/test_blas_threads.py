"""The suites keep BLAS on the calling thread: no idle worker spin, no thread-count dependence.

OpenBLAS threads a call once it passes a size threshold (a zgemv from 4,096
entries, a ddot past 10,000, the SVD with vectors of a 168 x 70 or a 70 x 70
matrix). After each threaded call its worker thread spins for about 0.1 s of
CPU before it sleeps, and a threaded reduction sums in a thread-count
dependent order. Each suite runs in a fresh interpreter, so no BLAS call made
by another test is counted. With a single-threaded BLAS (one core, or
OPENBLAS_NUM_THREADS=1 in the inherited environment) there is no worker and
these tests pass trivially.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the CPU time that every thread but the main one spent during the
# suite.  Loading OpenBLAS starts its worker spinning for about 0.1 s of wall
# time (about 0.06 s of CPU) before it sleeps, and a fast import ends inside
# that spin, so the first sleep lets it finish before the count starts.  The
# second lets a worker woken by the suite's last BLAS call finish its spin
# before the count ends.
CHILD = """
import sys, time
from hkforms.cli import main
def workers():
    return time.process_time() - time.thread_time()
time.sleep(0.3)
start = workers()
code = main(["--suite", sys.argv[1], "--seed", "7", "--out", sys.argv[2], "--quiet"])
time.sleep(0.3)
print(workers() - start)
sys.exit(code)
"""

SUITES = ["algebra", "taubnut", "bianchi", "quotient", "nahm"]


@pytest.fixture(scope="module")
def run_suite_child(tmp_path_factory):
    """(worker CPU seconds, report.json bytes) of one suite, run once per environment."""
    runs = {}

    def run(suite: str, blas_threads: str | None) -> tuple[float, bytes]:
        key = (suite, blas_threads)
        if key not in runs:
            out = tmp_path_factory.mktemp(f"{suite}-{blas_threads}")
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
            if blas_threads is not None:
                env["OPENBLAS_NUM_THREADS"] = blas_threads
            done = subprocess.run([sys.executable, "-c", CHILD, suite, str(out)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            runs[key] = float(done.stdout.split()[-1]), (out / "report.json").read_bytes()
        return runs[key]

    return run


@pytest.mark.parametrize("suite", SUITES)
def test_blas_worker_never_spins(run_suite_child, suite):
    # a single woken worker costs about 0.1 s; the parent's algebra suite cost 0.47 s
    worker_cpu, _ = run_suite_child(suite, None)
    assert worker_cpu < 0.03


@pytest.mark.parametrize("suite", SUITES)
def test_report_does_not_depend_on_the_blas_thread_count(run_suite_child, suite):
    assert run_suite_child(suite, None)[1] == run_suite_child(suite, "1")[1]
