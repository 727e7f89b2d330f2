"""Every artifact of seven fixed runs hashes as recorded in tests/golden/manifests.tsv.

The golden holds for the Python, numpy and BLAS named in its header, with
one BLAS thread: the runs go through ``regenerate.manifests``, one
subprocess that pins it. ``tests/golden/regenerate.py`` rewrites the file
after an intended change.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("semmap_golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED_ENV, GOLDEN = golden.read_golden()


@pytest.fixture(scope="module")
def current():
    """The environment and manifests of the seven runs, computed once."""
    return golden.manifests()


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(golden.RUNS)


@pytest.mark.parametrize("run_name", golden.RUNS)
def test_artifacts_match_golden(run_name, current):
    environment, runs = current
    got = runs[run_name]
    want = GOLDEN.get(run_name, {})
    differ = [f"  {rel}: {want.get(rel, 'missing')} recorded, {got.get(rel, 'missing')} now"
              for rel in sorted(set(want) | set(got)) if want.get(rel) != got.get(rel)]
    assert not differ, (
        f"run {run_name}: {len(differ)} artifacts differ from tests/golden/manifests.tsv\n"
        f"recorded environment: {RECORDED_ENV}\n"
        f"current environment:  {environment}\n" + "\n".join(differ))


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the conftest run is the one large enough for OpenBLAS to thread;
    # embedding.tsv is exempt since eigh's floats still vary with the
    # thread count (ROADMAP item 15); everything drawn from it must not
    code = ("import importlib.util, json, sys; from pathlib import Path; "
            "spec = importlib.util.spec_from_file_location('semmap_golden', sys.argv[1]); "
            "golden = importlib.util.module_from_spec(spec); spec.loader.exec_module(golden); "
            "print(json.dumps(golden.manifest('conftest', Path(sys.argv[2]))))")
    src = str(_PATH.parents[2] / "src")
    runs = {}
    for threads in ("1", "2"):
        workdir = tmp_path / threads
        workdir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, str(_PATH), str(workdir)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout.strip().splitlines()[-1])
    assert runs["1"].keys() == runs["2"].keys()
    differ = sorted(rel for rel in runs["1"] if runs["1"][rel] != runs["2"][rel])
    assert differ in ([], ["embedding.tsv"]), differ
