"""Every artifact of seven fixed runs hashes as recorded in tests/golden/manifests.tsv.

The golden holds for the Python, numpy and BLAS named in its header;
``tests/golden/regenerate.py`` rewrites it after an intended change.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent / "golden" / "regenerate.py"
_spec = importlib.util.spec_from_file_location("semmap_golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

RECORDED_ENV, GOLDEN = golden.read_golden()


def test_golden_covers_every_run():
    assert sorted(GOLDEN) == sorted(golden.RUNS)


@pytest.mark.parametrize("run_name", golden.RUNS)
def test_artifacts_match_golden(run_name, tmp_path):
    got = golden.manifest(run_name, tmp_path)
    want = GOLDEN.get(run_name, {})
    differ = [f"  {rel}: {want.get(rel, 'missing')} recorded, {got.get(rel, 'missing')} now"
              for rel in sorted(set(want) | set(got)) if want.get(rel) != got.get(rel)]
    assert not differ, (
        f"run {run_name}: {len(differ)} artifacts differ from tests/golden/manifests.tsv\n"
        f"recorded environment: {RECORDED_ENV}\n"
        f"current environment:  {golden.environment()}\n" + "\n".join(differ))
