"""Golden manifests: the artifact hashes of seven fixed pipeline runs.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/golden/regenerate.py

rewrites ``tests/golden/manifests.tsv`` next to this script. The runs
are the three benchmark workloads at their ``perfbench`` smoke sizes for
seeds 411 and 9173, and the test suite's fixture config (300 verses,
seed 7, grid 120). Each runs in a fresh working directory with the
relative paths ``corpus``, ``corpus/meta.tsv`` and ``out``: the config
hash in every artifact's header hashes ``corpus_dir`` and ``metadata`` as
given, so relative paths keep every manifest line, ``config.json``
included, independent of where the run happens. All seven run in one
subprocess with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1, the BLAS setting ``perfbench/run.py``
pins: ``embedding.tsv`` stores LAPACK's floats at full precision and
``eigh`` rounds differently with the thread count, so the hashes would
otherwise depend on the machine's cores. The file's header records
Python, numpy, BLAS and those three variables as the subprocess saw
them. ``tests/test_golden.py`` reruns the seven runs against the file;
regenerate it only with a change that alters an artifact on purpose.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "manifests.tsv"
COLUMNS = ("run", "sha256", "path")
SEEDS = (411, 9173)
# every thread pool numpy's BLAS may start, held to one thread
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("semmap_golden_workloads", ROOT / "perfbench" / "workloads.py")
synth = workloads.load_synth(ROOT)

RUNS = tuple(f"{name}-{seed}" for name in sorted(workloads.SMOKE) for seed in SEEDS) \
    + ("conftest",)


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in ONE_THREAD)
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} {threads}")


def _config(run_name: str) -> dict:
    """Write the run's corpus under ``corpus`` in the working directory; return its config."""
    corpus = Path("corpus")
    if run_name == "conftest":
        # tests/conftest.py's make_config, at its defaults
        _, anchors, _ = synth.build_corpus(corpus, n_verses=300, seed=7)
        return {"corpus_dir": str(corpus), "metadata": str(corpus / "meta.tsv"),
                "out_dir": "out", "pivot_iso": "eng", "pivot_tokens": ("when",),
                "gmm_ks": (3,), "grid": 120, "core_k": 30, "group_anchors": anchors,
                "dump_grids": False}
    name, seed = run_name.rsplit("-", 1)
    workload = workloads.SMOKE[name]
    anchors = workloads.generate(synth, workload, int(seed), corpus)
    config = workloads.config_dict(workload, corpus, Path("out"), anchors)
    return {**config, "pivot_tokens": tuple(config["pivot_tokens"]),
            "gmm_ks": tuple(config["gmm_ks"])}


def manifest(run_name: str, workdir: Path) -> dict[str, str]:
    """Run ``run_name`` inside the empty ``workdir``; return {artifact path: sha256}."""
    from semmap import tsv
    from semmap.pipeline import PipelineConfig, run

    before = Path.cwd()
    os.chdir(workdir)
    try:
        path = run(PipelineConfig(**_config(run_name)))
        return {rel: digest for digest, rel in tsv.read_rows(path, str, str)}
    finally:
        os.chdir(before)


def run_all() -> dict[str, dict[str, str]]:
    """{run: {artifact path: sha256}} of every run, each in a fresh directory."""
    runs = {}
    for run_name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            runs[run_name] = manifest(run_name, Path(tmp))
    return runs


def manifests() -> tuple[str, dict[str, dict[str, str]]]:
    """The environment and ``run_all()`` of one subprocess with one BLAS thread."""
    code = ("import importlib.util, json, sys; "
            "spec = importlib.util.spec_from_file_location('semmap_golden', sys.argv[1]); "
            "golden = importlib.util.module_from_spec(spec); spec.loader.exec_module(golden); "
            "print(json.dumps([golden.environment(), golden.run_all()]))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve())],
                          env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"the golden runs failed:\n{proc.stderr}")
    recorded, runs = json.loads(proc.stdout.strip().splitlines()[-1])
    return recorded, runs


def read_golden(path: Path = GOLDEN) -> tuple[str, dict[str, dict[str, str]]]:
    """The recorded environment and {run: {artifact path: sha256}}."""
    from semmap import tsv

    with open(path, encoding="utf-8") as fh:
        recorded = fh.readline().removeprefix("#").strip()
    golden: dict[str, dict[str, str]] = {}
    for run_name, digest, rel in tsv.read_rows(path, str, str, str, header=COLUMNS):
        golden.setdefault(run_name, {})[rel] = digest
    return recorded, golden


def main() -> int:
    from semmap import tsv

    recorded, runs = manifests()
    rows = [COLUMNS]
    for run_name in RUNS:
        digests = runs[run_name]
        rows.extend((run_name, digests[rel], rel) for rel in sorted(digests))
    GOLDEN.write_text(tsv.format_rows(rows, recorded), encoding="utf-8")
    print(f"{GOLDEN}: {len(rows) - 1} artifacts of {len(RUNS)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
