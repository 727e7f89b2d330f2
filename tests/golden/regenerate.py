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
included, independent of where the run happens. The file's header
records Python, numpy, BLAS and ``OPENBLAS_NUM_THREADS`` (its value, or
``unset``), since ``embedding.tsv`` stores LAPACK's floats at full
precision and ``eigh`` rounds differently with the thread count.
``tests/test_golden.py`` reruns the seven runs against the file;
regenerate it only with a change that alters an artifact on purpose.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "manifests.tsv"
COLUMNS = ("run", "sha256", "path")
SEEDS = (411, 9173)


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
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")


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

    rows = [COLUMNS]
    for run_name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            digests = manifest(run_name, Path(tmp))
        rows.extend((run_name, digests[rel], rel) for rel in sorted(digests))
    GOLDEN.write_text(tsv.format_rows(rows, environment()), encoding="utf-8")
    print(f"{GOLDEN}: {len(rows) - 1} artifacts of {len(RUNS)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
