"""Benchmark workloads: generated inputs and the pipeline config for each.

Every workload plants the schemes of ``tests/synth.py`` so the expected
coexpression patterns are known, and differs in which layer of the
pipeline does most of the work:

- ``testscale``: the test-suite fixture's config (``gmm_ks=(3,)``, no grid
  dumps), shrunk so a run takes seconds. Kriging surfaces, contours and
  area-dictionary containment dominate.
- ``longcorpus``: the same planted verses plus many 12-token verses with
  no pivot token, so the pivot occurs in a minority of verses, as *when*
  does in a real New Testament. EM alignment dominates.
- ``readme_defaults``: the README config (``gmm_ks`` 2-8, grid dumps on)
  with a larger grid than ``testscale``: K selection, bigger surfaces and
  heavy artifact writes.

``smoke`` sizes shrink every workload to a fraction of a second of
pipeline work for the harness's own tests.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

README_GMM_KS = (2, 3, 4, 5, 6, 7, 8)
FILLER_LEN = 12


@dataclass(frozen=True)
class Workload:
    name: str
    verses: int           # planted verses, one pivot occurrence each
    filler: int           # extra verses without a pivot token
    grid: int
    gmm_ks: tuple[int, ...]
    dump_grids: bool


WORKLOADS = {
    "testscale": Workload("testscale", verses=90, filler=0, grid=32,
                          gmm_ks=(3,), dump_grids=False),
    "longcorpus": Workload("longcorpus", verses=90, filler=100, grid=20,
                           gmm_ks=(3,), dump_grids=False),
    "readme_defaults": Workload("readme_defaults", verses=90, filler=0, grid=40,
                                gmm_ks=README_GMM_KS, dump_grids=True),
}

SMOKE = {
    "testscale": Workload("testscale", verses=60, filler=0, grid=12,
                          gmm_ks=(3,), dump_grids=False),
    "longcorpus": Workload("longcorpus", verses=60, filler=12, grid=12,
                           gmm_ks=(3,), dump_grids=False),
    "readme_defaults": Workload("readme_defaults", verses=60, filler=0, grid=16,
                                gmm_ks=(2, 3, 4), dump_grids=True),
}


def load_synth(root: Path):
    """Import ``tests/synth.py`` from the checkout without touching sys.path."""
    path = root / "tests" / "synth.py"
    spec = importlib.util.spec_from_file_location("semmap_bench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generate(synth, workload: Workload, seed: int, corpus_dir: Path) -> dict:
    """Write the workload's corpus for ``seed``; return the planted anchors."""
    _, anchors, _ = synth.build_corpus(corpus_dir, n_verses=workload.verses, seed=seed)
    if workload.filler:
        _append_filler(corpus_dir, workload.filler, seed)
    return anchors


def _append_filler(corpus_dir: Path, n: int, seed: int) -> None:
    # Same vocabulary and per-doculect bijective dictionary as synth, so EM
    # sees more of the same lexical evidence but no new pivot occurrences.
    rng = random.Random(f"longcorpus-{seed}")
    vocab = [f"w{i:02d}" for i in range(40)]
    verses = [(f"MAT:2:{i}", rng.sample(vocab, FILLER_LEN)) for i in range(n)]
    for path in sorted(corpus_dir.glob("*.txt")):
        iso = path.stem
        prefix = "" if iso == "eng" else iso
        with open(path, "a", encoding="utf-8") as fh:
            for vid, words in verses:
                fh.write(f"{vid}\t{' '.join(prefix + w for w in words)}\n")


def config_dict(workload: Workload, corpus_dir: Path, out_dir: Path,
                anchors: dict) -> dict:
    """PipelineConfig fields; values not set here keep the README defaults."""
    return {
        "corpus_dir": str(corpus_dir),
        "metadata": str(corpus_dir / "meta.tsv"),
        "out_dir": str(out_dir),
        "pivot_iso": "eng",
        "pivot_tokens": ["when"],
        "gmm_ks": list(workload.gmm_ks),
        "grid": workload.grid,
        "core_k": 30,
        "group_anchors": anchors,
        "dump_grids": workload.dump_grids,
    }
