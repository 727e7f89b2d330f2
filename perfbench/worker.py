"""One pipeline run in a fresh interpreter.

Usage: ``python3 perfbench/worker.py CONFIG_JSON TRACE(0|1)``, started by
``run.py`` with ``src/`` on PYTHONPATH. Set-up ends after ``import
semmap`` and one small LAPACK call, so OpenBLAS's one-off first-call cost
lands in set-up and not in ``pivot.classical_mds``. The last stdout line
is a JSON object with the set-up end, the run's wall seconds, the
process's peak RSS and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def setup() -> float:
    """Import semmap and warm LAPACK; return the CLOCK_MONOTONIC reading.

    CLOCK_MONOTONIC is one clock for every process on Linux, so the parent
    subtracts the reading it took before starting this process.
    """
    import numpy as np

    # the pipeline module imports every layer it runs
    from semmap import pipeline, pivot  # noqa: F401

    pivot.classical_mds(np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0))), 2)
    return time.monotonic()


def run(config_path: str, traced: bool) -> dict:
    from semmap import pipeline

    import spans

    config = pipeline.PipelineConfig.from_json(Path(config_path).read_text(encoding="utf-8"))
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    pipeline.run(config)
    result = {
        "run_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        files = [p for p in Path(config.out_dir).rglob("*") if p.is_file()]
        layers = spans.layer_metrics(tracer)
        layers["pipeline.artifacts"] = len(files)
        layers["pipeline.bytes_written"] = sum(p.stat().st_size for p in files)
        result["layers"] = layers
        result["modules"] = spans.module_seconds(tracer)
    return result


if __name__ == "__main__":
    setup_end = setup()
    result = run(sys.argv[1], sys.argv[2] == "1")
    print(json.dumps({"setup_end": setup_end, **result}))
