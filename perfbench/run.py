"""semmap benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload testscale --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's corpus from ``--seed``, then for
``--seconds`` starts one fresh interpreter after another, each running
``semmap.pipeline.run`` once on the same inputs (a closed loop of one
client). Every repetition is checked: exit status, a manifest equal to
the other repetitions' (the determinism rule) and the planted coexpression
patterns. Failures count into ``failed``; they never end the benchmark.

``--trace 0`` reports medians of ``run_s``, ``setup_s`` (fresh interpreter
to ``import semmap`` plus one warm LAPACK call), ``peak_rss_mb`` and
``patterns_ok``. ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. Every run is single-threaded: ``SEMMAP_THREADS`` and the BLAS
thread counts are pinned to 1.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, holding exactly the metrics BENCHMARK.json
declares for the mode; the lines before it name each metric with its
unit and sample count, and record the environment. ``--smoke`` shrinks
every workload for the harness's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0   # every invocation must end within 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

PINNED_ENV = {
    "SEMMAP_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    return parser.parse_args(argv)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        **PINNED_ENV,
    }


def run_rep(config_path: Path, traced: bool, env: dict, timeout: float) -> dict:
    """Start one worker and return its result, or {"error": ...}."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(config_path), "1" if traced else "0"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err.strip()[-400:]}"}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line"}
    result["setup_s"] = result.pop("setup_end") - started
    return result


def patterns_ok(out_dir: Path, synth) -> float:
    """Share of planted doculects whose pattern and subpattern come out right."""
    got = {}
    for line in (out_dir / "classification.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("iso\t"):
            continue
        iso, pattern, subpattern = line.split("\t")[:3]
        got[iso] = (pattern, subpattern)
    expected = {
        iso: (pattern, synth.EXPECTED_SUBPATTERNS.get(iso, "_"))
        for iso, pattern in synth.EXPECTED_PATTERNS.items()
    }
    return sum(got.get(iso) == want for iso, want in expected.items()) / len(expected)


def measure(args, started: float) -> tuple[list[dict], int]:
    """Run repetitions for ``--seconds``; return them and the failure count."""
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    workload = table[args.workload]
    base = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    corpus_dir, out_dir = base / "corpus", base / "out"
    synth = workloads.load_synth(ROOT)
    anchors = workloads.generate(synth, workload, args.seed, corpus_dir)
    config_path = base / "config.json"
    config_path.write_text(json.dumps(
        workloads.config_dict(workload, corpus_dir, out_dir, anchors)), encoding="utf-8")
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}

    reps: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        timeout = HARD_LIMIT_S - (time.monotonic() - started)
        t0 = time.monotonic()
        rep = run_rep(config_path, traced, env, timeout)
        rep["traced"] = traced
        rep["wall_s"] = time.monotonic() - t0
        if "error" not in rep:
            try:
                rep["manifest"] = (out_dir / "manifest.tsv").read_text(encoding="utf-8")
                rep["patterns_ok"] = patterns_ok(out_dir, synth)
            except (OSError, ValueError) as exc:
                rep["error"] = f"bad outputs: {exc}"
        if "error" in rep:
            print(f"repetition {len(reps) + 1} failed: {rep['error']}", file=sys.stderr)
        reps.append(rep)
        elapsed = time.monotonic() - begin
        longest = max(r["wall_s"] for r in reps)
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and elapsed + longest > args.seconds:
            break
        if time.monotonic() - started + longest > HARD_LIMIT_S:
            break
    shutil.rmtree(base, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()

    # a repetition whose manifest differs from the most common one broke
    # the determinism rule
    manifests = Counter(r["manifest"] for r in reps if "error" not in r)
    if manifests:
        reference = manifests.most_common(1)[0][0]
        for r in reps:
            if "error" not in r and r["manifest"] != reference:
                r["error"] = "manifest differs from the other repetitions"
                print("a repetition's manifest differs", file=sys.stderr)
    return reps, sum("error" in r for r in reps)


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def report(args, reps: list[dict], failed: int) -> dict:
    """Print every metric BENCHMARK.json declares for this mode; return them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if args.trace:
        shares = {m: statistics.median(r["modules"].get(m, 0.0) / r["run_s"] for r in traced)
                  for m in {m for r in traced for m in r["modules"]} - {"pipeline"}}
        print("share of traced run_s by module: " + ", ".join(
            f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda t: -t[1])))
        for r in traced:
            r["layers"]["trace.run_s"] = r["run_s"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - median_of(plain, "run_s")
        samples = {name: len(traced) for name in units}
        samples["trace.overhead_s"] = len(traced) + len(plain)
    else:
        metrics = {name: median_of(plain, name) for name in units}
        samples = {name: len(plain) for name in units}
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]} (median of {samples[name]})")
    print(f"failed_share = {failed / len(reps):.6g} share ({failed} of {len(reps)} runs)")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "semmap" / "pipeline.py", ROOT / "tests" / "synth.py")
               if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args), sort_keys=True))
    reps, failed = measure(args, started)
    kinds = {r["traced"] for r in reps if "error" not in r}
    if kinds != ({False, True} if args.trace else {False}):
        print("no successful repetition to take a median of", file=sys.stderr)
        return 1
    metrics = report(args, reps, failed)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
