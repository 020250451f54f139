"""Run one benchmark workload for one seed.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload offline-plan --seed 1 \\
        --seconds 30 --trace 0

The run repeats iterations -- one cold set-up plus one pass of the
workload -- until ``--seconds`` have passed and every market ran.  The
iterations take turns over the workload's ``markets`` markets made from
the seed, and each figure is the mean over the markets of the median
over that market's iterations, so that one run does not stand for one
market.  Each iteration is timed on its own
:class:`pace.PacedClock`: CPU time at a reference core speed, so that
a shared host's drifting core speed cancels out.  It prints a
report (every end-to-end metric by name, with unit, direction and
sample count), writes a stamped result record under ``.perfbench-out/``
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, timed with tracing off.  With ``--trace 1`` a
warm-up, a traced and an untraced iteration run; the traced one
records a Chrome trace (readable with ``repro obs summary``) and every
per-layer metric is computed from that file, plus
``obs.overhead_share``.

A failed output check prints what failed, reports no numbers and exits
with code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One process, no helper threads: pin the numeric libraries before any
# of them is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pace import PacedClock  # noqa: E402  (after the thread pins)

ROOT = Path.cwd()
OUT = ROOT / ".perfbench-out"
#: Later performance claims must also hold on this seed, which was not
#: used while the benchmark or a change was being tuned.
HELD_OUT_SEED = 31337


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _stamp(args, params) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "markets": [_market_seed(args.seed, i, params["markets"])
                    for i in range(params["markets"])],
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _market_seed(seed: int, index: int, markets: int) -> int:
    """The seed of the market iteration ``index`` of a run runs on."""
    return seed * markets + index % markets


def _by_market(iterations) -> dict:
    markets: dict = {}
    for values, _ in iterations:
        markets.setdefault(values["market"], []).append(values)
    return markets


def _figure(iterations, key) -> float:
    """Mean over the markets of the median over each one's iterations."""
    return statistics.fmean(
        statistics.median(values[key] for values in runs)
        for runs in _by_market(iterations).values()
    )


def _consistency(iterations) -> list:
    """Same market, same inputs: every iteration on a market must commit
    the same utility (serving too, whenever nothing was refused, since
    batched scoring equals the sequential stream at any batch split)."""
    failures = []
    for market, runs in _by_market(iterations).items():
        utilities = {values["utility"] for values in runs
                     if not values.get("refused")}
        if len(utilities) > 1:
            failures.append(f"market {market}: utility differs between "
                            f"iterations: {sorted(utilities)}")
    return failures


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = {"stamp": _stamp(args, workload.params)}
    print("stamp: " + json.dumps(record["stamp"], sort_keys=True))

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            iterations, metrics = _traced(args, workload, workdir)
        else:
            iterations = _untraced(args, workload, workdir)
            metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for _, failed in iterations for f in failed]
    failures += _consistency(iterations)
    attempted = int(sum(values["attempted"] for values, _ in iterations))
    failed = int(sum(values["failed"] for values, _ in iterations))
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    rss = _peak_rss_mb()
    # The report times untraced iterations only.
    iterations = [it for it in iterations if not it[0].get("traced")]
    n = len(iterations)
    markets = len(_by_market(iterations))
    print(f"{args.workload}: seed {args.seed}, {n} iterations over "
          f"{markets} markets")
    report = {}
    for name, unit, better, per_iteration in workload.report:
        samples = (f"mean over {markets} markets of medians, "
                   f"{n} iterations")
        if per_iteration:
            samples += f" of {per_iteration} each"
        report[name] = {"value": _figure(iterations, name), "unit": unit,
                        "better": better, "samples": samples}
    report["peak_rss_mb"] = {"value": rss, "unit": "MB", "better": "lower",
                             "samples": "process high-water mark"}
    for name, entry in report.items():
        print(f"  {name:20s} {entry['value']:16.6f} {entry['unit']:8s} "
              f"({entry['better']} is better; {entry['samples']})")
    record["report"] = report

    for name, (key, what) in workload.end_to_end.items():
        print(f"  BENCHMARK.json {name} = {key}: {what}")
    if metrics is None:
        values = {
            name: _figure(iterations, key)
            for name, (key, _) in workload.end_to_end.items()
        }
        values["peak_rss_mb"] = rss
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in _units("end_to_end").items()
        }
    record["metrics"] = metrics
    record["iterations"] = [values for values, _ in iterations]
    path = OUT / (f"result-{args.workload}-seed{args.seed}-"
                  f"trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"result record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _units(section: str) -> dict:
    """Metric name -> unit of one BENCHMARK.json metric list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _release() -> None:
    """Drop the last iteration's garbage, outside any timing, so each
    iteration starts from the same heap."""
    gc.collect()


def _iterate(iterate, seed, workdir):
    """One iteration on market ``seed``, on its own paced clock; also
    returns the clock's reading of the whole iteration."""
    with PacedClock() as clock:
        began = clock()
        values, failed = iterate(seed, workdir, clock)
        values["market"] = seed
        return (values, failed), clock() - began


def _untraced(args, workload, workdir):
    iterations = []
    began = perf_counter()
    markets = workload.params["markets"]
    while (len(iterations) < markets
           or perf_counter() - began < args.seconds):
        seed = _market_seed(args.seed, len(iterations), markets)
        iterations.append(_iterate(workload.iterate, seed, workdir)[0])
        _release()
    return iterations


def _traced(args, workload, workdir):
    from repro.obs import observed, spans_from_chrome_trace

    from tracing import layer_metrics, wrap_internal_calls

    # A warm-up iteration first, so that the traced iteration and the
    # untraced one it is compared with both run in a warm process.
    # All three run on the run's first market.
    iterate = workload.iterate
    seed = _market_seed(args.seed, 0, workload.params["markets"])
    iterations = [_iterate(iterate, seed, workdir)[0]]
    _release()
    trace = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with observed() as rec, wrap_internal_calls():
        iteration, traced = _iterate(iterate, seed, workdir)
    iterations.append(iteration)
    iterations[-1][0]["traced"] = True
    rec.write_trace(trace)
    del rec
    _release()
    iteration, untraced = _iterate(iterate, seed, workdir)
    iterations.append(iteration)
    name = trace.relative_to(ROOT)
    print(f"trace: {name} (read with: python -m repro obs summary {name})")
    layers = layer_metrics(spans_from_chrome_trace(trace))
    layers["obs.overhead_share"] = traced / untraced - 1.0
    metrics = {
        name: {"value": layers[name], "unit": unit}
        for name, unit in _units("per_layer").items()
    }
    return iterations, metrics


if __name__ == "__main__":
    sys.exit(main())
