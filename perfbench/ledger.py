"""Measure several seeds, keep a ledger of results, compare entries.

Run from the root of a checkout::

    # Run every workload on seeds 1..10 and print each end-to-end
    # metric's median and its spread across the seeds against its
    # bound (exit 1 when a spread, setup_s's too, exceeds its bound).
    python3 perfbench/ledger.py measure --seeds 1-10

    # The same, and append the medians and the per-seed values to
    # perfbench/ledger.json.
    python3 perfbench/ledger.py measure --seeds 1-10 --record "label"

    # Compare the last ledger entry with an earlier one (default: the
    # one before it): medians against the bounds and, when both ran the
    # same seeds, the per-seed changes.  A per-seed utility_share loss
    # beyond UTILITY_TOLERANCE also counts as worse.  Entries taken at
    # another cpu_count are reported as not comparable.
    python3 perfbench/ledger.py compare [--base N] [--head M]

Runs are made one after another, each in its own process, with the
``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
LEDGER = Path(__file__).resolve().parent / "ledger.json"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int) -> dict:
    command = _spec()["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({done.returncode}):\n"
            f"{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    record = ROOT / ".perfbench-out" / (
        f"result-{workload}-seed{seed}-trace0.json")
    result["record"] = json.loads(record.read_text())
    return result


def _quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure(args) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = _seeds(args.seeds)
    entry = {"label": args.record, "seeds": seeds,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed} done", file=sys.stderr)
        stamp = runs[0]["record"]["stamp"]
        for key in ("cpu_count", "git_sha", "src_digest", "python", "numpy",
                    "held_out_seed"):
            entry[key] = stamp[key]
        summary = {}
        print(f"{workload} ({len(seeds)} seeds)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median
            # Every metric is judged, setup_s too.
            within = spread <= metric["bound"]
            steady &= within
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "values": values, "unit": metric["unit"],
                             "better": metric["better"]}
            verdict = ("steady" if spread < metric["bound"] / 3 else
                       "within bound" if within else "TOO WIDE")
            print(f"  {name:14s} median {median:14.6f} {metric['unit']:8s}"
                  f" spread {spread:7.4f} (bound {metric['bound']}, "
                  f"{verdict})")
        report = {}
        for name in runs[0]["record"]["report"]:
            values = [run["record"]["report"][name]["value"] for run in runs]
            report[name] = statistics.median(values)
        entry["workloads"][workload] = {
            "params": stamp["params"], "end_to_end": summary,
            "report": report,
        }
    if args.record:
        ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {
            "entries": []}
        ledger["entries"].append(entry)
        LEDGER.write_text(json.dumps(ledger, indent=2) + "\n")
        print(f"appended entry {len(ledger['entries']) - 1} to {LEDGER}")
    return 0 if steady else 1


#: A per-seed loss of committed-utility share beyond this is reported
#: as worse.  Utility is deterministic per seed (serve-burst's moves
#: only with the few requests a stall sheds), so the same code repeats
#: it to well within this; the BENCHMARK.json bound has to be wider
#: because it must hold the spread across different seeds.
UTILITY_TOLERANCE = 0.01


def _loss(metric: dict, old: float, new: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def compare(args) -> int:
    entries = json.loads(LEDGER.read_text())["entries"]
    head = entries[args.head]
    base = entries[args.base if args.base is not None else args.head - 1]
    if head["cpu_count"] != base["cpu_count"]:
        print(f"not comparable: cpu_count {base['cpu_count']} (base) vs "
              f"{head['cpu_count']} (head)")
        return 2
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    same_seeds = head["seeds"] == base["seeds"]
    worse = 0
    for workload, now in head["workloads"].items():
        before = base["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in the base entry")
            continue
        for name, metric in now["end_to_end"].items():
            if name not in before["end_to_end"]:
                print(f"{workload:13s} {name:14s} not in the base entry")
                continue
            old = before["end_to_end"][name]["median"]
            loss = _loss(metric, old, metric["median"])
            verdict = "worse" if loss > bounds[name] else "within bound"
            worse += verdict == "worse"
            line = (f"{workload:13s} {name:14s} {old:14.6f} -> "
                    f"{metric['median']:14.6f} ({-loss:+.2%}, {verdict})")
            # Repeat runs of the same seeds: the per-seed changes show
            # the run-to-run noise of one market, which the spread
            # across markets hides.
            pairs = list(zip(before["end_to_end"][name].get("values", ()),
                             metric.get("values", ())))
            if same_seeds and pairs:
                losses = [_loss(metric, a, b) for a, b in pairs]
                line += (f"; per seed: median {-statistics.median(losses):+.2%}"
                         f", worst {-max(losses):+.2%}")
                if name == "utility_share" and max(losses) > UTILITY_TOLERANCE:
                    worse += 1
                    line += " (worse)"
            print(line)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("measure")
    run.add_argument("--workloads", default="all")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--record", default=None, metavar="LABEL")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("--base", type=int, default=None)
    cmp_.add_argument("--head", type=int, default=-1)
    args = parser.parse_args(argv)
    return measure(args) if args.command == "measure" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
