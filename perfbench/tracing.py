"""Spans recorded from the benchmark's side of each layer boundary.

End-to-end timings never depend on this module: they are read with
``time.perf_counter`` around the same calls while the shared no-op
recorder is installed.  A traced run installs ``repro.obs.observed()``
instead; then

* :func:`span` opens a ``<layer>.<call>`` span around a call the
  benchmark makes itself, and
* :func:`wrap_internal_calls` wraps the public functions the program
  calls on the benchmark's behalf (churn deltas and customer moves
  inside ``OnlineSimulator.run``, pruning and saving inside
  ``save_sharded``, loading and warming inside
  ``ShardedEngine.warm_all``) so they get a span of their own.

The wrappers are installed only for the traced run and removed after
it.  :func:`layer_metrics` turns the written trace -- the same
Chrome-trace file ``repro obs summary`` reads -- into the per-layer
metrics.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.obs import recorder
from repro.obs.trace import Span


@contextmanager
def span(name: str, **args: object) -> Iterator[Dict[str, object]]:
    """A ``name`` span when tracing, nothing otherwise.

    Yields a dict the caller may fill with result attributes (counts,
    sizes); they land in the span's args when the span is recorded.
    """
    extra: Dict[str, object] = {}
    rec = recorder()
    if not rec.enabled:
        yield extra
        return
    with rec.span(name, **args) as recorded:
        try:
            yield extra
        finally:
            recorded.args.update(extra)


@contextmanager
def wrap_internal_calls() -> Iterator[None]:
    """Give program-internal calls into public functions their spans."""
    import repro.store as store
    import repro.store.artifact as artifact
    from repro.core.problem import MUAAProblem
    from repro.engine.engine import ComputeEngine

    apply_churn = MUAAProblem.apply_churn
    move_customer = MUAAProblem.move_customer
    reset_moves = MUAAProblem.reset_moves
    warm = ComputeEngine.warm
    prune = ComputeEngine.prune
    load_engine = store.load_engine
    save_engine = artifact.save_engine

    def traced_apply_churn(problem, event):
        with span("churn.MUAAProblem.apply_churn", kind=event.kind):
            return apply_churn(problem, event)

    def traced_move_customer(problem, customer_id, new_location):
        with span("core.MUAAProblem.move_customer"):
            return move_customer(problem, customer_id, new_location)

    def traced_reset_moves(problem):
        with span("core.MUAAProblem.reset_moves") as out:
            out["restored"] = reset_moves(problem)
            return out["restored"]

    def traced_warm(engine):
        with span("engine.ComputeEngine.warm") as out:
            out["edges"] = warm(engine)
            return out["edges"]

    def traced_prune(engine, level="exact"):
        # ``prune`` builds the edge table and pair bases lazily; build
        # them first so the build and the prune are timed apart.
        with span("engine.build") as built:
            built["edges"] = len(engine.edges)
            engine.pair_bases
        with span("engine.ComputeEngine.prune", level=level) as out:
            certificate = prune(engine, level)
            out["edges_before"] = certificate.edges_before
            out["edges_after"] = certificate.edges_after
            return certificate

    def traced_load_engine(path, problem, *args, **kwargs):
        with span("store.load_engine") as out:
            engine = load_engine(path, problem, *args, **kwargs)
            out["edges"] = engine.num_edges
            return engine

    def traced_save_engine(engine, path, *args, **kwargs):
        with span("store.save_engine") as out:
            written = save_engine(engine, path, *args, **kwargs)
            out["bytes"] = written.stat().st_size
            return written

    patches = [
        (MUAAProblem, "apply_churn", traced_apply_churn),
        (MUAAProblem, "move_customer", traced_move_customer),
        (MUAAProblem, "reset_moves", traced_reset_moves),
        (ComputeEngine, "warm", traced_warm),
        (ComputeEngine, "prune", traced_prune),
        (store, "load_engine", traced_load_engine),
        (artifact, "save_engine", traced_save_engine),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Trace -> per-layer metrics
# ----------------------------------------------------------------------
def _closed(spans: Sequence[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name and s.end is not None]


def _total(spans: Sequence[Span], name: str) -> float:
    return float(sum(s.duration for s in _closed(spans, name)))


def _arg_total(spans: Sequence[Span], name: str, key: str) -> float:
    return float(sum(float(s.args.get(key, 0)) for s in _closed(spans, name)))


def _quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q)) if len(values) else 0.0


def _within(spans: Sequence[Span], name: str, outer: Span) -> List[Span]:
    return [
        s for s in _closed(spans, name)
        if s.start >= outer.start and s.end <= outer.end
    ]


def _only(spans: Sequence[Span], name: str, **match: object) -> Optional[Span]:
    for s in _closed(spans, name):
        if all(s.args.get(k) == v for k, v in match.items()):
            return s
    return None


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Every per-layer metric, from the spans of one traced iteration.

    A layer the workload does not exercise reads 0.
    """
    out: Dict[str, float] = {}
    out["datagen.s"] = _total(spans, "datagen.synthetic_problem")

    out["engine.build_s"] = _total(spans, "engine.build")
    out["engine.edges"] = _arg_total(spans, "engine.build", "edges")
    out["engine.warm_s"] = _total(spans, "engine.ComputeEngine.warm")
    out["engine.prune_s"] = _total(spans, "engine.ComputeEngine.prune")
    before = _arg_total(spans, "engine.ComputeEngine.prune", "edges_before")
    after = _arg_total(spans, "engine.ComputeEngine.prune", "edges_after")
    out["engine.pruned_share"] = (before - after) / before if before else 0.0

    out["sharding.plan_s"] = _total(spans, "sharding.ShardPlan.build")
    plan = _closed(spans, "sharding.ShardPlan.build")
    out["sharding.edge_skew"] = (
        float(plan[0].args.get("edge_skew", 0.0)) if plan else 0.0
    )

    out["store.save_s"] = _total(spans, "store.save_engine")
    out["store.load_s"] = _total(spans, "store.load_engine")
    out["store.bytes"] = _arg_total(spans, "store.save_engine", "bytes")
    out["store.shards_paged"] = _arg_total(
        spans, "engine.ShardedEngine.warm_all", "shards_paged"
    )

    for solver in ("random", "nearest", "greedy", "recon"):
        name = f"algorithms.{solver.upper()}.run"
        out[f"algorithms.{solver}_s"] = _total(spans, name)
        out[f"algorithms.{solver}_instances"] = _arg_total(
            spans, name, "instances"
        )
    out["algorithms.calibrate_s"] = _total(spans, "algorithms.calibrate")

    stream_runs = _closed(spans, "stream.OnlineSimulator.run")
    first = stream_runs[0].args if stream_runs else {}
    out["stream.decision_p50_us"] = float(first.get("decision_p50_us", 0.0))
    out["stream.decision_p99_us"] = float(first.get("decision_p99_us", 0.0))
    out["stream.decision_samples"] = float(first.get("decisions", 0))
    out["stream.commits"] = float(first.get("commits", 0))
    out["stream.rejected_instances"] = float(first.get("rejected", 0))
    out["stream.served_share"] = float(first.get("served_share", 0.0))
    out["stream.vendors_deactivated"] = float(first.get("deactivated", 0))

    churn = [s.duration * 1e3 for s in _closed(
        spans, "churn.MUAAProblem.apply_churn")]
    out["churn.events"] = float(len(churn))
    out["churn.apply_ms_p50"] = _quantile(churn, 0.5)
    out["churn.apply_ms_max"] = max(churn) if churn else 0.0

    moves = [s.duration * 1e3 for s in _closed(
        spans, "core.MUAAProblem.move_customer")]
    out["core.moves"] = float(len(moves))
    out["core.move_customer_ms_p50"] = _quantile(moves, 0.5)
    out["core.reset_moves_s"] = _total(spans, "core.MUAAProblem.reset_moves")
    out["core.validate_s"] = _total(spans, "core.validate_assignment")

    nominal = _only(spans, "serve.ReplayDriver.run", point="nominal")
    batches = _within(spans, "serve.batch", nominal) if nominal else []
    batch_ms = [s.duration * 1e3 for s in batches]
    args = nominal.args if nominal else {}
    out["serve.batches"] = float(len(batches))
    out["serve.mean_batch_size"] = (
        float(np.mean([float(s.args.get("size", 0)) for s in batches]))
        if batches else 0.0
    )
    out["serve.batch_ms_p50"] = _quantile(batch_ms, 0.5)
    out["serve.batch_ms_p99"] = _quantile(batch_ms, 0.99)
    out["serve.shed"] = float(args.get("shed", 0))
    out["serve.expired"] = float(args.get("expired", 0))
    out["serve.rate_limited"] = float(args.get("rate_limited", 0))
    out["serve.replay_wall_s"] = (
        nominal.duration - sum(batch_ms) / 1e3 if nominal else 0.0
    )
    return out
