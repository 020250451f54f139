"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo", "--customers", "200", "--vendors", "25"]) == 0
    out = capsys.readouterr().out
    for name in ("RANDOM", "GREEDY", "RECON", "ONLINE"):
        assert name in out
    assert "INVALID" not in out


def test_calibrate(capsys):
    assert main(["calibrate", "--customers", "200", "--vendors", "25"]) == 0
    out = capsys.readouterr().out
    assert "gamma_min" in out
    assert "g " in out


def test_ratio(capsys):
    assert main(["ratio", "--instances", "4"]) == 0
    out = capsys.readouterr().out
    assert "RECON" in out
    assert "ONLINE" in out


def test_figure_with_exports(capsys, tmp_path):
    csv_path = tmp_path / "fig7.csv"
    json_path = tmp_path / "fig7.json"
    assert (
        main(
            [
                "figure",
                "7",
                "--scale",
                "0.01",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fig7 (a): total utility" in out
    assert csv_path.exists()
    assert json_path.exists()

    from repro.experiments.io import read_csv, read_json

    assert read_csv(csv_path).experiment == "fig7"
    assert read_json(json_path).experiment == "fig7"


def test_bounds(capsys):
    assert main(["bounds", "--customers", "200", "--vendors", "25"]) == 0
    out = capsys.readouterr().out
    assert "combined bound" in out
    assert "RECON" in out
    assert "%" in out


def test_reproduce_subset(capsys, tmp_path):
    code = main(
        [
            "reproduce",
            "--scale-multiplier",
            "0.2",
            "--figures",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert "running figure 7" in out
    assert "claims hold" in out
    assert (tmp_path / "fig7.txt").exists()
    assert code in (0, 1)  # shape checks may be noisy at tiny scale


def test_stats(capsys):
    assert main(["stats", "--customers", "200", "--vendors", "25"]) == 0
    out = capsys.readouterr().out
    assert "MUAA instance" in out
    assert "theta" in out


def test_stats_checkins(capsys):
    assert main(
        ["stats", "--customers", "300", "--vendors", "30", "--checkins"]
    ) == 0
    out = capsys.readouterr().out
    assert "valid pairs" in out


def test_demo_sharded(capsys):
    assert main(
        ["demo", "--customers", "200", "--vendors", "25", "--shards", "4"]
    ) == 0
    out = capsys.readouterr().out
    for name in ("GREEDY", "RECON", "ONLINE"):
        assert name in out
    assert "INVALID" not in out


def test_demo_trajectory_validates_offline_members(capsys, monkeypatch):
    import repro.core.validation as validation

    real = validation.validate_assignment
    calls = []

    def counting(problem, assignment):
        calls.append(assignment)
        return real(problem, assignment)

    monkeypatch.setattr(validation, "validate_assignment", counting)
    assert main(
        ["demo", "--customers", "200", "--vendors", "25",
         "--scenario", "trajectory"]
    ) == 0
    out = capsys.readouterr().out
    # RANDOM, GREEDY and RECON solve the static snapshot and are
    # checked; only NEAREST and ONLINE stream the moves.
    assert len(calls) == 3
    assert out.count("unchecked (moves)") == 2
    assert "INVALID" not in out


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro version" in out
    assert "cpu count" in out
    assert "start methods" in out
    assert "greedy-lp" in out
    assert "shard card" in out
    assert "replicated:" in out


def test_info_cluster_card(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "cluster card" in out
    assert "one process per shard" in out
    assert "restart-with-replay" in out


def test_serve_cluster_inline(capsys):
    assert (
        main(
            [
                "serve-cluster",
                "--customers", "120",
                "--vendors", "20",
                "--shards", "2",
                "--transport", "inline",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 shard(s)" in out
    assert "inline transport" in out
    assert "decisions: 120" in out


def test_serve_cluster_chaos_kill(capsys):
    assert (
        main(
            [
                "serve-cluster",
                "--customers", "120",
                "--vendors", "20",
                "--shards", "2",
                "--transport", "inline",
                "--kill-shard", "1",
                "--kill-tick", "60",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "killing shard 1 at tick 60" in out
    assert "1 restart(s)" in out


def test_serve_cluster_bad_kill_shard(capsys):
    assert (
        main(
            [
                "serve-cluster",
                "--customers", "40",
                "--vendors", "10",
                "--shards", "2",
                "--transport", "inline",
                "--kill-shard", "5",
            ]
        )
        == 2
    )


def test_info_shard_count(capsys):
    assert main(["info", "--shards", "2", "--customers", "300"]) == 0
    out = capsys.readouterr().out
    assert "--shards 2" in out
    assert "shard 0:" in out


def test_demo_trace_and_metrics(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.json"
    assert main(
        [
            "demo", "--customers", "150", "--vendors", "20",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert f"wrote trace {trace_path}" in out
    assert f"wrote metrics {metrics_path}" in out
    trace = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])
    metrics = json.loads(metrics_path.read_text())
    assert "counters" in metrics

    # the recorder must be uninstalled once the command returns
    from repro.obs.recorder import recorder

    assert not recorder().enabled


def test_obs_summary_of_recorded_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(
        [
            "demo", "--customers", "150", "--vendors", "20",
            "--trace", str(trace_path),
        ]
    ) == 0
    capsys.readouterr()
    before = trace_path.read_bytes()
    assert main(["obs", "summary", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "stage" in out and "p99" in out
    assert "stream.decision" in out
    # summarising must never record over its input
    assert trace_path.read_bytes() == before


def test_obs_summary_empty_trace_fails(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"traceEvents": []}')
    assert main(["obs", "summary", str(path)]) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_figure_out_of_range_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "12"])


def test_build_artifact_and_demo_warm_load(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ["--customers", "200", "--vendors", "25", "--seed", "7"]
    assert main(["build-artifact", *args, "--out", cache]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "edges" in out

    assert main(["demo", *args, "--artifact", cache]) == 0
    out = capsys.readouterr().out
    assert "1 warm load(s), 0 build(s)" in out
    assert "INVALID" not in out


def test_demo_artifact_cache_cold_then_warm(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ["demo", "--customers", "200", "--vendors", "25",
            "--artifact", cache]
    assert main(args) == 0
    assert "0 warm load(s), 1 build(s)" in capsys.readouterr().out
    assert main(args) == 0
    assert "1 warm load(s), 0 build(s)" in capsys.readouterr().out


def test_demo_float32_dtype(capsys):
    assert main(["demo", "--customers", "200", "--vendors", "25",
                 "--dtype", "float32"]) == 0
    assert "INVALID" not in capsys.readouterr().out


def test_build_artifact_sharded_store_and_serve(capsys, tmp_path):
    store = str(tmp_path / "store")
    args = ["--customers", "300", "--vendors", "30", "--seed", "7"]
    assert main([
        "build-artifact", *args, "--shards", "2",
        "--radius", "0.15", "0.25", "--prune", "exact", "--out", store,
    ]) == 0
    out = capsys.readouterr().out
    assert "plan.json" in out
    assert "shard-0001.cols" in out
    assert "pruned" in out

    assert main([
        "serve-cluster", *args, "--shards", "2",
        "--transport", "inline", "--artifact", store,
    ]) == 0
    out = capsys.readouterr().out
    assert "artifact store:" in out
    assert "cluster: 2 shard(s)" in out


def test_info_scale_card(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "scale card" in out
    assert "dtype policies" in out
    assert "artifact store" in out
    assert "edge pruning" in out
