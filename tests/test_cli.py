"""The ``python -m repro`` command-line interface."""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


class TestCli:
    def test_info_all(self, capsys):
        assert main(["--scale", "0.05", "info"]) == 0
        out = capsys.readouterr().out
        for name in ("retailer", "favorita", "yelp", "tpcds"):
            assert name in out

    def test_info_single(self, capsys):
        assert main(["--scale", "0.05", "info", "favorita"]) == 0
        out = capsys.readouterr().out
        assert "favorita" in out and "retailer" not in out

    def test_info_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["info", "nonexistent"])

    def test_run_covar(self, capsys):
        assert main(["--scale", "0.05", "run", "favorita", "covar"]) == 0
        out = capsys.readouterr().out
        assert "covar on favorita" in out
        assert "executed in" in out
        assert "A+I" in out

    def test_run_cube(self, capsys):
        assert main(["--scale", "0.05", "run", "yelp", "cube"]) == 0
        assert "cube on yelp" in capsys.readouterr().out

    def test_run_rejects_threads(self):
        with pytest.raises(SystemExit):
            main(["run", "favorita", "covar", "--threads", "2"])

    def test_run_needs_some_workload(self):
        with pytest.raises(SystemExit, match="workload"):
            main(["--scale", "0.05", "run", "favorita"])

    def test_run_workloads_fused_with_cache(self, capsys):
        assert main(
            [
                "--scale", "0.05",
                "run", "retailer",
                "--workloads", "covar,linreg,trees",
                "--fuse", "--cache-mb", "32",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fused DAG:" in out and "views shared" in out
        for name in ("covar", "linreg", "trees"):
            assert name in out
        assert "view cache:" in out
        # a cold fused run misses every cacheable view
        match = re.search(r"per-view report \(fused\): 0 hits, (\d+) misses", out)
        assert match and int(match.group(1)) > 0
        assert re.search(r"^\s+miss\s+V\d+\[", out, re.MULTILINE)

    def test_run_workloads_independent_shares_through_cache(self, capsys):
        assert main(
            [
                "--scale", "0.05",
                "run", "retailer",
                "--workloads", "covar,linreg",
                "--cache-mb", "32",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "independent execution" in out
        # linreg's report must show hits served from covar's views
        match = re.search(r"per-view report linreg: (\d+) hits", out)
        assert match, out
        assert int(match.group(1)) > 0, "linreg served no views from covar"

    def test_run_workloads_without_cache(self, capsys):
        assert main(
            [
                "--scale", "0.05",
                "run", "favorita",
                "--workloads", "covar,linreg", "--fuse",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fused DAG:" in out
        assert "view cache:" not in out

    def test_run_workloads_rejects_both_forms(self):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "--scale", "0.05",
                    "run", "favorita", "covar",
                    "--workloads", "covar,linreg",
                ]
            )

    def test_run_workloads_rejects_incremental(self):
        with pytest.raises(SystemExit, match="single workload"):
            main(
                [
                    "--scale", "0.05",
                    "run", "favorita",
                    "--workloads", "covar,linreg", "--incremental",
                ]
            )

    def test_run_incremental(self, capsys):
        assert main(
            ["--scale", "0.05", "run", "favorita", "covar", "--incremental"]
        ) == 0
        out = capsys.readouterr().out
        assert "maintained and re-served in" in out
        assert "[incremental]" in out
        assert "faster than full re-evaluation" in out

    def test_run_single_linreg_workload(self, capsys):
        assert main(["--scale", "0.05", "run", "favorita", "linreg"]) == 0
        assert "linreg on favorita" in capsys.readouterr().out

    def test_plan_mi(self, capsys):
        assert main(["--scale", "0.05", "plan", "favorita", "mi"]) == 0
        out = capsys.readouterr().out
        assert "join tree:" in out and "Table 2 row:" in out

    def test_plan_shows_each_groups_liveness(self, capsys):
        from repro import LMFAO
        from repro.__main__ import _build_workload
        from repro.datasets import retailer
        from repro.engine.plan import DotStep

        assert main(["--scale", "0.05", "plan", "retailer", "covar"]) == 0
        out = capsys.readouterr().out
        shown = {
            int(group): (int(steps), int(live))
            for group, steps, live in re.findall(
                r"group (\d+) @ \w+ computes views \[[\d, ]*\]  "
                r"steps: (\d+), peak live arrays: (\d+)",
                out,
            )
        }
        ds = retailer(scale=0.05)
        engine = LMFAO(ds.database, ds.join_tree)
        plan = engine.plan(_build_workload(ds, engine, "covar"))
        assert shown == {
            p.group.id: (len(p.steps), p.peak_live) for p in plan.group_plans
        }
        # each group's DotSteps and the scalar sums they fold
        dots = [
            [s for s in p.steps if isinstance(s, DotStep)]
            for p in plan.group_plans
        ]
        assert re.findall(r"dot products: (\d+) folding (\d+) sums", out) == [
            (str(len(d)), str(sum(len(s.outs) for s in d))) for d in dots
        ]
        assert any(dots)
        # liveness is what keeps a group's arrays below its step count; a
        # DotStep writes one var per sum it folds, so a group with DotSteps
        # is bounded by the vars its steps write instead
        for p, d in zip(plan.group_plans, dots):
            if d:
                assert p.peak_live < sum(len(s.writes) for s in p.steps)
            else:
                assert p.peak_live < len(p.steps)

    def test_sql_covar(self, capsys):
        assert main(["--scale", "0.05", "sql", "favorita", "covar"]) == 0
        out = capsys.readouterr().out
        assert "CREATE VIEW" in out and "GROUP BY" in out

    def test_run_rt_node(self, capsys):
        assert main(["--scale", "0.05", "run", "tpcds", "rt_node"]) == 0
        assert "rt_node on tpcds" in capsys.readouterr().out


class TestServeCli:
    def test_serve_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["serve", "nonexistent"])

    def test_serve_rejects_threads(self):
        with pytest.raises(SystemExit):
            main(["serve", "favorita", "--threads", "2"])

    @pytest.mark.parametrize(
        "option", [["--coalesce-ms", "5"], ["--max-batch", "4"]]
    )
    def test_serve_has_no_batching_knobs(self, option, capsys):
        # batches form from the backlog; there is no window or cap to set
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "favorita", *option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_client_query_needs_dataset_and_workloads(self):
        with pytest.raises(SystemExit, match="client query needs"):
            main(["client", "query"])

    def test_client_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            main(["client", "reboot"])

    def test_serve_and_client_round_trip(self, capsys):
        """The serve command's service, driven through the HTTP client."""
        import threading

        from repro.datasets import ALL_DATASETS
        from repro.__main__ import build_service
        from repro.server.http import make_http_server

        class Args:
            dataset = "favorita"
            scale = 0.05
            max_queue = 64
            cache_mb = 8.0

        dataset = ALL_DATASETS["favorita"](scale=0.05)
        service = build_service(Args, dataset)
        server = make_http_server(service, "127.0.0.1", 0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            port = str(server.server_address[1])
            assert main(["client", "health", "--port", port]) == 0
            assert '"status": "ok"' in capsys.readouterr().out
            assert main(
                ["client", "query", "favorita", "covar", "--port", port]
            ) == 0
            out = capsys.readouterr().out
            assert '"epoch": 0' in out and '"covar"' in out
            assert main(["client", "stats", "--port", port]) == 0
            assert '"coalescer"' in capsys.readouterr().out
        finally:
            server.shutdown()
            server.server_close()
            service.close()


def start_server(data_dir, port_holder):
    """``repro serve favorita --data-dir`` in a child that starts with
    SIGINT ignored, as a background job of a non-interactive shell does;
    returns the process once it has printed the port it serves on."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--scale", "0.05",
            "serve", "favorita", "--port", "0", "--data-dir", str(data_dir),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    lines = []
    for line in process.stdout:
        lines.append(line)
        match = re.search(r"on http://[\d.]+:(\d+)", line)
        if match:
            port_holder.append(int(match.group(1)))
            return process, lines
    process.wait(timeout=60)
    raise AssertionError("".join(lines))


def stop_with_sigterm(process, lines):
    process.send_signal(signal.SIGTERM)
    try:
        out, _ = process.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        process.kill()  # never leave a server behind
        process.communicate()
        raise
    return process.returncode, "".join(lines) + out


class TestServeShutdown:
    """A server whose SIGINT is ignored still shuts down cleanly on
    SIGTERM: it drains, closes its WAL, and restarts at the same epoch."""

    def test_sigterm_stops_a_server_that_ignores_sigint(self, tmp_path):
        from repro.server import AnalyticsClient

        ports = []
        process, lines = start_server(tmp_path, ports)
        try:
            status = Path(f"/proc/{process.pid}/status")
            if status.exists():
                ignored = re.search(
                    r"^SigIgn:\s*([0-9a-f]+)$", status.read_text(), re.M
                )
                assert int(ignored.group(1), 16) & (1 << (signal.SIGINT - 1))
            client = AnalyticsClient(port=ports[0], retries=2)
            client.wait_ready(timeout=120)
            row = {"date": [1], "store": [1], "item": [1],
                   "units": [5.0], "promo": [0]}
            assert client.delta("favorita", "Sales", inserts=row)[
                "epoch"
            ] == 1
        finally:
            code, out = stop_with_sigterm(process, lines)
        assert code == 0, out
        assert "shutting down" in out

        ports = []
        process, lines = start_server(tmp_path, ports)
        try:
            client = AnalyticsClient(port=ports[0], retries=2)
            client.wait_ready(timeout=120)
            stats = client.stats()["datasets"]["favorita"]
            assert stats["epoch"] == 1, stats
            assert stats["storage"]["recovery"]["replayed_commits"] == 1
        finally:
            code, out = stop_with_sigterm(process, lines)
        assert code == 0, out
