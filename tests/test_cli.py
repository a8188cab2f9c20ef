"""The ``python -m repro`` command-line interface."""

import re

import pytest

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
            coalesce_ms = 2.0
            max_batch = 16
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
