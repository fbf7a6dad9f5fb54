"""Tests for the command-line interface."""

import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, load_workload, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCommands:
    def test_info(self):
        code, text = run_cli("info", "--workload", "social", "--n", "120")
        assert code == 0
        assert "doubling dim" in text and "spread" in text

    def test_triangles(self):
        code, text = run_cli("triangles", "--n", "150", "--tau", "6", "--top", "2")
        assert code == 0
        assert "durable triangles:" in text

    def test_triangles_count_only(self):
        code, text = run_cli("triangles", "--n", "150", "--tau", "6", "--count-only")
        assert code == 0
        assert "durable triangles:" in text
        assert "(" not in text.split("durable triangles:")[1]

    def test_count_matches_query(self):
        _, full = run_cli("triangles", "--n", "150", "--tau", "6")
        _, count = run_cli("triangles", "--n", "150", "--tau", "6", "--count-only")
        n_full = int(full.split("durable triangles: ")[1].split("\n")[0])
        n_count = int(count.split("durable triangles: ")[1].split("\n")[0])
        assert n_full == n_count

    def test_cliques(self):
        code, text = run_cli("cliques", "--n", "120", "--tau", "4", "--m", "3")
        assert code == 0
        assert "durable 3-cliques:" in text

    def test_pairs_sum(self):
        code, text = run_cli("pairs-sum", "--n", "120", "--tau", "6")
        assert code == 0
        assert "SUM-durable pairs:" in text

    def test_pairs_union(self):
        code, text = run_cli("pairs-union", "--n", "120", "--tau", "6", "--kappa", "2")
        assert code == 0
        assert "UNION-durable pairs:" in text

    def test_stream(self):
        code, text = run_cli("stream", "--n", "120", "--tau", "6")
        assert code == 0
        assert "streamed triangles:" in text

    def test_stream_vector_backend_streams_the_grid_cells(self):
        # The dynamic structure builds its decomposition by backend name,
        # and the "vector" name builds the grid's cells.
        lines = []
        for backend in ("grid", "vector"):
            code, text = run_cli(
                "stream", "--n", "150", "--tau", "3", "--backend", backend
            )
            assert code == 0
            lines.append(text[text.index("streamed triangles:"):])
        assert lines[0] == lines[1]

    def test_error_exit_code(self):
        code, _ = run_cli("triangles", "--n", "50", "--tau", "-3")
        assert code == 2


class TestWorkloadLoading:
    def test_csv_loading(self, tmp_path):
        rows = np.column_stack(
            [
                np.random.default_rng(0).uniform(0, 3, size=(30, 2)),
                np.arange(30, dtype=float),
                np.arange(30, dtype=float) + 5,
            ]
        )
        path = tmp_path / "points.csv"
        np.savetxt(path, rows, delimiter=",")
        code, text = run_cli("triangles", "--csv", str(path), "--tau", "2")
        assert code == 0
        assert "n=30" in text

    def test_csv_too_few_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.zeros((5, 2)), delimiter=",")
        code, _ = run_cli("info", "--csv", str(path))
        assert code == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_named_workloads(self):
        for name, dim in [("uniform", 2), ("social", 2), ("coauthor", 6)]:
            args = build_parser().parse_args(["info", "--workload", name, "--n", "50"])
            tps = load_workload(args)
            assert tps.n == 50 and tps.dim == dim


QUERIES = [
    {"kind": "triangles", "taus": [3, 6]},
    {"kind": "triangles", "tau": 4},
    {"kind": "pairs-sum", "tau": 5},
    {"kind": "pairs-union", "tau": 5, "kappa": 2},
    {"kind": "cliques", "tau": 4, "m": 3, "label": "triads"},
]


class TestBatchCommand:
    def test_batch_list_file(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(QUERIES))
        code, text = run_cli("batch", str(path), "--n", "100")
        assert code == 0
        assert "5 queries, 4 distinct indexes" in text
        assert "(triads)" in text

    def test_batch_dataset_in_file(self, tmp_path):
        path = tmp_path / "queries.json"
        path.write_text(
            json.dumps(
                {
                    "dataset": {"workload": "social", "n": 80, "seed": 1},
                    "queries": QUERIES,
                }
            )
        )
        code, text = run_cli("batch", str(path))
        assert code == 0
        assert "n=80" in text

    def test_batch_json_output(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps(QUERIES))
        out = tmp_path / "results.json"
        code, _ = run_cli(
            "batch", str(qfile), "--n", "100", "--output", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["distinct_indexes"] == 4
        assert len(payload["queries"]) == len(QUERIES)
        assert payload["dataset"]["n"] == 100
        sweep = payload["queries"][0]["results"]
        assert [e["tau"] for e in sweep] == [3.0, 6.0]

    def test_batch_output_to_stdout(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps(QUERIES[:1]))
        code, text = run_cli(
            "batch", str(qfile), "--n", "80", "--output", "-", "--no-records"
        )
        assert code == 0
        payload = json.loads(text[text.index("{"):])
        assert "records" not in payload["queries"][0]["results"][0]

    def test_batch_matches_single_query_commands(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([{"kind": "triangles", "tau": 6}]))
        _, batch_text = run_cli("batch", str(qfile), "--n", "150", "--sequential")
        _, single_text = run_cli("triangles", "--n", "150", "--tau", "6")
        n_single = int(single_text.split("durable triangles: ")[1].split("\n")[0])
        assert f"{n_single} records" in batch_text

    def test_batch_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "queries.yaml"
        path.write_text(yaml.safe_dump({"queries": QUERIES}))
        code, text = run_cli("batch", str(path), "--n", "80")
        assert code == 0
        assert "5 queries" in text

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all",
            "[]",
            '{"queries": []}',
            '{"nothing": 1}',
            '[{"kind": "bogus", "tau": 1}]',
            '[{"kind": "triangles"}]',
        ],
    )
    def test_batch_bad_files_exit_2(self, tmp_path, content):
        path = tmp_path / "queries.json"
        path.write_text(content)
        code, _ = run_cli("batch", str(path), "--n", "50")
        assert code == 2

    def test_batch_missing_file_exits_2(self):
        code, _ = run_cli("batch", "/nonexistent/queries.json")
        assert code == 2

    def test_batch_partial_failure_exits_1(self, tmp_path, monkeypatch):
        """A poisoned query is reported per-query and flips the exit code
        to 1 — the rest of the batch still completes (ISSUE 2 bugfix)."""
        import repro.engine.engine as engine_mod
        from repro.engine import QueryPlan

        real_plan_batch = engine_mod.plan_batch

        def _boom():
            raise RuntimeError("poisoned builder")

        def poisoning_plan_batch(specs, tps):
            return [
                QueryPlan(p.order, p.spec, p.key, _boom, p.runner)
                if p.spec.label == "poison" else p
                for p in real_plan_batch(specs, tps)
            ]

        monkeypatch.setattr(engine_mod, "plan_batch", poisoning_plan_batch)
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([
            {"kind": "triangles", "tau": 4},
            {"kind": "triangles", "tau": 4, "epsilon": 0.99, "label": "poison"},
            {"kind": "pairs-sum", "tau": 5},
        ]))
        out = tmp_path / "results.json"
        code, text = run_cli(
            "batch", str(qfile), "--n", "80", "--output", str(out)
        )
        assert code == 1
        assert "ERROR RuntimeError: poisoned builder" in text
        assert "1 FAILED" in text
        # The two healthy queries still report records normally.
        assert text.count("records") == 2
        payload = json.loads(out.read_text())
        assert payload["ok"] is False and payload["errors"] == 1
        assert [q["ok"] for q in payload["queries"]] == [True, False, True]


class TestServeCommand:
    def test_parser_wires_serve_options(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--queue-limit", "5",
            "--dataset", 'a={"workload":"uniform","n":30}',
            "--dataset", 'b={"workload":"social","n":30}',
        ])
        assert args.command == "serve"
        assert args.port == 0 and args.queue_limit == 5
        assert len(args.dataset) == 2

    def test_bad_dataset_flag_exits_2(self):
        code, _ = run_cli("serve", "--port", "0", "--dataset", "noequalsign")
        assert code == 2
        code, _ = run_cli("serve", "--port", "0", "--dataset", "a={broken")
        assert code == 2

    def test_serve_boots_and_answers(self):
        """Boot the real server on an ephemeral port through the CLI
        path, then stop it over HTTP."""
        import http.client
        import threading
        import time

        bound = {}
        ready = threading.Event()

        def runner():
            from repro.serve import run_server

            run_server(
                port=0,
                datasets={"d": {"workload": "uniform", "n": 30}},
                announce=lambda host, port, app: (
                    bound.update(host=host, port=port), ready.set()
                ),
            )

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert ready.wait(15)
        conn = http.client.HTTPConnection(bound["host"], bound["port"], timeout=10)
        conn.request("GET", "/health")
        assert conn.getresponse().status == 200
        conn.close()
        conn = http.client.HTTPConnection(bound["host"], bound["port"], timeout=10)
        conn.request("POST", "/shutdown")
        assert conn.getresponse().status == 200
        conn.close()
        for _ in range(100):
            if not thread.is_alive():
                break
            time.sleep(0.05)
        assert not thread.is_alive()


class TestRouteCommand:
    def test_parser_accepts_route_flags(self):
        args = build_parser().parse_args(
            [
                "route", "--workers", "3", "--port", "0",
                "--manifest", "/tmp/m.json",
                "--probe-interval", "0.3",
                "--queue-limit", "16",
            ]
        )
        assert args.command == "route" and args.workers == 3
        assert args.manifest == "/tmp/m.json" and args.queue_limit == 16

    def test_worker_pool_needs_at_least_one_worker(self):
        from repro.errors import ValidationError
        from repro.router import WorkerPool

        with pytest.raises(ValidationError, match="at least 1 worker"):
            WorkerPool(workers=0)

    def test_route_serves_tenants_and_exits_cleanly(self, tmp_path):
        """``repro route --api-keys`` end to end: the key passes through
        to the worker (401 without one), tenant counters come back
        through the fleet scrape, and ``POST /shutdown`` stops the
        router and its worker with exit code 0."""
        import http.client
        import os
        import re
        import threading
        import time

        from repro.obs import counter_value, parse_exposition

        keys = tmp_path / "tenants.json"
        keys.write_text(json.dumps(
            {"tenants": [{"key": "k-acme", "name": "acme", "weight": 1.0}]}
        ))
        out = io.StringIO()
        done = {}
        argv = [
            "route", "--port", "0", "--workers", "1",
            "--api-keys", str(keys),
            "--dataset", 'forum={"workload": "social", "n": 60, "seed": 7}',
        ]
        thread = threading.Thread(
            target=lambda: done.update(code=main(argv, out=out)), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 60
        while "datasets: forum" not in out.getvalue():
            assert thread.is_alive() and time.monotonic() < deadline, out.getvalue()
            time.sleep(0.05)
        text = out.getvalue()
        host, port = re.search(r"routing on http://([0-9.]+):(\d+)", text).groups()
        worker_pid = int(re.search(r"worker-0: pid (\d+)", text).group(1))

        def call(method, path, body=None, key=None):
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            headers = {"X-API-Key": key} if key else {}
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                return resp.status, resp.read()
            finally:
                conn.close()

        query = json.dumps({
            "dataset": "forum", "include_records": False,
            "queries": [{"kind": "pairs-sum", "tau": 3.0}],
        })
        assert call("POST", "/query", query)[0] == 401
        assert call("POST", "/query", query, key="k-acme")[0] == 200
        status, data = call("GET", "/metrics")
        families = parse_exposition(data.decode())
        assert counter_value(
            families, "serve_tenant_queries_total",
            {"tenant": "acme", "worker": "worker-0"},
        ) == 1.0

        assert call("POST", "/shutdown")[0] == 200
        thread.join(timeout=60)
        assert not thread.is_alive() and done["code"] == 0
        with pytest.raises(ProcessLookupError):
            os.kill(worker_pid, 0)  # the fleet went down with the router
