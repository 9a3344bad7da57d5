"""The ``python -m repro.serve`` entry point, end to end."""

from __future__ import annotations

import json
import re
import urllib.request

from repro.serve.cli import main


def test_cli_verify_roundtrip(capsys):
    code = main(["--benchmark", "gzip", "--max-events", "20000",
                 "--shards", "2", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify     OK" in out
    assert "2 shards" in out


def test_cli_tenants_verify(capsys):
    """--verify holds for a tenant-bearing trace, spills included: the
    offline reference runs each tenant's own event subsequence."""
    code = main(["--benchmark", "gzip", "--max-events", "20000",
                 "--batch-events", "1024", "--tenants", "4",
                 "--tenant-budget-bytes", "20480", "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify     OK" in out


def test_cli_snapshot_then_restore(tmp_path, capsys):
    code = main(["--benchmark", "gzip", "--max-events", "30000",
                 "--snapshot-every", "10000",
                 "--snapshot-dir", str(tmp_path)])
    assert code == 0
    snaps = sorted(tmp_path.glob("snapshot-*.json.gz"))
    assert snaps
    capsys.readouterr()
    code = main(["--benchmark", "gzip", "--max-events", "30000",
                 "--restore", str(snaps[0]), "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "restored" in out
    assert "verify     OK" in out


def test_cli_snapshot_flag_needs_dir(capsys):
    assert main(["--snapshot-every", "1000"]) == 2


def test_cli_restore_prints_covered_seq_watermark(tmp_path, capsys):
    """--restore must announce the seq watermark it resumes from."""
    code = main(["--benchmark", "gzip", "--max-events", "30000",
                 "--snapshot-every", "10000",
                 "--snapshot-dir", str(tmp_path)])
    assert code == 0
    snaps = sorted(tmp_path.glob("snapshot-*.json.gz"))
    capsys.readouterr()
    code = main(["--benchmark", "gzip", "--max-events", "30000",
                 "--restore", str(snaps[0]), "--verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "covered-seq watermark:" in out
    assert "feed resumes at seq" in out


def test_cli_workers_mode_verifies_and_dumps_telemetry(tmp_path, capsys):
    """--workers N runs per-shard processes, stays bit-identical, and
    --dump-telemetry writes the machine-readable run summary."""
    dump = tmp_path / "telemetry.json"
    code = main(["--benchmark", "gzip", "--max-events", "20000",
                 "--workers", "2", "--verify",
                 "--dump-telemetry", str(dump)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify     OK" in out
    assert "workers    2 processes (pids " in out
    payload = json.loads(dump.read_text())
    assert payload["service"]["workers"] == 2
    assert payload["metrics"]["dynamic_branches"] == 20000
    assert payload["telemetry"]["events_applied"] == 20000
    assert payload["events_per_sec"] > 0


def test_cli_metrics_json_dump_feeds_obs_cli(tmp_path, capsys):
    """--metrics-json writes the final registry + trace snapshot, and
    python -m repro.obs can explain a PC straight from the file."""
    from repro.obs.cli import main as obs_main

    out_file = tmp_path / "obs.json"
    code = main(["--benchmark", "gzip", "--max-events", "20000",
                 "--shards", "2", "--metrics-json", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "fsm arcs" in out
    doc = json.loads(out_file.read_text())
    assert doc["kind"] == "repro.obs.snapshot"
    assert "repro_shard_apply_latency_seconds" in doc["metrics"]
    assert "repro_fsm_transitions_total" in doc["metrics"]
    assert doc["trace"]["records"]
    pc = doc["trace"]["records"][-1]["pc"]
    assert obs_main(["--file", str(out_file), "explain", str(pc)]) == 0
    assert f"pc {pc}:" in capsys.readouterr().out


def test_cli_metrics_port_serves_live_exposition(capsys):
    """--metrics-port serves valid Prometheus exposition while the
    replay is running (scraped from another thread, like a scraper)."""
    import socket
    import threading
    import time

    from repro.obs.expo import parse_exposition

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    result: dict = {}

    def run() -> None:
        result["code"] = main(
            ["--benchmark", "gzip", "--max-events", "60000",
             "--shards", "2", "--rate", "30000",
             "--metrics-port", str(port)])

    thread = threading.Thread(target=run)
    thread.start()
    body = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics",
                    timeout=2) as response:
                body = response.read().decode("utf-8")
            break
        except OSError:
            time.sleep(0.05)
    thread.join(timeout=120)
    assert result.get("code") == 0
    assert body is not None, "metrics endpoint never came up"
    families = parse_exposition(body)   # raises on invalid exposition
    assert "repro_events_applied_total" in families
    assert "repro_shard_apply_latency_seconds" in families
    assert "repro_fsm_transitions_total" in families
    assert re.search(r"repro_shard_apply_latency_seconds_bucket", body)
