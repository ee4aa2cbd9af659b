"""Lifecycle and degradation contract of the simulation daemon.

Two layers of coverage:

* **In-process** — a :class:`~repro.serve.server.ServiceServer` booted
  inside ``asyncio.run`` and poked with raw sockets: malformed HTTP
  dies as a structured 4xx (never a traceback on the wire), keep-alive
  serves multiple requests per connection, and a per-request timeout
  answers 503 with the PR 4 ``pool-error`` degradation vocabulary
  instead of hanging the connection.
* **Subprocess** — a real ``python -m repro.serve`` daemon booted via
  :func:`~repro.serve.loadgen.spawn_daemon`: concurrent clients get
  bit-identical responses, eviction under a tiny ``--max-bytes``
  budget stays exact and visible in ``/metrics``, a batch takes the
  same path as its specs sent one by one, and ``/shutdown`` exits 0.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core import simulate
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.loadgen import mixed_specs, run_load, spawn_daemon
from repro.serve.protocol import build_request
from repro.serve.server import ServiceServer


# ----------------------------------------------------------------------
# In-process: raw HTTP and the timeout contract
# ----------------------------------------------------------------------

async def _read_response(reader):
    """Parse one HTTP/1.1 response: (status, headers, json_body)."""
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, json.loads(body.decode("utf-8"))


def _raw_exchange(requests, **server_kwargs):
    """Boot a server, send raw bytes per request, return the responses."""

    async def go():
        server = ServiceServer(**server_kwargs)
        await server.start()
        responses = []
        try:
            for payload in requests:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(payload)
                    await writer.drain()
                    responses.append(await _read_response(reader))
                finally:
                    writer.close()
        finally:
            await server.stop()
        return responses

    return asyncio.run(go())


def _http(method, path, body=b"", keep_alive=True):
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _spec(i=0, n=12):
    return mixed_specs(i + 1, n=n)[i]


def test_healthz_and_unknown_paths():
    responses = _raw_exchange([
        _http("GET", "/healthz"),
        _http("GET", "/nowhere"),
        _http("GET", "/simulate"),   # wrong method
        _http("GET", "/shutdown"),   # wrong method
    ])
    assert responses[0][0] == 200
    assert responses[0][2] == {"ok": True, "engine": "service"}
    assert responses[1][0] == 404
    assert responses[2][0] == 405
    assert responses[3][0] == 405
    for _, _, body in responses[1:]:
        assert body["error"]["type"] == "ProtocolError"


@pytest.mark.parametrize("payload,status", [
    (b"garbage\r\n\r\n", 400),                               # bad request line
    (_http("POST", "/simulate", b"not json"), 400),          # body not JSON
    (_http("POST", "/simulate", b'{"kind": "bogus"}'), 400),  # bad spec
    (_http("POST", "/simulate",
           json.dumps({"requests": 7}).encode()), 400),      # bad batch shape
])
def test_malformed_requests_die_structured(payload, status):
    ((got_status, _, body),) = _raw_exchange([payload])
    assert got_status == status
    assert set(body["error"]) >= {"type", "message"}
    assert "Traceback" not in json.dumps(body)


def test_oversized_headers_rejected():
    payload = (
        b"GET /healthz HTTP/1.1\r\n"
        + b"X-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n"
    )
    ((status, _, body),) = _raw_exchange([payload])
    assert status == 431
    assert body["error"]["type"] == "_HTTPError"


def test_keep_alive_serves_multiple_requests_per_connection():
    spec = json.dumps(_spec()).encode("utf-8")

    async def go():
        server = ServiceServer()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                first = second = None
                writer.write(_http("POST", "/simulate", spec))
                await writer.drain()
                first = await _read_response(reader)
                writer.write(_http("POST", "/simulate", spec, keep_alive=False))
                await writer.drain()
                second = await _read_response(reader)
            finally:
                writer.close()
            return first, second, server.served
        finally:
            await server.stop()

    first, second, served = asyncio.run(go())
    assert first[0] == 200 and second[0] == 200
    assert first[2]["report"]["outputs"] == second[2]["report"]["outputs"]
    assert served == 2


def test_timeout_answers_structured_503_degradation():
    spec = json.dumps(_spec()).encode("utf-8")
    ((status, _, body),) = _raw_exchange(
        [_http("POST", "/simulate", spec)], timeout=1e-9
    )
    assert status == 503
    error = body["error"]
    assert error["degraded"].startswith("pool-error: TimeoutError")
    assert "service timeout" in error["degraded"]


def test_stop_is_idempotent_and_start_restarts():
    async def go():
        server = ServiceServer()
        await server.start()
        await server.start()  # idempotent
        port = server.port
        await server.stop()
        await server.stop()  # idempotent
        return port

    assert asyncio.run(go()) > 0


# ----------------------------------------------------------------------
# Subprocess: the real daemon under real clients
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon():
    proc, host, port = spawn_daemon()
    try:
        yield host, port
    finally:
        try:
            if proc.poll() is None:
                with ServiceClient(host, port) as client:
                    client.shutdown()
                proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def test_daemon_serves_bit_identical_reports(daemon):
    host, port = daemon
    specs = mixed_specs(7, n=16)
    with ServiceClient(host, port) as client:
        assert client.healthz()["ok"] is True
        for spec in specs:
            served = client.simulate(spec)
            local = simulate(build_request(spec), engine="direct")
            assert served.identity() == local.identity()
            assert served.backend == "service"


def test_daemon_batch_round_trip_preserves_order(daemon):
    host, port = daemon
    specs = mixed_specs(5, n=14, seed=3)
    with ServiceClient(host, port) as client:
        reports = client.simulate_many(specs)
    assert len(reports) == len(specs)
    for spec, report in zip(specs, reports):
        local = simulate(build_request(spec), engine="direct")
        assert report.identity() == local.identity()


def test_daemon_batch_takes_the_single_request_path(daemon):
    # The seven loadgen templates, two of them ``local``: a batch must
    # report the same identity and kernel path as each spec sent alone.
    specs = mixed_specs(7, n=48)
    with ServiceClient(*daemon) as client:
        batch = client.simulate_many(specs)
        singles = [client.simulate(spec) for spec in specs]
    assert [(r.identity(), r.info.get("kernel")) for r in batch] == [
        (r.identity(), r.info.get("kernel")) for r in singles
    ]


def test_daemon_rejects_bad_specs_without_dying(daemon):
    host, port = daemon
    with ServiceClient(host, port) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.simulate({"kind": "view", "graph": {"family": "nope",
                                                       "params": {}},
                             "algorithm": {"name": "local-max",
                                           "params": {"radius": 1}}})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ProtocolError"
        assert "Traceback" not in excinfo.value.message
        # The connection and the daemon both survive the rejection.
        assert client.healthz()["ok"] is True


def test_daemon_metrics_expose_cache_counters(daemon):
    host, port = daemon
    spec = _spec(n=20)
    with ServiceClient(host, port) as client:
        client.simulate(spec)
        before = client.metrics()
        client.simulate(spec)
        after = client.metrics()
    assert after["served"] == before["served"] + 1
    assert after["requests"] == before["requests"] + 1
    assert after["table_hits"] >= before["table_hits"] + 1
    for field in ("bytes", "tables", "graphs", "batches", "evictions"):
        assert field in after


def test_concurrent_clients_get_bit_identical_responses(daemon):
    host, port = daemon
    summary = run_load(host, port, mixed_specs(14, n=16, seed=5),
                       clients=4, verify=True)
    assert summary["completed"] == 14
    assert summary["errors"] == []
    assert summary["identity_mismatches"] == []
    assert summary["throughput_rps"] > 0


def test_eviction_under_tiny_budget_daemon_stays_exact():
    proc, host, port = spawn_daemon(["--max-bytes", "1"])
    try:
        specs = [s for s in mixed_specs(8, n=16) if s["kind"] == "view"]
        with ServiceClient(host, port) as client:
            for spec in specs:
                served = client.simulate(spec)
                local = simulate(build_request(spec), engine="direct")
                assert served.identity() == local.identity()
            metrics = client.metrics()
            assert metrics["evictions"] >= 1
            assert metrics["tables"] == 0
            client.shutdown()
        assert proc.wait(timeout=30) == 0
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()


def test_daemon_shutdown_releases_worker_pool():
    # A batch of local specs, then a clean /shutdown: the daemon must
    # still exit 0 promptly.
    proc, host, port = spawn_daemon()
    try:
        local_specs = [s for s in mixed_specs(14, n=12) if s["kind"] == "local"]
        assert len(local_specs) >= 2
        with ServiceClient(host, port) as client:
            reports = client.simulate_many(local_specs)
            for spec, report in zip(local_specs, reports):
                local = simulate(build_request(spec), engine="direct")
                assert report.identity() == local.identity()
            client.shutdown()
        assert proc.wait(timeout=30) == 0
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()
