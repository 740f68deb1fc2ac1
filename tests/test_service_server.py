"""The JSON-over-TCP endpoint: wire protocol, errors, CLI wiring.

Each test starts a real :class:`JoinServiceServer` on an ephemeral port
and drives it with plain ``asyncio.open_connection`` clients — the same
newline-delimited JSON any external client would speak.  Join responses
are compared against the serial oracle, so the wire layer inherits the
differential guarantee of ``test_service.py``.
"""

import asyncio
import json
from dataclasses import replace

import pytest

from helpers import random_relation_pair
from repro.core.join import JoinConfig
from repro.core.parallel_exec import (
    live_shared_segments,
    parallel_partitioned_join,
)
from repro.datasets.io import save_relation
from repro.service.api import BadRequestError, stats_to_dict
from repro.service.core import JoinService
from repro.service.server import JoinServiceServer, _join_config_from_payload

pytestmark = pytest.mark.parallel


@pytest.fixture()
def wkt_paths(tmp_path):
    rel_a, rel_b = random_relation_pair(41, n_objects=24, degenerate=False)
    path_a = tmp_path / "a.wkt"
    path_b = tmp_path / "b.wkt"
    save_relation(rel_a, path_a)
    save_relation(rel_b, path_b)
    return rel_a, rel_b, str(path_a), str(path_b)


async def _rpc(reader, writer, payload):
    writer.write(json.dumps(payload).encode("utf-8") + b"\n")
    await writer.drain()
    line = await reader.readline()
    assert line.endswith(b"\n")
    return json.loads(line)


def _serve(test_body, **service_kwargs):
    """Run ``test_body(server, reader, writer)`` against a live server."""

    async def drive():
        service = JoinService(**service_kwargs)
        server = JoinServiceServer(service, port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        try:
            return await test_body(server, reader, writer)
        finally:
            writer.close()
            await server.close()

    return asyncio.run(drive())


class TestWireProtocol:
    def test_join_matches_serial_oracle(self, wkt_paths):
        rel_a, rel_b, path_a, path_b = wkt_paths
        oracle = parallel_partitioned_join(
            rel_a, rel_b, config=JoinConfig(workers=1)
        )

        async def body(server, reader, writer):
            return await _rpc(
                reader,
                writer,
                {"op": "join", "relation_a": path_a, "relation_b": path_b},
            )

        response = _serve(body, sessions=1)
        assert response["status"] == "ok"
        assert response["op"] == "join"
        assert response["pair_count"] == len(oracle.id_pairs())
        assert response["pairs"] == [
            list(pair) for pair in oracle.id_pairs()
        ]
        expected_stats = stats_to_dict(oracle.stats)
        assert response["stats"] == expected_stats
        assert not live_shared_segments()

    def test_join_config_fields_respected(self, wkt_paths):
        rel_a, rel_b, path_a, path_b = wkt_paths
        config = JoinConfig(
            predicate="within", engine="batched", grid=(2, 2)
        )
        oracle = parallel_partitioned_join(
            rel_a, rel_b, config=replace(config, workers=1)
        )

        async def body(server, reader, writer):
            return await _rpc(
                reader,
                writer,
                {
                    "op": "join",
                    "relation_a": path_a,
                    "relation_b": path_b,
                    "predicate": "within",
                    "engine": "batched",
                    "grid": [2, 2],
                    "workers": 2,
                },
            )

        response = _serve(body, sessions=1)
        assert response["status"] == "ok"
        assert response["pairs"] == [
            list(pair) for pair in oracle.id_pairs()
        ]
        assert response["stats"] == stats_to_dict(oracle.stats)

    def test_repeated_join_hits_result_cache(self, wkt_paths):
        _, _, path_a, path_b = wkt_paths
        request = {"op": "join", "relation_a": path_a, "relation_b": path_b}

        async def body(server, reader, writer):
            first = await _rpc(reader, writer, request)
            second = await _rpc(reader, writer, request)
            telemetry = await _rpc(reader, writer, {"op": "telemetry"})
            return first, second, telemetry

        first, second, telemetry = _serve(body, sessions=1)
        assert first == second
        assert telemetry["status"] == "ok"
        assert telemetry["telemetry"]["executed_requests"] == 1
        assert telemetry["telemetry"]["result_cache_hits"] == 1
        assert telemetry["cached_results"] == 1
        assert telemetry["queue_depth"] == 0

    def test_window_and_knn_ops(self, wkt_paths):
        rel_a, _, path_a, _ = wkt_paths

        async def body(server, reader, writer):
            window = await _rpc(
                reader,
                writer,
                {
                    "op": "window",
                    "relation": path_a,
                    "window": [0, 0, 1000, 1000],
                },
            )
            knn = await _rpc(
                reader,
                writer,
                {"op": "knn", "relation": path_a, "point": [50, 50], "k": 3},
            )
            return window, knn

        window, knn = _serve(body, sessions=1)
        assert window["status"] == "ok"
        assert set(window["oids"]) <= {obj.oid for obj in rel_a}
        assert window["candidates"] >= len(window["oids"])
        assert knn["status"] == "ok"
        assert len(knn["neighbours"]) == 3
        distances = [dist for _, dist in knn["neighbours"]]
        assert distances == sorted(distances)

    def test_two_connections_interleave(self, wkt_paths):
        _, _, path_a, path_b = wkt_paths

        async def drive():
            service = JoinService(sessions=2)
            server = JoinServiceServer(service, port=0)
            await server.start()
            try:

                async def client(flip):
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        payload = {
                            "op": "join",
                            "relation_a": path_b if flip else path_a,
                            "relation_b": path_a if flip else path_b,
                        }
                        return await _rpc(reader, writer, payload)
                    finally:
                        writer.close()

                return await asyncio.gather(
                    client(False), client(True), client(False)
                )
            finally:
                await server.close()

        responses = asyncio.run(drive())
        assert all(r["status"] == "ok" for r in responses)
        # Same join either way round, but a/b order defines pair order.
        assert responses[0] == responses[2]
        assert responses[0]["pair_count"] == responses[1]["pair_count"]


class TestWireErrors:
    def test_malformed_json_is_400_and_keeps_serving(self, wkt_paths):
        _, _, path_a, _ = wkt_paths

        async def body(server, reader, writer):
            writer.write(b"this is not json\n")
            await writer.drain()
            error = json.loads(await reader.readline())
            # The connection survives the error.
            after = await _rpc(
                reader,
                writer,
                {
                    "op": "window",
                    "relation": path_a,
                    "window": [0, 0, 10, 10],
                },
            )
            return error, after

        error, after = _serve(body, sessions=1)
        assert error["status"] == "error"
        assert error["code"] == 400
        assert "JSON" in error["error"]
        assert after["status"] == "ok"

    def test_unknown_op_is_400(self):
        async def body(server, reader, writer):
            return await _rpc(reader, writer, {"op": "frobnicate"})

        error = _serve(body, sessions=1)
        assert error == {
            "status": "error",
            "code": 400,
            "error": error["error"],
        }
        assert "frobnicate" in error["error"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("predicat", "within"),  # typo must not be ignored
            ("columnar", False),  # retired option
            ("scheduler", "static"),  # retired option
        ],
    )
    def test_unknown_join_field_is_400(self, wkt_paths, field, value):
        _, _, path_a, path_b = wkt_paths

        async def body(server, reader, writer):
            return await _rpc(
                reader,
                writer,
                {
                    "op": "join",
                    "relation_a": path_a,
                    "relation_b": path_b,
                    field: value,
                },
            )

        error = _serve(body, sessions=1)
        assert error["status"] == "error"
        assert error["code"] == 400
        assert field in error["error"]

    def test_missing_relation_file_is_400(self):
        async def body(server, reader, writer):
            return await _rpc(
                reader,
                writer,
                {
                    "op": "join",
                    "relation_a": "/nonexistent/a.wkt",
                    "relation_b": "/nonexistent/b.wkt",
                },
            )

        error = _serve(body, sessions=1)
        assert error["status"] == "error"
        assert error["code"] == 400

    def test_bad_window_and_knn_payloads_are_400(self, wkt_paths):
        _, _, path_a, _ = wkt_paths

        async def body(server, reader, writer):
            bad_window = await _rpc(
                reader,
                writer,
                {"op": "window", "relation": path_a, "window": [0, 0, 10]},
            )
            bad_point = await _rpc(
                reader,
                writer,
                {"op": "knn", "relation": path_a, "point": "here"},
            )
            bad_k = await _rpc(
                reader,
                writer,
                {
                    "op": "knn",
                    "relation": path_a,
                    "point": [0, 0],
                    "k": "three",
                },
            )
            return bad_window, bad_point, bad_k

        responses = _serve(body, sessions=1)
        for response in responses:
            assert response["status"] == "error"
            assert response["code"] == 400

    @pytest.mark.parametrize(
        "field,value",
        [
            ("predicate", "overlaps-ish"),
            ("batch_size", 2.5),  # rejected by JoinConfig, not the engine
            ("exact", "planesweep"),  # a test oracle, not a join option
        ],
    )
    def test_invalid_config_value_is_400(self, wkt_paths, field, value):
        _, _, path_a, path_b = wkt_paths

        async def body(server, reader, writer):
            return await _rpc(
                reader,
                writer,
                {
                    "op": "join",
                    "relation_a": path_a,
                    "relation_b": path_b,
                    field: value,
                },
            )

        error = _serve(body, sessions=1)
        assert error["status"] == "error"
        assert error["code"] == 400
        assert str(value) in error["error"]


class TestConfigPayload:
    def test_defaults_come_from_service_config(self):
        base = JoinConfig(engine="batched", grid=(2, 2))
        config = _join_config_from_payload({"op": "join"}, base)
        assert config.engine == "batched"
        assert config.grid == (2, 2)

    def test_session_never_leaks_from_base(self):
        from repro.core.session import JoinSession

        with JoinSession() as session:
            base = JoinConfig(session=session)
            config = _join_config_from_payload({"op": "join"}, base)
            assert config.session is None

    def test_filter_toggles_build_filter_config(self):
        base = JoinConfig()
        config = _join_config_from_payload(
            {"op": "join", "progressive": False}, base
        )
        assert config.filter.progressive is False
        assert config.filter.conservative == base.filter.conservative

    def test_bad_grid_shape_rejected(self):
        with pytest.raises(BadRequestError):
            _join_config_from_payload(
                {"op": "join", "grid": "4x4"}, JoinConfig()
            )


class TestServeCLI:
    def test_parser_accepts_serve_options(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve",
                "--port",
                "0",
                "--sessions",
                "3",
                "--max-pending",
                "8",
                "--result-cache",
                "64",
                "--request-timeout",
                "2.5",
                "--engine",
                "batched",
                "--grid",
                "2",
                "3",
            ]
        )
        assert args.command == "serve"
        assert args.sessions == 3
        assert args.max_pending == 8
        assert args.result_cache == 64
        assert args.request_timeout == 2.5
        assert args.engine == "batched"
        assert args.grid == [2, 3]

    def test_serve_registered_as_command(self):
        from repro.cli import _COMMANDS

        assert "serve" in _COMMANDS
