"""Unit tests for the planning service's pure pieces.

Covers :mod:`repro.serve.protocol` (framing, validation, error envelopes),
the plan key (single-flight identity), :class:`~repro.serve.ServeConfig`
validation and the client's percentile helper — no sockets anywhere; the
wire behaviour itself is exercised in ``tests/integration/test_serve.py``.
"""

import json

import pytest

from repro.errors import ConfigError, ReproError, ServeError
from repro.io.network_json import network_to_dict
from repro.network.builder import build_paper_network
from repro.serve import percentile, plan_key
from repro.serve.protocol import (
    BAD_REQUEST,
    ERROR_CODES,
    OVERLOADED,
    decode_request,
    decode_response,
    encode,
    error_response,
    ok_response,
    raise_for_error,
)
from repro.serve.server import ServeConfig


class TestDecodeRequest:
    def test_minimal(self):
        req = decode_request(b'{"type": "health"}\n')
        assert (req.type, req.id, req.deadline, req.params) == ("health", None, None, {})

    def test_envelope_and_params_split(self):
        req = decode_request(
            '{"type": "plan", "id": 7, "deadline": 2.5, "horizon": 100, "refine": true}')
        assert req.id == 7
        assert req.deadline == 2.5
        assert req.params == {"horizon": 100, "refine": True}
        assert "deadline" not in req.params  # envelope keys never leak

    @pytest.mark.parametrize("line", [
        b"not json\n", b"[1, 2]\n", b"42\n",
        b'{"type": "explode"}\n', b"{}\n",
        b'{"type": "plan", "deadline": "soon"}\n',
        b'{"type": "plan", "deadline": 0}\n',
        b'{"type": "plan", "deadline": -1}\n',
    ])
    def test_rejects_malformed(self, line):
        with pytest.raises(ServeError) as exc:
            decode_request(line)
        assert exc.value.code == BAD_REQUEST

    def test_serve_error_is_a_repro_error(self):
        assert issubclass(ServeError, ReproError)


class TestResponses:
    def test_frame_round_trip(self):
        frame = encode(ok_response(3, {"x": 1}))
        assert frame.endswith(b"\n")
        data = decode_response(frame)
        assert data == {"id": 3, "ok": True, "result": {"x": 1}}
        assert raise_for_error(data) == {"x": 1}

    def test_error_round_trip_raises_with_code(self):
        frame = encode(error_response("abc", OVERLOADED, "queue full"))
        with pytest.raises(ServeError) as exc:
            raise_for_error(decode_response(frame))
        assert exc.value.code == OVERLOADED
        assert "queue full" in str(exc.value)

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            error_response(None, "nonsense", "boom")

    @pytest.mark.parametrize("line", [
        b"junk", b"[]", b'{"result": {}}',
        b'{"ok": true}', b'{"ok": true, "result": 5}',
        b'{"ok": false}', b'{"ok": false, "error": "nope"}',
    ])
    def test_malformed_response_envelopes(self, line):
        with pytest.raises(ServeError):
            decode_response(line)

    def test_error_codes_closed_set(self):
        assert len(set(ERROR_CODES)) == len(ERROR_CODES) == 6
        assert "shard_unavailable" in ERROR_CODES


class TestPlanKey:
    @pytest.fixture(scope="class")
    def net(self):
        return network_to_dict(build_paper_network(n=12, q=2, seed=5))

    def test_identical_requests_share_a_key(self, net):
        a = plan_key({"network": net, "horizon": 100.0})
        b = plan_key({"network": json.loads(json.dumps(net)), "horizon": 100})
        assert a == b  # wire round-trip and int/float horizon are identical

    def test_delay_excluded_from_key(self, net):
        assert plan_key({"network": net, "horizon": 100.0}) == \
            plan_key({"network": net, "horizon": 100.0, "delay": 0.5})

    def test_key_fields_discriminate(self, net):
        base = plan_key({"network": net, "horizon": 100.0})
        assert plan_key({"network": net, "horizon": 200.0}) != base
        assert plan_key({"network": net, "horizon": 100.0, "refine": True}) != base
        assert plan_key({"network": net, "horizon": 100.0, "base": 3}) != base
        other = network_to_dict(build_paper_network(n=12, q=2, seed=6))
        assert plan_key({"network": other, "horizon": 100.0}) != base

    def test_cycles_change_changes_key(self, net):
        shifted = json.loads(json.dumps(net))
        shifted["sensors"][0]["cycle"] *= 7.0  # same geometry, new coverage
        assert plan_key({"network": shifted, "horizon": 100.0}) != \
            plan_key({"network": net, "horizon": 100.0})

    def test_saved_file_envelope_accepted(self, net):
        """A `repro plan --network-out` file can be shipped verbatim."""
        from repro.io.files import FORMAT_VERSION
        enveloped = {"kind": "sensor-network", "version": FORMAT_VERSION, "data": net}
        assert plan_key({"network": enveloped, "horizon": 100.0}) == \
            plan_key({"network": net, "horizon": 100.0})

    def test_wrong_envelope_kind_rejected(self, net):
        from repro.io.files import FORMAT_VERSION
        wrapped = {"kind": "schedule-plan", "version": FORMAT_VERSION, "data": net}
        with pytest.raises(ReproError, match="expected 'sensor-network'"):
            plan_key({"network": wrapped, "horizon": 100.0})

    def test_missing_pieces_rejected(self, net):
        with pytest.raises(ReproError):
            plan_key({"horizon": 100.0})
        with pytest.raises(ServeError) as exc:
            plan_key({"network": net})
        assert exc.value.code == BAD_REQUEST


class TestServeConfig:
    def test_defaults_valid(self):
        cfg = ServeConfig()
        assert cfg.workers == 1 and cfg.executor == "process"

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"workers": -3},
        {"queue_limit": 0},
        {"executor": "fiber"},
        {"plan_responses": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServeConfig(**kwargs)


class TestPlanKeyKernelBackend:
    def test_exact_backends_share_the_key(self):
        # The legacy kernel_backend field is ignored for one protocol
        # version: whatever it names, the request keeps its key.
        net = network_to_dict(build_paper_network(seed=5))
        base = plan_key({"network": net, "horizon": 100.0})
        for name in ("reference", "fast", "warp-drive", None, 7):
            assert plan_key({"network": net, "horizon": 100.0,
                             "kernel_backend": name}) == base


class TestPercentile:
    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0

    def test_single_sample_and_empty(self):
        assert percentile([7.0], 99) == 7.0
        assert percentile([], 50) != percentile([], 50)  # nan

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
