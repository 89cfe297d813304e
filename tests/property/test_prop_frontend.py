"""Property test of the NDJSON front end shared by a node and the router.

For arbitrary interleavings of blank, malformed, oversized and valid
``health`` lines (with repeated ids) on one connection, both endpoints
must behave identically:

* every non-blank line gets exactly one response, in order, until an
  oversized line is answered and closes the connection;
* every response echoes the client's id (``None`` where the line carried
  none) and every error carries a code from ``ERROR_CODES``; a repeated
  id is a ``bad_request``;
* a fresh connection still answers ``health`` afterwards.

Each endpoint is booted once per module; hypothesis drives many
connections against it.
"""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import Fleet, FleetConfig
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.protocol import BAD_REQUEST, ERROR_CODES

MAX_LINE = 4096

_MALFORMED = [b"{not json", b"[1, 2, 3]", b'"just a string"', b'{"no_type": true}',
              b'{"type": "explode"}', b"\x00\xff\xfe"]

lines = st.one_of(
    st.tuples(st.just("blank"), st.sampled_from([b"", b"   ", b"\t"])),
    st.tuples(st.just("malformed"), st.sampled_from(_MALFORMED)),
    st.tuples(st.just("oversized"), st.integers(MAX_LINE + 1, 2 * MAX_LINE)),
    st.tuples(st.just("health"), st.integers(0, 3)),  # a small id pool repeats
)


@pytest.fixture(scope="module", params=["serve", "fleet"])
def endpoint(request):
    if request.param == "serve":
        with ServerThread(ServeConfig(executor="thread", workers=1,
                                      max_line_bytes=MAX_LINE)) as srv:
            yield srv.address
    else:
        with Fleet(FleetConfig(shards=2, shard_mode="thread", workers=1,
                               executor="thread", max_line_bytes=MAX_LINE,
                               supervisor_poll=30.0, seed=0)) as fleet:
            yield fleet.router.address


def _frame(kind, value):
    if kind == "blank" or kind == "malformed":
        return value + b"\n"
    if kind == "oversized":
        return b'{"type": "health", "pad": "' + b"x" * value + b'"}\n'
    return json.dumps({"type": "health", "id": value}).encode() + b"\n"


@settings(max_examples=25, deadline=None)
@given(sequence=st.lists(lines, min_size=1, max_size=12))
def test_one_in_order_response_per_line(endpoint, sequence):
    seen: set[int] = set()
    with socket.create_connection(endpoint, timeout=30) as sock:
        reader = sock.makefile("rb")
        pending = b""
        for kind, value in sequence:
            pending += _frame(kind, value)
            if kind == "blank":
                continue  # no response; flushed with the next answered line
            sock.sendall(pending)
            pending = b""
            response = json.loads(reader.readline())
            if not response["ok"]:
                assert response["error"]["code"] in ERROR_CODES
            if kind == "health":
                assert response["id"] == value
                if value in seen:
                    assert response["ok"] is False
                    assert response["error"]["code"] == BAD_REQUEST
                else:
                    assert response["ok"] is True
                    seen.add(value)
                continue
            assert response["id"] is None
            assert response["ok"] is False
            assert response["error"]["code"] == BAD_REQUEST
            if kind == "oversized":
                assert reader.readline() == b""  # the connection is closed
                break
        else:
            if pending:
                sock.sendall(pending)
            sock.shutdown(socket.SHUT_WR)
            assert reader.readline() == b""  # blank tails get no response
    with ServeClient(*endpoint) as client:
        assert client.health()["status"] == "ok"
