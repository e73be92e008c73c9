"""HTTP framing unit tests (no sockets: StreamReader fed directly)."""

import asyncio
import json
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve.http import (
    HttpError,
    MAX_BODY_BYTES,
    Request,
    json_response,
    parse_response,
    read_request,
    response_bytes,
)


def read(raw: bytes):
    async def body():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(body())


def test_parses_post_with_body():
    payload = json.dumps({"program": "gzip"}).encode()
    raw = (
        b"POST /protect HTTP/1.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n"
    ) + payload
    request = read(raw)
    assert request.method == "POST"
    assert request.path == "/protect"
    assert request.json() == {"program": "gzip"}
    assert request.keep_alive


def test_parses_get_with_query():
    request = read(b"GET /journal?request=r1&tenant=acme HTTP/1.1\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/journal"
    assert request.query == {"request": "r1", "tenant": "acme"}
    assert request.json() == {}


def test_connection_close_header():
    request = read(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert not request.keep_alive


def test_clean_eof_returns_none():
    assert read(b"") is None


def test_truncated_request_is_400():
    with pytest.raises(HttpError) as err:
        read(b"GET / HT")
    assert err.value.status == 400


def test_malformed_request_line_is_400():
    with pytest.raises(HttpError) as err:
        read(b"NONSENSE\r\n\r\n")
    assert err.value.status == 400


def test_malformed_header_is_400():
    with pytest.raises(HttpError) as err:
        read(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")
    assert err.value.status == 400


def test_oversized_body_is_413():
    raw = (
        b"POST /protect HTTP/1.1\r\nContent-Length: "
        + str(MAX_BODY_BYTES + 1).encode()
        + b"\r\n\r\n"
    )
    with pytest.raises(HttpError) as err:
        read(raw)
    assert err.value.status == 413


def test_negative_content_length_is_400():
    with pytest.raises(HttpError) as err:
        read(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
    assert err.value.status == 400


def test_malformed_request_target_is_400():
    with pytest.raises(HttpError) as err:
        read(b"GET http://[::1 HTTP/1.1\r\n\r\n")
    assert err.value.status == 400


@pytest.mark.parametrize("value", ["+5", "1_0", "5 5", "0x5", "\xb2", ""])
def test_content_length_is_ascii_digits_only(value):
    raw = f"POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n12345"
    with pytest.raises(HttpError) as err:
        read(raw.encode("latin-1"))
    assert err.value.status == 400


def test_content_length_of_thousands_of_digits_is_413():
    for digits in ("9" * 5000, "0" * 5000 + "1" * 10):
        with pytest.raises(HttpError) as err:
            read(f"POST / HTTP/1.1\r\nContent-Length: {digits}\r\n\r\n".encode())
        assert err.value.status == 413
    request = read(b"POST / HTTP/1.1\r\nContent-Length: " + b"0" * 5000 + b"2\r\n\r\nok")
    assert request.body == b"ok"


_TEXT = st.text(st.characters(max_codepoint=255), max_size=24)


@st.composite
def _requests(draw):
    """Request-shaped bytes: a request line, headers, a body, any of
    them malformed."""
    method = draw(st.sampled_from(["GET", "POST", "get"]) | _TEXT)
    target = draw(
        st.sampled_from(["/", "/journal?request=r1&x", "http://[::1", "//[x", "/%zz"])
        | _TEXT
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]) | _TEXT)
    line = draw(st.sampled_from([f"{method} {target} {version}"]) | _TEXT)
    length = st.integers(-5, 2 * MAX_BODY_BYTES).map(str) | _TEXT
    headers = draw(st.lists(
        length.map(lambda value: f"Content-Length: {value}")
        | st.builds(lambda name, value: f"{name}:{value}", _TEXT, _TEXT)
        | _TEXT,
        max_size=4,
    ))
    head = "\r\n".join([line, *headers]).encode("latin-1")
    end = draw(st.sampled_from([b"\r\n\r\n", b"\r\n", b""]))
    return head + end + draw(st.binary(max_size=32))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200) | _requests())
@example(b"GET http://[::1 HTTP/1.1\r\n\r\n")
@example(b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
def test_any_bytes_parse_or_fail_typed(raw):
    """A request, a clean EOF, or a typed error: never anything else."""
    try:
        request = read(raw)
    except (HttpError, asyncio.IncompleteReadError):
        return
    assert request is None or isinstance(request, Request)


def test_invalid_json_body_is_400():
    raw = b"POST /protect HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot"
    request = read(raw)
    with pytest.raises(HttpError) as err:
        request.json()
    assert err.value.status == 400


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="json.loads accepts integers of any length before 3.11",
)
def test_over_long_integer_in_json_body_is_400():
    # Past 4,300 digits int() raises a plain ValueError, not a
    # JSONDecodeError; it must still be the client's 400.
    payload = b'{"seed": ' + b"9" * 5000 + b"}"
    raw = (
        b"POST /protect HTTP/1.1\r\nContent-Length: "
        + str(len(payload)).encode() + b"\r\n\r\n" + payload
    )
    request = read(raw)
    with pytest.raises(HttpError) as err:
        request.json()
    assert err.value.status == 400


def test_non_object_json_body_is_400():
    raw = b"POST /protect HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]"
    request = read(raw)
    with pytest.raises(HttpError) as err:
        request.json()
    assert err.value.status == 400


def test_response_roundtrip_through_client_parser():
    raw = json_response(
        429, {"error": "slow down"}, {"Retry-After": "3"}, keep_alive=False
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    status, headers = parse_response(head + b"\r\n\r\n", body)
    assert status == 429
    assert headers["retry-after"] == "3"
    assert headers["connection"] == "close"
    assert int(headers["content-length"]) == len(body)
    assert json.loads(body) == {"error": "slow down"}


def test_response_bytes_content_length_is_exact():
    body = b"x" * 1234
    raw = response_bytes(200, body, "text/plain")
    head, _, got = raw.partition(b"\r\n\r\n")
    assert got == body
    assert b"Content-Length: 1234" in head
    assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
