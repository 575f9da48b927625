"""JSON-over-HTTP front end of the placement service (stdlib only).

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no framework, no threads — translating requests into
:class:`~repro.serve.service.PlacementService` calls.  Every route
lives under the versioned ``/v1`` prefix and is declared once in
:data:`ROUTES`, the single route table (each route is described in
``docs/api.md``).  A handler returns its payload — a resource, served
as its ``to_wire()``, or a JSON-safe dict — and every ``POST`` answers
``202 Accepted``.

The pre-``/v1`` unversioned paths keep answering through a shim: the
path is re-matched with ``/v1`` prepended and the response carries
``Deprecation: true`` plus a ``Link: </v1/...>; rel="successor-version"``
header pointing at the replacement (pinned by
``tests/test_deprecations.py``).

Error mapping (one table for every route): validation problems are
``400``, unknown ids (any :class:`~repro.serve.jobs.UnknownResourceError`)
``404``, illegal lifecycle moves (any
:class:`~repro.serve.jobs.ResourceStateError`) ``409``, a full
queue ``429`` with a ``Retry-After`` header, drain ``503``.  Every
response is JSON and every connection is single-shot
(``Connection: close``) — clients here are submission scripts and
event followers, not browsers holding keep-alives; the events
long-poll holds the request open server-side instead of keeping the
socket across requests.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus

from ..schema import SchemaError
from .jobs import (
    QueueFullError,
    Resource,
    ResourceStateError,
    ServiceClosedError,
    UnknownResourceError,
)

#: Request-size guards (a placement request is a few KB of JSON).
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1024 * 1024

#: Longest server-side hold of an events long-poll, seconds.
MAX_EVENT_WAIT = 60.0

#: The route table: every (method, path pattern, handler) of the API.
#: ``{name}`` segments capture path parameters passed to the handler.
ROUTES = (
    ("GET", "/v1/healthz", "healthz"),
    ("GET", "/v1/metrics", "metrics"),
    ("POST", "/v1/jobs", "submit_job"),
    ("GET", "/v1/jobs", "list_jobs"),
    ("GET", "/v1/jobs/{job_id}", "job_status"),
    ("DELETE", "/v1/jobs/{job_id}", "cancel_job"),
    ("GET", "/v1/jobs/{job_id}/events", "job_events"),
    ("POST", "/v1/sessions", "create_session"),
    ("GET", "/v1/sessions", "list_sessions"),
    ("GET", "/v1/sessions/{session_id}", "session_status"),
    ("DELETE", "/v1/sessions/{session_id}", "close_session"),
    ("POST", "/v1/sessions/{session_id}/deltas", "submit_delta"),
    ("GET", "/v1/sessions/{session_id}/deltas", "list_deltas"),
    ("GET", "/v1/sessions/{session_id}/deltas/{delta_id}", "delta_status"),
    ("POST", "/v1/explorations", "create_exploration"),
    ("GET", "/v1/explorations", "list_explorations"),
    ("GET", "/v1/explorations/{exploration_id}", "exploration_status"),
    ("DELETE", "/v1/explorations/{exploration_id}", "cancel_exploration"),
    ("GET", "/v1/explorations/{exploration_id}/events", "exploration_events"),
    ("GET", "/v1/explorations/{exploration_id}/report", "exploration_report"),
)


class _HttpError(Exception):
    """Internal: abort the request with ``status`` and a JSON error."""

    def __init__(self, status: HTTPStatus, message: str, headers=None) -> None:
        self.status = status
        self.message = message
        self.headers = headers or {}
        super().__init__(message)


def _segments(path: str) -> list:
    return [part for part in path.split("/") if part]


def _match_route(method: str, path: str):
    """``(handler name, path params)`` for ``method path``, or raise.

    A path that matches a pattern under a different method is a 405; a
    path matching nothing returns ``(None, None)`` so the caller can
    try the deprecation shim before settling on 404.
    """
    parts = _segments(path)
    allowed = set()
    for route_method, pattern, handler in ROUTES:
        pattern_parts = _segments(pattern)
        if len(pattern_parts) != len(parts):
            continue
        params = {}
        for want, got in zip(pattern_parts, parts):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = got
            elif want != got:
                break
        else:
            if route_method == method:
                return handler, params
            allowed.add(route_method)
    if allowed:
        raise _HttpError(
            HTTPStatus.METHOD_NOT_ALLOWED,
            f"{method} {path} (allowed: {', '.join(sorted(allowed))})",
        )
    return None, None


class HttpServer:
    """Serves a :class:`PlacementService` over HTTP.

    Args:
        service: the (started) service to expose.
        host: bind address.
        port: bind port (``0`` picks a free one; see :attr:`port` after
            :meth:`start`).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8180) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple:
        """Bind and start accepting; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # One request per connection
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload, headers = await self._dispatch(method, path, body)
            except _HttpError as err:
                status, payload, headers = err.status, {"error": err.message}, err.headers
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> tuple:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                             "headers too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                             "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            raise _HttpError(HTTPStatus.BAD_REQUEST, f"bad request line: {lines[0]!r}")
        method, path, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(HTTPStatus.BAD_REQUEST,
                             f"bad Content-Length: {length!r}")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(HTTPStatus.REQUEST_ENTITY_TOO_LARGE, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple:
        path, _sep, query = path.partition("?")
        shim_headers = {}
        handler_name, params = _match_route(method, path)
        if handler_name is None and not path.startswith("/v1/"):
            handler_name, params = _match_route(method, "/v1" + path)
            if handler_name is not None:
                shim_headers = {
                    "Deprecation": "true",
                    "Link": f'</v1{path}>; rel="successor-version"',
                }
        if handler_name is None:
            raise _HttpError(HTTPStatus.NOT_FOUND, f"no route for {path}")
        handler = getattr(self, "_handle_" + handler_name)
        try:
            payload = await handler(params, query, body)
        except _HttpError as err:
            err.headers = {**shim_headers, **err.headers}
            raise
        except QueueFullError as exc:
            raise _HttpError(
                HTTPStatus.TOO_MANY_REQUESTS, str(exc),
                headers={**shim_headers, "Retry-After": f"{exc.retry_after:g}"},
            ) from None
        except ServiceClosedError as exc:
            raise _HttpError(HTTPStatus.SERVICE_UNAVAILABLE, str(exc),
                             headers=dict(shim_headers)) from None
        except UnknownResourceError as exc:
            raise _HttpError(HTTPStatus.NOT_FOUND, str(exc),
                             headers=dict(shim_headers)) from None
        except ResourceStateError as exc:
            raise _HttpError(HTTPStatus.CONFLICT, str(exc),
                             headers=dict(shim_headers)) from None
        except (SchemaError, ValueError, KeyError) as exc:
            # SchemaError/UnknownFlowError are ValueErrors; KeyError is
            # StrategyParams' unknown-parameter rejection.
            raise _HttpError(HTTPStatus.BAD_REQUEST, str(exc),
                             headers=dict(shim_headers)) from None
        if isinstance(payload, Resource):
            payload = payload.to_wire()
        # Every POST creates a resource and answers 202 Accepted.
        status = HTTPStatus.ACCEPTED if method == "POST" else HTTPStatus.OK
        return status, payload, shim_headers

    # ------------------------------------------------------------------
    # Handlers (one per ROUTES entry)
    # ------------------------------------------------------------------

    async def _handle_healthz(self, params, query, body):
        return self.service.healthz()

    async def _handle_metrics(self, params, query, body):
        return self.service.metrics()

    async def _handle_submit_job(self, params, query, body):
        return self.service.submit(self._parse_body(body))

    async def _handle_list_jobs(self, params, query, body):
        return {"jobs": _wire(self.service.jobs(_query_param(query, "state")))}

    async def _handle_job_status(self, params, query, body):
        return self.service.status(params["job_id"])

    async def _handle_cancel_job(self, params, query, body):
        return self.service.cancel(params["job_id"])

    async def _handle_job_events(self, params, query, body):
        return await self._events(self.service.wait_events, "job_id",
                                  params, query)

    async def _handle_create_session(self, params, query, body):
        return self.service.sessions.create(self._parse_body(body))

    async def _handle_list_sessions(self, params, query, body):
        return {"sessions": _wire(self.service.sessions.sessions())}

    async def _handle_session_status(self, params, query, body):
        return self.service.sessions.get(params["session_id"])

    async def _handle_close_session(self, params, query, body):
        return self.service.sessions.close(params["session_id"])

    async def _handle_submit_delta(self, params, query, body):
        return self.service.sessions.submit_delta(
            params["session_id"], self._parse_body(body)
        )

    async def _handle_list_deltas(self, params, query, body):
        session = self.service.sessions.get(params["session_id"])
        return {"deltas": _wire(session.deltas.list())}

    async def _handle_delta_status(self, params, query, body):
        return self.service.sessions.delta(params["session_id"], params["delta_id"])

    async def _handle_create_exploration(self, params, query, body):
        return self.service.explorations.create(self._parse_body(body))

    async def _handle_list_explorations(self, params, query, body):
        explorations = self.service.explorations.explorations(
            _query_param(query, "state")
        )
        return {"explorations": _wire(explorations)}

    async def _handle_exploration_status(self, params, query, body):
        return self.service.explorations.get(params["exploration_id"])

    async def _handle_cancel_exploration(self, params, query, body):
        return self.service.explorations.cancel(params["exploration_id"])

    async def _handle_exploration_events(self, params, query, body):
        return await self._events(self.service.explorations.wait_events,
                                  "exploration_id", params, query)

    async def _handle_exploration_report(self, params, query, body):
        return self.service.explorations.report(params["exploration_id"])

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @staticmethod
    async def _events(wait_events, id_param: str, params, query) -> dict:
        """The events body of every resource kind: ``?after=<seq>``
        slices, ``&wait=<s>`` long-polls (capped at
        :data:`MAX_EVENT_WAIT`; absent or ``<= 0`` never waits)."""
        resource_id = params[id_param]
        after = _numeric_param(query, "after", int, -1)
        wait = _numeric_param(query, "wait", float, 0.0)
        events, done = await wait_events(
            resource_id, after=after, timeout=min(wait, MAX_EVENT_WAIT)
        )
        return {
            id_param: resource_id,
            "events": [event.to_dict() for event in events],
            "next_after": events[-1].seq if events else after,
            "stream_done": done,
        }

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        try:
            return json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(HTTPStatus.BAD_REQUEST, f"bad JSON body: {exc}") from None

    async def _respond(self, writer: asyncio.StreamWriter, status: HTTPStatus,
                       payload: dict, headers: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status.value} {status.phrase}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


def _wire(resources: list) -> list:
    return [resource.to_wire() for resource in resources]


def _query_param(query: str, name: str) -> str | None:
    for pair in query.split("&"):
        key, _sep, value = pair.partition("=")
        if key == name and value:
            return value
    return None


def _numeric_param(query: str, name: str, cast, default):
    raw = _query_param(query, name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise _HttpError(
            HTTPStatus.BAD_REQUEST, f"query parameter {name!r} must be {cast.__name__}"
        ) from None
