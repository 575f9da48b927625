"""Clients of the placement service.

Both clients implement one protocol, :class:`BaseClient` — same method
names, same typed errors, same request surface — so tests, the CLI, and
the exploration loop are written once against the protocol and work
in-process or over the wire:

* :class:`ServiceClient` — in-process, async: wraps a running
  :class:`~repro.serve.service.PlacementService` directly (no sockets).
  This is what tests and the strategy-exploration loop use — the
  service becomes a callable evaluation backend.
* :class:`HttpServiceClient` — synchronous, over :mod:`http.client`
  against the ``/v1`` HTTP API: what ``repro submit`` / ``repro jobs``
  use to talk to a ``repro serve`` process.  Raises the same typed
  errors as the service (:class:`QueueFullError` on 429 with the
  server's retry-after, …) so callers handle backpressure identically
  in and out of process.

Beyond submit/poll, both speak the event stream: ``events`` reads a
job's ordered :class:`repro.schema.JobEvent` slice, ``follow`` iterates
events live until the job's terminal state event (the HTTP client
long-polls ``GET /v1/jobs/<id>/events``), and ``run(progress=...)``
invokes a callback per event while waiting.
"""

from __future__ import annotations

import abc
import http.client
import json
import time

from ..schema import JobEvent
from .jobs import (
    DONE,
    TERMINAL,
    JobStateError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)
from .sessions import INITIALIZING, DeltaJob, Session


class JobFailedError(ServeError):
    """A waited-on job reached ``failed`` or ``cancelled``.

    Attributes:
        job: the terminal job (a :class:`~repro.serve.jobs.Job` for the
            in-process client, a wire dict for the HTTP client).
    """

    def __init__(self, job) -> None:
        self.job = job
        state, error = field_of(job, "state"), field_of(job, "error")
        super().__init__(
            f"job {field_of(job, 'id')} {state}: {error or 'no result'}"
        )


def field_of(record, name: str):
    """One accessor over in-process resources and HTTP wire dicts."""
    return getattr(record, name) if hasattr(record, name) else record.get(name)


def _result(record):
    """A done job's or delta's result; else :class:`JobFailedError`."""
    if field_of(record, "state") != DONE:
        raise JobFailedError(record)
    return field_of(record, "result")


def _wire(**fields) -> dict:
    """A wire request from the set (non-``None``) ``fields``."""
    return {
        name: value.to_dict() if hasattr(value, "to_dict") else value
        for name, value in fields.items() if value is not None
    }


def make_request(design: str, *, flow: str = "puffer", config=None,
                 route: bool = False, timeout: float | None = None,
                 priority: int = 0, client_id: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST.

    ``config`` may be a :class:`repro.api.RunConfig` (serialized via
    ``to_dict``), an already-serialized wire dict, or ``None``.
    ``priority`` and ``client_id`` are scheduling hints (fair-queue
    bucket and shed order) and never affect the memoization key.
    """
    return _wire(
        design=design, flow=flow, config=config, route=True if route else None,
        timeout=timeout, priority=int(priority) or None, client_id=client_id,
    )


def make_session_request(design: str, *, config=None, eco=None,
                         verify: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST to
    ``/v1/sessions``.  ``config``/``eco`` may be dataclasses
    (serialized via ``to_dict``) or already-serialized wire dicts."""
    return _wire(design=design, config=config, eco=eco, verify=verify)


def make_exploration_request(config=None, *, priority: int = 0,
                             client_id: str | None = None) -> dict:
    """Build the JSON-safe wire request both clients POST to
    ``/v1/explorations``.  ``config`` may be a
    :class:`repro.api.ExploreConfig` (serialized via ``to_dict``), an
    already-serialized wire dict, or ``None`` (server defaults);
    ``priority``/``client_id`` schedule the exploration's trial jobs.
    """
    return _wire(config=config, priority=int(priority) or None,
                 client_id=client_id)


def _is_stream_end(event: JobEvent) -> bool:
    return event.kind == "state" and event.state in TERMINAL


async def _follow(wait_events, resource_id: str, after: int,
                  timeout: float | None):
    """Async-iterate ``wait_events`` long-polls until a terminal state."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        poll = 10.0
        if deadline is not None:
            poll = min(poll, deadline - time.monotonic())
            if poll <= 0:
                raise TimeoutError(f"{resource_id} event stream still open")
        batch, _done = await wait_events(resource_id, after=after, timeout=poll)
        for event in batch:
            yield event
            if _is_stream_end(event):
                return
        if batch:
            after = batch[-1].seq


class BaseClient(abc.ABC):
    """The client protocol both transports implement.

    Method semantics (argument names included) are part of the
    contract; in-process implementations may be ``async`` where the
    HTTP client blocks, but names, payload shapes
    (:class:`~repro.serve.jobs.Job` wire dicts,
    :class:`repro.schema.JobEvent`), and raised error types match.
    """

    @abc.abstractmethod
    def submit(self, design: str, *, flow: str = "puffer", config=None,
               route: bool = False, timeout: float | None = None,
               priority: int = 0, client_id: str | None = None):
        """Submit one placement; returns the created job."""

    @abc.abstractmethod
    def status(self, job_id: str):
        """The job's current status."""

    @abc.abstractmethod
    def cancel(self, job_id: str):
        """Cancel a queued or running job."""

    @abc.abstractmethod
    def wait(self, job_id: str, timeout: float | None = None):
        """Block/await until the job is terminal; returns it."""

    @abc.abstractmethod
    def run(self, design: str, *, wait_timeout: float | None = None,
            progress=None, **kwargs):
        """Submit + wait + return the result summary (or raise
        :class:`JobFailedError`); ``progress`` is called with every
        :class:`~repro.schema.JobEvent` observed while waiting."""

    @abc.abstractmethod
    def events(self, job_id: str, after: int = -1):
        """The job's ordered events with ``seq > after``."""

    @abc.abstractmethod
    def follow(self, job_id: str, *, after: int = -1,
               timeout: float | None = None):
        """Iterate events live, ending after the terminal state event."""

    @abc.abstractmethod
    def healthz(self) -> dict:
        """Liveness payload."""

    @abc.abstractmethod
    def metrics(self) -> dict:
        """Counters + instruments payload."""


class ServiceClient(BaseClient):
    """In-process async client over a started :class:`PlacementService`."""

    def __init__(self, service) -> None:
        self.service = service

    async def submit(self, design: str, **kwargs):
        """Submit and return the :class:`~repro.serve.jobs.Job`."""
        return self.service.submit(make_request(design, **kwargs))

    async def wait(self, job_id: str, timeout: float | None = None):
        """Await the job's terminal state and return it."""
        return await self.service.wait(job_id, timeout=timeout)

    async def run(self, design: str, *, wait_timeout: float | None = None,
                  progress=None, **kwargs) -> dict:
        """Submit, await completion, and return the result summary.

        Args:
            progress: optional callable invoked with every
                :class:`repro.schema.JobEvent` as it arrives.

        Raises:
            JobFailedError: the job failed or was cancelled.
        """
        job = await self.submit(design, **kwargs)
        if progress is not None:
            async for event in self.follow(job.id, timeout=wait_timeout):
                progress(event)
            job = self.status(job.id)
        else:
            job = await self.wait(job.id, timeout=wait_timeout)
        return _result(job)

    def status(self, job_id: str):
        return self.service.status(job_id)

    def cancel(self, job_id: str):
        return self.service.cancel(job_id)

    def events(self, job_id: str, after: int = -1) -> list:
        return self.service.events(job_id, after=after)

    def follow(self, job_id: str, *, after: int = -1,
               timeout: float | None = None):
        """Async-iterate the job's events until its terminal event."""
        return _follow(self.service.wait_events, job_id, after, timeout)

    def healthz(self) -> dict:
        return self.service.healthz()

    def metrics(self) -> dict:
        return self.service.metrics()

    # -- ECO sessions --------------------------------------------------

    def create_session(self, design: str, *, config=None, eco=None,
                       verify: str | None = None):
        """Open an incremental session; returns the live ``Session``."""
        return self.service.sessions.create(
            make_session_request(design, config=config, eco=eco, verify=verify)
        )

    async def wait_session(self, session_id: str, timeout: float | None = None):
        """Await the cold start (ready or failed) and return the session."""
        return await self.service.sessions.wait_ready(session_id, timeout=timeout)

    def submit_delta(self, session_id: str, delta):
        """Queue one delta (typed or wire dict) against a session."""
        if hasattr(delta, "to_dict"):
            delta = delta.to_dict()
        return self.service.sessions.submit_delta(session_id, delta)

    async def apply_delta(self, session_id: str, delta,
                          timeout: float | None = None) -> dict:
        """Submit a delta, await it, and return its result summary.

        Raises:
            JobFailedError: the delta failed.
        """
        record = self.submit_delta(session_id, delta)
        return _result(await self.service.sessions.wait_delta(
            session_id, record.id, timeout=timeout
        ))

    def close_session(self, session_id: str):
        return self.service.sessions.close(session_id)

    # -- strategy explorations -----------------------------------------

    def create_exploration(self, config=None, *, priority: int = 0,
                           client_id: str | None = None):
        """Start an exploration; returns the live ``Exploration``."""
        return self.service.explorations.create(
            make_exploration_request(
                config, priority=priority, client_id=client_id
            )
        )

    def exploration(self, exploration_id: str):
        return self.service.explorations.get(exploration_id)

    def explorations(self, state: str | None = None) -> list:
        return self.service.explorations.explorations(state)

    def cancel_exploration(self, exploration_id: str):
        return self.service.explorations.cancel(exploration_id)

    async def wait_exploration(self, exploration_id: str,
                               timeout: float | None = None):
        """Await the exploration's terminal state and return it."""
        return await self.service.explorations.wait(
            exploration_id, timeout=timeout
        )

    def exploration_events(self, exploration_id: str, after: int = -1) -> list:
        return self.service.explorations.events(exploration_id, after=after)

    def follow_exploration(self, exploration_id: str, *, after: int = -1,
                           timeout: float | None = None):
        """Async-iterate trial/state events until the terminal event."""
        return _follow(self.service.explorations.wait_events, exploration_id,
                       after, timeout)

    def exploration_report(self, exploration_id: str) -> dict:
        """The finished exploration's wire report (raises
        :class:`~repro.serve.exploration.ExplorationStateError` until
        ``done``)."""
        return self.service.explorations.report(exploration_id)


class HttpServiceClient(BaseClient):
    """Synchronous JSON client for a ``repro serve`` endpoint (``/v1``).

    Args:
        host, port: the server address.
        timeout: socket timeout per request, seconds.  Long-poll
            requests extend it by the requested server-side wait.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8180,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None,
                 timeout: float | None = None) -> dict:
        body = None if payload is None else json.dumps(payload)
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout or self.timeout
        )
        try:
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8") or "{}")
            status = response.status
            retry_after = response.getheader("Retry-After")
        finally:
            conn.close()
        if status < 400:
            return data
        self._raise(status, data.get("error", f"HTTP {status}"), retry_after)

    def _poll(self, path: str, until: frozenset, timeout: float | None,
              poll: float) -> dict:
        """GET ``path`` until its ``state`` is in ``until``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self._request("GET", path)
            if record["state"] in until:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(f"{record['id']} still {record['state']}")
            time.sleep(poll)

    def _events(self, path: str, after: int, wait: float | None) -> list:
        """GET ``<path>/events`` past ``after``; ``wait`` long-polls."""
        path = f"{path}/events?after={after}"
        timeout = None
        if wait:
            path += f"&wait={wait:g}"
            timeout = self.timeout + wait
        payload = self._request("GET", path, timeout=timeout)
        return [JobEvent.from_dict(event) for event in payload["events"]]

    def _follow(self, path: str, after: int, timeout: float | None,
                wait: float):
        """Yield ``<path>/events`` live until a terminal state event."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            poll = wait
            if deadline is not None:
                poll = min(poll, deadline - time.monotonic())
                if poll <= 0:
                    raise TimeoutError(f"{path} event stream still open")
            batch = self._events(path, after, max(poll, 0.05))
            for event in batch:
                yield event
                if _is_stream_end(event):
                    return
            if batch:
                after = batch[-1].seq

    def _raise(self, status: int, message: str, retry_after) -> None:
        if status == 429:
            # Capacity isn't on the wire; keep the server's message.
            raise QueueFullError(capacity=-1,
                                 retry_after=float(retry_after or 1.0),
                                 message=message)
        if status == 404:
            raise UnknownJobError("<remote>", message=message)
        if status == 409:
            raise JobStateError(message)
        if status == 503:
            raise ServiceClosedError(message)
        if status == 400:
            raise ValueError(message)
        raise ServeError(f"HTTP {status}: {message}")

    # -- operations ----------------------------------------------------

    def submit(self, design: str, **kwargs) -> dict:
        """POST the job; returns its wire dict (``state`` = ``queued``
        or already ``done`` on a cache hit)."""
        return self._request("POST", "/v1/jobs", make_request(design, **kwargs))

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, state: str | None = None) -> list:
        path = "/v1/jobs" if state is None else f"/v1/jobs?state={state}"
        return self._request("GET", path)["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def events(self, job_id: str, after: int = -1,
               wait: float | None = None) -> list:
        """GET the job's events past ``after`` as typed
        :class:`~repro.schema.JobEvent`; ``wait`` long-polls up to that
        many seconds for the first new event."""
        return self._events(f"/v1/jobs/{job_id}", after, wait)

    def follow(self, job_id: str, *, after: int = -1,
               timeout: float | None = None, wait: float = 10.0):
        """Yield the job's events live (long-polling) until its
        terminal state event; raises ``TimeoutError`` past ``timeout``."""
        return self._follow(f"/v1/jobs/{job_id}", after, timeout, wait)

    def wait(self, job_id: str, timeout: float | None = None,
             poll: float = 0.25) -> dict:
        """Poll until the job is terminal; returns its wire dict."""
        return self._poll(f"/v1/jobs/{job_id}", TERMINAL, timeout, poll)

    def run(self, design: str, *, wait_timeout: float | None = None,
            poll: float = 0.25, progress=None, **kwargs) -> dict:
        """Submit, wait to completion, and return the result summary.

        With ``progress`` the wait rides the event stream (one callback
        per :class:`~repro.schema.JobEvent`) instead of status polling.
        """
        job = self.submit(design, **kwargs)
        if job["state"] != DONE:
            if progress is not None:
                for event in self.follow(job["id"], timeout=wait_timeout):
                    progress(event)
                job = self.status(job["id"])
            else:
                job = self.wait(job["id"], timeout=wait_timeout, poll=poll)
        return _result(job)

    # -- ECO sessions --------------------------------------------------

    def create_session(self, design: str, *, config=None, eco=None,
                       verify: str | None = None) -> dict:
        """POST the session; returns its wire dict (``initializing``)."""
        return self._request(
            "POST", "/v1/sessions",
            make_session_request(design, config=config, eco=eco, verify=verify),
        )

    def session(self, session_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}")

    def sessions(self) -> list:
        return self._request("GET", "/v1/sessions")["sessions"]

    def close_session(self, session_id: str) -> dict:
        return self._request("DELETE", f"/v1/sessions/{session_id}")

    def wait_session(self, session_id: str, timeout: float | None = None,
                     poll: float = 0.25) -> dict:
        """Poll until the cold start finishes; returns the wire dict."""
        # The cold start ends in whatever ``initializing`` may move to.
        return self._poll(f"/v1/sessions/{session_id}",
                          Session.lifecycle.moves[INITIALIZING], timeout, poll)

    def submit_delta(self, session_id: str, delta) -> dict:
        """POST one delta (typed or wire dict); returns its wire dict."""
        if hasattr(delta, "to_dict"):
            delta = delta.to_dict()
        return self._request("POST", f"/v1/sessions/{session_id}/deltas", delta)

    def delta(self, session_id: str, delta_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}/deltas/{delta_id}")

    def wait_delta(self, session_id: str, delta_id: str,
                   timeout: float | None = None, poll: float = 0.25) -> dict:
        """Poll until the delta is terminal; returns its wire dict."""
        return self._poll(f"/v1/sessions/{session_id}/deltas/{delta_id}",
                          DeltaJob.lifecycle.terminal, timeout, poll)

    def apply_delta(self, session_id: str, delta,
                    wait_timeout: float | None = None,
                    poll: float = 0.25) -> dict:
        """Submit a delta, poll to completion, return its result summary."""
        record = self.submit_delta(session_id, delta)
        return _result(self.wait_delta(session_id, record["id"], wait_timeout, poll))

    # -- strategy explorations -----------------------------------------

    def create_exploration(self, config=None, *, priority: int = 0,
                           client_id: str | None = None) -> dict:
        """POST the exploration; returns its wire dict (``running``)."""
        return self._request(
            "POST", "/v1/explorations",
            make_exploration_request(
                config, priority=priority, client_id=client_id
            ),
        )

    def exploration(self, exploration_id: str) -> dict:
        return self._request("GET", f"/v1/explorations/{exploration_id}")

    def explorations(self, state: str | None = None) -> list:
        path = (
            "/v1/explorations" if state is None
            else f"/v1/explorations?state={state}"
        )
        return self._request("GET", path)["explorations"]

    def cancel_exploration(self, exploration_id: str) -> dict:
        return self._request("DELETE", f"/v1/explorations/{exploration_id}")

    def wait_exploration(self, exploration_id: str,
                         timeout: float | None = None,
                         poll: float = 0.25) -> dict:
        """Poll until the exploration is terminal; returns its wire dict."""
        return self._poll(f"/v1/explorations/{exploration_id}", TERMINAL,
                          timeout, poll)

    def exploration_events(self, exploration_id: str, after: int = -1,
                           wait: float | None = None) -> list:
        """GET the exploration's events past ``after`` as typed
        :class:`~repro.schema.JobEvent`; ``wait`` long-polls."""
        return self._events(f"/v1/explorations/{exploration_id}", after, wait)

    def follow_exploration(self, exploration_id: str, *, after: int = -1,
                           timeout: float | None = None, wait: float = 10.0):
        """Yield trial/state events live (long-polling) until the
        exploration's terminal state event."""
        return self._follow(f"/v1/explorations/{exploration_id}", after,
                            timeout, wait)

    def exploration_report(self, exploration_id: str) -> dict:
        """GET the finished report (409/``JobStateError`` until done)."""
        return self._request(
            "GET", f"/v1/explorations/{exploration_id}/report"
        )
