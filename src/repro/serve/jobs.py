"""The serving tier's resource core, and the job kind built on it.

Jobs, ECO sessions (and their deltas) and explorations share one
machinery, defined here once: ids from a kind prefix, states that move
only along the kind's :class:`Lifecycle` table, an ordered event stream,
a done event fired on a terminal state, and the 404/409 error bases.
``sessions.py`` and ``exploration.py`` keep only what is specific to
their kind.  The tables and their shared semantics are under "Resource
lifecycle" in ``docs/api.md``.  Registries are loop-confined like the
service, so they need no locks.

A job moves ``queued → running → done | failed | cancelled``, with
``queued → done`` for a submit-time cache hit; the stamped times let
``repro jobs`` show queue latency and run time.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field

from .events import EventLog

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class ServeError(Exception):
    """Base class of service-boundary errors."""


class UnknownResourceError(ServeError, KeyError):
    """An id with no entry in its registry (HTTP 404); subclasses set
    :attr:`kind`, and the id is kept as ``<kind>_id``."""

    kind = "resource"

    def __init__(self, resource_id: str, message: str | None = None) -> None:
        setattr(self, f"{self.kind}_id", resource_id)
        self._message = message or f"unknown {self.kind} {resource_id!r}"
        super().__init__(self._message)

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument; keep the message plain
        # so it survives the HTTP error round-trip unmangled.
        return self._message


class ResourceStateError(ServeError):
    """An operation the resource's state forbids (HTTP 409)."""


class ServiceClosedError(ServeError):
    """A submission after the service began draining (HTTP 503)."""


class QueueFullError(ServeError):
    """The bounded job queue rejected a submission (backpressure).

    Attributes:
        retry_after: hint, in seconds, before the client should retry
            (becomes the HTTP ``Retry-After`` header).
    """

    def __init__(self, capacity: int, retry_after: float,
                 message: str | None = None) -> None:
        self.capacity = capacity
        self.retry_after = retry_after
        super().__init__(
            message
            or f"job queue is full (capacity {capacity}); retry in {retry_after:g}s"
        )


def check_request(request, allowed: frozenset, what: str = "request") -> None:
    """Boundary check shared by every kind's create: ``request`` is a
    dict with no keys outside ``allowed``."""
    if not isinstance(request, dict):
        raise ValueError(f"{what} must be a dict, got {type(request).__name__}")
    unknown = set(request) - allowed
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def scheduling_hints(request: dict, default_client: str) -> tuple:
    """The validated ``(priority, client_id)`` of a job or exploration
    request."""
    priority = request.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError("request 'priority' must be an int")
    client_id = request.get("client_id", default_client)
    if not isinstance(client_id, str) or not client_id:
        raise ValueError("request 'client_id' must be a non-empty string")
    return priority, client_id


class Lifecycle:
    """One kind's states, legal moves and typed errors: ``moves`` maps
    each state, in display order, to the states it may move to; states
    with no moves out are terminal."""

    def __init__(self, kind: str, moves: dict, state_error: type,
                 unknown_error: type) -> None:
        self.kind = kind
        self.moves = {state: frozenset(to) for state, to in moves.items()}
        self.states = tuple(moves)
        self.terminal = frozenset(s for s, to in self.moves.items() if not to)
        self.state_error = state_error
        self.unknown_error = unknown_error


class Resource:
    """Base of every served resource: an ``id``, a ``state``, and the
    kind's :class:`Lifecycle` as the class attribute ``lifecycle``."""

    lifecycle: Lifecycle
    error: str | None = None
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in self.lifecycle.terminal

    def transition(self, state: str) -> None:
        """Move to ``state``, stamping ``started_at`` on ``running`` and
        ``finished_at`` on a terminal state; illegal moves raise."""
        lifecycle = self.lifecycle
        if state not in lifecycle.moves:
            raise lifecycle.state_error(f"unknown {lifecycle.kind} state {state!r}")
        if state not in lifecycle.moves[self.state]:
            raise lifecycle.state_error(
                f"{lifecycle.kind} {self.id} cannot move {self.state!r} -> {state!r}"
            )
        self.state = state
        if state == RUNNING:
            self.started_at = time.time()
        elif state in lifecycle.terminal:
            self.finished_at = time.time()


class Registry:
    """Insertion-ordered resources of one ``kind`` (a :class:`Resource`
    subclass), with ids ``<prefix>N`` and state events published to
    ``log`` (kinds may share one, ids being unique across kinds)."""

    #: Set when the service drains; :meth:`check_intake` then refuses.
    draining = False

    def __init__(self, kind: type, prefix: str, log: EventLog | None = None) -> None:
        self.kind = kind
        self.prefix = prefix
        self.log = EventLog() if log is None else log
        self._items: dict = {}
        self._done: dict = {}
        self._tasks: set = set()
        self._ids = itertools.count(1)

    def create(self, *args, **kwargs) -> Resource:
        """Register ``kind(<new id>, ...)``; publish its initial state."""
        resource = self.kind(f"{self.prefix}{next(self._ids)}", *args, **kwargs)
        self._items[resource.id] = resource
        self._done[resource.id] = asyncio.Event()
        self.log.publish(resource.id, "state", state=resource.state)
        return resource

    def check_intake(self, what: str) -> None:
        """Raise :class:`ServiceClosedError` once draining began."""
        if self.draining:
            raise ServiceClosedError(f"service is draining; not accepting {what}")

    def _spawn(self, coro) -> None:
        """Run ``coro`` as a task, referenced until it finishes."""
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def get(self, resource_id: str) -> Resource:
        """The resource; raises the kind's unknown-id error."""
        try:
            return self._items[resource_id]
        except KeyError:
            raise self.kind.lifecycle.unknown_error(resource_id) from None

    def live(self, resource_id: str) -> Resource:
        """:meth:`get`, raising the kind's state error when terminal."""
        resource = self.get(resource_id)
        if resource.terminal:
            raise resource.lifecycle.state_error(
                f"{resource.lifecycle.kind} {resource_id} is already {resource.state}"
            )
        return resource

    def list(self, state: str | None = None) -> list:
        """All resources in creation order, optionally filtered by state."""
        return [r for r in self._items.values() if state is None or r.state == state]

    def counts(self) -> dict:
        """``state -> count`` over every state of the kind (zeros included)."""
        counts = dict.fromkeys(self.kind.lifecycle.states, 0)
        for resource in self._items.values():
            counts[resource.state] += 1
        return counts

    def __len__(self) -> int:
        return len(self._items)

    def move(self, resource: Resource, state: str, **fields) -> None:
        """Transition ``resource``, set ``fields`` on it, publish the
        state event, and fire the done event on a terminal state."""
        resource.transition(state)
        for name, value in fields.items():
            setattr(resource, name, value)
        self.log.publish(resource.id, "state", state=state)
        if resource.terminal:
            self._done[resource.id].set()

    async def wait(self, resource_id: str, timeout: float | None = None) -> Resource:
        """Await the resource's terminal state and return it."""
        resource = self.get(resource_id)
        await asyncio.wait_for(self._done[resource_id].wait(), timeout)
        return resource

    def events(self, resource_id: str, after: int = -1) -> list:
        """Events of ``resource_id`` with ``seq > after`` (non-blocking)."""
        self.get(resource_id)
        return self.log.events(resource_id, after)

    async def wait_events(self, resource_id: str, after: int = -1,
                          timeout: float | None = 30.0) -> tuple:
        """Long-poll for events past ``after``: ``(events, stream_done)``,
        the latter true once the resource is terminal."""
        resource = self.get(resource_id)
        if resource.terminal:
            return self.log.events(resource_id, after), True
        return await self.log.wait(resource_id, after, timeout), resource.terminal


class UnknownJobError(UnknownResourceError):
    """A job id with no entry in the store."""

    kind = "job"


class JobStateError(ResourceStateError):
    """An illegal lifecycle transition (e.g. cancelling a done job)."""


#: Legal transitions.  ``queued -> done`` is the submit-time cache hit.
JOB_LIFECYCLE = Lifecycle("job", {
    QUEUED: {RUNNING, DONE, CANCELLED},
    RUNNING: {DONE, FAILED, CANCELLED},
    DONE: (),
    FAILED: (),
    CANCELLED: (),
}, JobStateError, UnknownJobError)

STATES = JOB_LIFECYCLE.states

#: States a job never leaves.
TERMINAL = JOB_LIFECYCLE.terminal


@dataclass
class Job(Resource):
    """One placement request and its lifecycle.

    Attributes:
        id: store-unique identifier (``job-N``).
        request: the validated wire request (JSON-safe dict).
        key: memoization key — ``stable_hash`` of the serialized config.
        state: current lifecycle state.
        result: JSON-safe result summary once ``done``.
        error: terminal error message once ``failed``.
        cache_hit: whether the result came from the artifact cache.
        timeout: per-job wall-clock budget in seconds (``None`` = none).
        client_id: fair-queue bucket the job dispatches from.
        priority: scheduling priority (larger int = more important).
        coalesced: the job attached to an in-flight duplicate instead of
            queueing its own execution.
        shard: index of the process shard that ran the job (``None``
            until running, and always in thread mode).
        submitted_at / started_at / finished_at: ``time.time()`` stamps.
    """

    lifecycle = JOB_LIFECYCLE

    id: str
    request: dict
    key: str
    state: str = QUEUED
    result: dict | None = None
    error: str | None = None
    cache_hit: bool = False
    timeout: float | None = None
    client_id: str = "default"
    priority: int = 0
    coalesced: bool = False
    shard: int | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_wire(self) -> dict:
        """The JSON-safe status dict served over HTTP."""
        return {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "request": self.request,
            "result": self.result,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "timeout": self.timeout,
            "client_id": self.client_id,
            "priority": self.priority,
            "coalesced": self.coalesced,
            "shard": self.shard,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobStore(Registry):
    """Insertion-ordered registry of every job the service has seen."""

    def __init__(self) -> None:
        super().__init__(Job, "job-")

    jobs = Registry.list
