"""Stateful ECO sessions on the placement service.

A session owns a converged :class:`repro.eco.EcoSession` and accepts
incremental deltas keyed to it, each its own :class:`DeltaJob`.  Deltas
apply strictly in submission order (an asyncio lock serializes them —
incremental state is inherently sequential).  Both lifecycles, and the
drain that closes every session, are under "Resource lifecycle" in
``docs/api.md``.
"""

from __future__ import annotations

import asyncio
import time

from .. import obs
from ..schema import SchemaError
from .jobs import (
    DONE,
    QUEUED,
    RUNNING,
    Lifecycle,
    QueueFullError,
    Registry,
    Resource,
    ResourceStateError,
    UnknownResourceError,
    check_request,
)

#: Request keys accepted by ``POST /v1/sessions``.
_SESSION_KEYS = frozenset({"design", "config", "eco", "verify"})

#: Session lifecycle states.
INITIALIZING = "initializing"
READY = "ready"
BUSY = "busy"
FAILED = "failed"
CLOSED = "closed"


class UnknownSessionError(UnknownResourceError):
    """A session id with no entry in the manager."""

    kind = "session"


class UnknownDeltaError(UnknownResourceError):
    """A delta id with no entry in its session."""

    kind = "delta"


class SessionStateError(ResourceStateError):
    """An operation a session's current state does not allow."""


SESSION_LIFECYCLE = Lifecycle("session", {
    INITIALIZING: {READY, FAILED, CLOSED},
    READY: {BUSY, CLOSED},
    BUSY: {READY, FAILED, CLOSED},
    FAILED: {CLOSED},
    CLOSED: (),
}, SessionStateError, UnknownSessionError)

SESSION_STATES = SESSION_LIFECYCLE.states

#: Delta lifecycle (a subset of the job lifecycle).  A delta queued on
#: a session that closes or fails before its turn fails unrun.
DELTA_LIFECYCLE = Lifecycle("delta", {
    QUEUED: {RUNNING, FAILED},
    RUNNING: {DONE, FAILED},
    DONE: (),
    FAILED: (),
}, SessionStateError, UnknownDeltaError)


def build_engine(request: dict):
    """Default engine factory: an :class:`repro.eco.EcoSession` from the
    normalized session request (tests inject fakes instead)."""
    from ..api import RunConfig
    from ..eco import EcoParams, EcoSession

    config = RunConfig.from_dict(request.get("config") or {})
    eco = EcoParams.from_dict(request.get("eco") or {})
    return EcoSession(request["design"], config=config, eco=eco)


class DeltaJob(Resource):
    """One submitted delta and its lifecycle within a session."""

    lifecycle = DELTA_LIFECYCLE

    def __init__(self, delta_id: str, session_id: str, payload: dict) -> None:
        self.id = delta_id
        self.session = session_id
        self.payload = payload
        self.state = QUEUED
        self.result: dict | None = None
        self.submitted_at = time.time()

    def to_wire(self) -> dict:
        return {
            "id": self.id,
            "session": self.session,
            "state": self.state,
            "delta": self.payload,
            "result": self.result,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class Session(Resource):
    """One live ECO session: engine + delta registry + serialization lock."""

    lifecycle = SESSION_LIFECYCLE

    def __init__(self, session_id: str, request: dict, engine) -> None:
        self.id = session_id
        self.request = request
        self.engine = engine
        self.state = INITIALIZING
        self.baseline: dict | None = None
        self.deltas = Registry(DeltaJob, f"{session_id}-d")
        self.created_at = time.time()
        self.lock = asyncio.Lock()
        self.ready_event = asyncio.Event()

    @property
    def open(self) -> bool:
        return self.state in (INITIALIZING, READY, BUSY)

    def to_wire(self) -> dict:
        """The JSON-safe status dict served over HTTP."""
        return {
            "id": self.id,
            "state": self.state,
            "request": self.request,
            "version": getattr(self.engine, "version", -1),
            "baseline": self.baseline,
            "deltas": [d.to_wire() for d in self.deltas.list()],
            "error": self.error,
            "created_at": self.created_at,
        }


class SessionManager(Registry):
    """Owns every session; serializes each session's work on the loop.

    Args:
        engine_factory: ``callable(request dict) -> engine`` where the
            engine exposes ``start()``, ``apply(delta, verify=...)``
            (both returning objects with ``to_summary()``), and
            ``close()``.  Defaults to :func:`build_engine`.
        max_pending: per-session bound on queued deltas (backpressure).
        retry_after: seconds hinted to rejected clients.
    """

    def __init__(self, engine_factory=None, max_pending: int = 16,
                 retry_after: float = 0.5) -> None:
        super().__init__(Session, "sess-")
        self._factory = engine_factory or build_engine
        self.max_pending = max_pending
        self.retry_after = retry_after

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def create(self, request: dict) -> Session:
        """Validate ``request``, build the engine, start converging.

        The request is a JSON-safe dict: ``design`` (required), and
        optional ``config`` (:class:`repro.api.RunConfig` wire dict),
        ``eco`` (:class:`repro.eco.EcoParams` wire dict), and ``verify``
        (checker level applied to every delta, default ``"cheap"``).
        """
        with obs.span("serve/session", op="create"):
            self.check_intake("sessions")
            normalized = self._normalize(request)
            engine = self._factory(normalized)
            session = super().create(normalized, engine)
            obs.counter("eco/sessions").inc()
            self._spawn(self._initialize(session))
            return session

    sessions = Registry.list

    def close(self, session_id: str) -> Session:
        """Release a session's retained state (idempotent)."""
        session = self.get(session_id)
        if session.state != CLOSED:
            self.move(session, CLOSED)
            session.ready_event.set()
            close = getattr(session.engine, "close", None)
            if close is not None:
                close()
            obs.counter("eco/sessions_closed").inc()
        return session

    def close_all(self) -> None:
        """Drain-time GC: close every session and refuse new ones."""
        self.draining = True
        for session in self.list():
            self.close(session.id)

    async def wait_ready(self, session_id: str, timeout: float | None = None) -> Session:
        """Await the end of initialization (ready or failed)."""
        session = self.get(session_id)
        await asyncio.wait_for(session.ready_event.wait(), timeout)
        return session

    # ------------------------------------------------------------------
    # Deltas
    # ------------------------------------------------------------------

    def submit_delta(self, session_id: str, payload: dict) -> DeltaJob:
        """Queue one delta payload against a session.

        Raises:
            UnknownSessionError: no such session.
            SessionStateError: the session is closed or failed.
            QueueFullError: too many deltas already pending.
            repro.schema.SchemaError: an invalid delta payload.
        """
        with obs.span("serve/session", op="delta", session=session_id):
            self.check_intake("deltas")
            session = self.get(session_id)
            if not session.open:
                raise SessionStateError(
                    f"session {session_id} is {session.state}"
                )
            from ..eco import delta_from_dict

            delta_from_dict(payload)  # boundary validation; raises SchemaError
            if len(session.deltas.list(QUEUED)) >= self.max_pending:
                raise QueueFullError(self.max_pending, self.retry_after)
            delta = session.deltas.create(session.id, dict(payload))
            self._spawn(self._apply(session, delta))
            return delta

    def delta(self, session_id: str, delta_id: str) -> DeltaJob:
        """The delta (raises :class:`UnknownDeltaError`)."""
        return self.get(session_id).deltas.get(delta_id)

    async def wait_delta(self, session_id: str, delta_id: str,
                         timeout: float | None = None) -> DeltaJob:
        """Await a delta's terminal state and return it."""
        return await self.get(session_id).deltas.wait(delta_id, timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize(request: dict) -> dict:
        from ..api import RunConfig
        from ..eco import EcoParams
        from ..verify import LEVELS

        check_request(request, _SESSION_KEYS, "session request")
        design = request.get("design")
        if not isinstance(design, str) or not design:
            raise ValueError("session request needs a 'design' benchmark name")
        config = RunConfig.from_dict(request.get("config") or {})
        eco = EcoParams.from_dict(request.get("eco") or {})
        verify = request.get("verify", "cheap")
        if verify not in LEVELS:
            raise ValueError(
                f"unknown verify level {verify!r}; expected one of {LEVELS}"
            )
        return {
            "design": design,
            "config": config.to_dict(),
            "eco": eco.to_dict(),
            "verify": verify,
        }

    async def _initialize(self, session: Session) -> None:
        loop = asyncio.get_running_loop()
        async with session.lock:
            if session.state == CLOSED:
                return
            try:
                result = await loop.run_in_executor(None, session.engine.start)
            except BaseException as exc:
                if session.state != CLOSED:
                    self.move(
                        session, FAILED, error=f"{type(exc).__name__}: {exc}"
                    )
                    obs.counter("eco/sessions_failed").inc()
            else:
                session.baseline = result.to_summary()
                if session.state == INITIALIZING:
                    self.move(session, READY)
            finally:
                session.ready_event.set()

    async def _apply(self, session: Session, delta: DeltaJob) -> None:
        loop = asyncio.get_running_loop()
        async with session.lock:
            if not session.open:
                session.deltas.move(
                    delta, FAILED, error=f"session {session.id} is {session.state}"
                )
                return
            session.deltas.move(delta, RUNNING)
            self.move(session, BUSY)
            verify = session.request.get("verify", "cheap")
            try:
                result = await loop.run_in_executor(
                    None, lambda: session.engine.apply(delta.payload, verify=verify)
                )
            except (SchemaError, ValueError, TypeError, RuntimeError) as exc:
                # A bad delta fails the delta, not the session.
                session.deltas.move(delta, FAILED, error=f"{type(exc).__name__}: {exc}")
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                session.deltas.move(delta, FAILED, error=error)
                if session.state == BUSY:
                    self.move(session, FAILED, error=error)
            else:
                session.deltas.move(delta, DONE, result=result.to_summary())
                obs.counter("eco/deltas_applied").inc()
            if session.state == BUSY:  # not closed or failed meanwhile
                self.move(session, READY)
