"""Asyncio HTTP/JSON serving tier for the Figure-2 insights.

Stdlib only: ``asyncio`` streams speak a small HTTP/1.1 subset (GET,
keep-alive).  Every ``/insights`` and ``/q`` request is answered on the
event-loop thread over its user's shard replica (one read-only
connection per shard, :mod:`repro.serve.pool`): a cache hit and a miss
take the same read path, and a render pays no thread handoff.  A
one-thread executor runs only the work that goes through the router
connection: access-log flushes, ``/v1/stats`` and ``/v1/orchestrator``.

Trade-off: a replica read (a hit's ledger read as much as a miss's
render) that meets a refresh upsert's commit on its shard waits in
SQLite's busy handler, and the whole event loop waits with it until the
commit releases the shard file.  Access-log flushes commit to the
router file, which no replica opens.

Endpoints (versioned under ``/v1/``)
------------------------------------
``GET /v1/healthz``
    Liveness probe.
``GET /v1/stats``
    Request, cache, replica-pool, access-log and freshness counters.
``GET /v1/orchestrator``
    Orchestrator health: leader seat (identity, epoch, lease age), the
    last checkpointed metrics snapshot, budget and freshness — read
    from durable store state, so it works whether or not an
    orchestrator shares this process.
``GET /v1/insights?user=U[&alpha=A][&feature=F][&budget=B][&freshness=1]``
    The rendered per-user insight bundle (Q1–Q6, plus Q7 when a budget
    is given) with the fingerprint ledger it was computed under.
    ``freshness=1`` adds ``meta.freshness`` (seconds since the oldest
    backing cell was recomputed) — those responses bypass the cache.
``GET /v1/q/<qid>?user=U[&alpha=A][&feature=F][&budget=B]``
    One canned question (``q1`` .. ``q7``).

The bare (un-versioned) paths remain as **deprecated aliases**: they
serve byte-identical bodies and additionally emit a ``Deprecation:
true`` header.  Errors use a consistent JSON envelope on both surfaces:
``{"error": {"code": <machine-readable>, "message": <human>}}``.

Access feedback
---------------
Each served ``/insights`` / ``/q`` request is recorded as a ``(user,
question, ts)`` row in the store's ``access_log`` — buffered on the
event-loop thread and flushed in batches from the executor through a
dedicated write connection (fire-and-forget: a failed flush drops the
batch, never the response).  A batch is one commit to the router file,
so a flush never stalls a replica read.  The refresh orchestrator folds
the log into decayed per-user priority scores that order its budgeted
drains.

Freshness contract
------------------
Every response is rendered against a **consistent fingerprint
snapshot**: the server reads the user's ``(time, model_fp)`` ledger,
renders (or serves the cache entry validated against exactly that
vector), then re-reads the ledger and retries if anything moved.
Fingerprint transitions are one-way within an epoch (old → new, written
in the same transaction as the candidate rows they describe), so the
loop converges immediately once the writer's commit lands — and a
response's ``ledger`` field is therefore always the exact model state
its ``insights`` were computed under, refresh in flight or not.

A bundle render runs 9 SQL statements: the two ledger reads of the
snapshot check, one read of all of the user's temporal inputs and one
statement per question Q1–Q6 (Q3's covered times and plan rows
included).  A budget adds Q7 (10), and ``plans=k`` one plan-set read
per distinct answering cell; ``/q/<qid>`` is the two ledger reads and
its question, plus the inputs read when it builds a plan or needs the
horizon (Q3).  Cache hits
replace all of that with a single indexed primary-key ledger read plus
a dict lookup; replica connections keep even cache *misses* off the
writers' connections.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.core.insights import QUESTIONS, InsightEngine
from repro.db.prepared import prepared_for
from repro.db.store import CandidateStore
from repro.exceptions import QueryError, ReproError, StorageError
from repro.serve.cache import InsightCache
from repro.serve.pool import ReplicaPool
from repro.serve.protocol import (
    bundle_payload,
    dumps,
    insight_payload,
    orchestrator_payload,
)

__all__ = ["InsightServer", "ServeError", "bundle_freshness_seconds"]

#: bound on render-retry rounds when a refresh keeps landing mid-read;
#: each round is one ledger read + render, and fingerprint transitions
#: are one-way, so real convergence takes 1–2 rounds
_MAX_SNAPSHOT_RETRIES = 50

#: access-log entries buffered on the event-loop thread before one
#: batched fire-and-forget flush is dispatched to the executor
_ACCESS_FLUSH_BATCH = 32

#: extra header rows sent on the deprecated un-versioned paths
_DEPRECATED = (("Deprecation", "true"),)

#: HTTP status → machine-readable error code of the JSON error envelope
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    500: "internal",
    503: "unavailable",
}


def _error(code: str, message: str) -> dict[str, Any]:
    """The versioned API's error envelope (also served, byte-identical,
    on the deprecated bare paths)."""
    return {"error": {"code": code, "message": message}}


def _keep_alive(version: str, header_block: str) -> bool:
    """HTTP-version-correct connection persistence.

    Only the ``Connection`` header's own comma-separated token list
    decides (never a substring scan of the whole head, which would
    match inside unrelated headers and miss ``keep-alive, close``
    lists); absent a decisive token, the version default applies —
    persistent for HTTP/1.1, close for HTTP/1.0.
    """
    tokens: list[str] = []
    for line in header_block.split("\r\n"):
        name, sep, value = line.partition(":")
        if sep and name.strip().lower() == "connection":
            tokens.extend(token.strip().lower() for token in value.split(","))
    if "close" in tokens:
        return False
    if version.strip().upper() == "HTTP/1.0":
        return "keep-alive" in tokens
    return True


def bundle_freshness_seconds(store, user: str, read=None) -> float | None:
    """Age in seconds of the oldest ``refreshed_at`` stamp backing the
    user's cells, or ``None`` when no cell carries a stamp yet (rows
    predating the priority subsystem, or never refreshed).

    Computed in one query against the *store's* clock (``CLOCK_SQL -
    refreshed_at`` inside the query): the stamp was written by the store
    clock, so subtracting host ``time.time()`` would fold host↔store
    clock skew into the reported age.  ``read`` defaults to
    ``store.read``; the server passes its replica view's.
    """
    return prepared_for(store.schema.names).oldest_age(read or store.read, user)


class ServeError(ReproError):
    """A request that cannot be served (carries an HTTP status and a
    machine-readable envelope code, derived from the status unless
    given)."""

    def __init__(self, status: int, message: str, code: str | None = None):
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_CODES.get(status, "error")


class InsightServer:
    """Async HTTP server over one :class:`CandidateStore`.

    Parameters
    ----------
    store:
        The live store (shared with the refresh side; reads go through
        read-only replicas where the backend supports them).
    time_values:
        Calendar value per time index, as in
        :class:`~repro.core.insights.InsightEngine`.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    cache_size / cache_enabled:
        Rendered-insight cache bound; disabling the cache renders every
        request from SQL (the benchmark's baseline mode).
    access_log:
        Whether served ``/insights`` / ``/q`` requests are recorded into
        the store's ``access_log`` (the refresh-priority feedback path),
        which a sharded store keeps in its router file, out of every
        replica's way.  On file-backed stores the flushes go through a
        dedicated write connection; in-memory stores share the router
        connection under a lock.  ``False`` disables recording entirely.
    """

    def __init__(
        self,
        store: CandidateStore,
        time_values,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 4096,
        cache_enabled: bool = True,
        access_log: bool = True,
    ):
        self.store = store
        self.time_values = list(time_values)
        self.host = host
        self.port = int(port)
        self.cache_enabled = bool(cache_enabled)
        self.cache = InsightCache(cache_size)
        # the pool and the parsed-plan cache (keyed on the raw request
        # target) are touched only by the event-loop thread
        self.pool = ReplicaPool(store)
        self._plan_cache: dict[str, tuple] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.requests_served = 0
        # access-log feedback: entries buffer on the event-loop thread
        # (no locks there); flushes run on the executor serialised by
        # _access_lock through a lazily opened dedicated write store
        self.access_log_enabled = bool(access_log)
        self._access_buffer: list[tuple[str, str, None]] = []
        self._access_store: CandidateStore | None = None
        self._access_lock = threading.Lock()
        self.accesses_recorded = 0
        self.accesses_dropped = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (resolves :attr:`port`)."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._access_buffer:
            # best-effort final flush of the partial batch before the
            # executor goes away (still fire-and-forget on failure)
            batch, self._access_buffer = self._access_buffer, []
            self._flush_access(batch)
        self._executor.shutdown(wait=True)
        with self._access_lock:
            if self._access_store is not None and self._access_store is not self.store:
                self._access_store.close()
            self._access_store = None
        self.pool.close()

    def start_background(self) -> str:
        """Run the server on a dedicated event-loop thread.

        Returns the base URL once the port is bound.  For tests and the
        benchmark driver, where the caller (and the refresh writer)
        stay on the main thread.
        """
        started = threading.Event()

        def _run() -> None:
            asyncio.run(self._run_until_stopped(started))

        self._stop_event: asyncio.Event | None = None
        self._thread = threading.Thread(target=_run, daemon=True)
        self._thread.start()
        if not started.wait(timeout=30):
            raise ServeError(500, "server failed to start within 30s")
        return f"http://{self.host}:{self.port}"

    async def _run_until_stopped(self, started: threading.Event) -> None:
        await self.start()
        self._stop_event = asyncio.Event()
        started.set()
        await self._stop_event.wait()
        await self.stop()

    def stop_background(self) -> None:
        if self._thread is None:
            return
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            loop.call_soon_threadsafe(event.set)
        self._thread.join(timeout=30)
        self._thread = None

    # ------------------------------------------------------- HTTP plumbing

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                # one buffered read covers request line + headers: GETs
                # carry no body, so the head IS the request
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, 400, _error("bad_request", "head too large")
                    )
                    break
                head = raw.decode("latin-1")
                request_line, _, header_block = head.partition("\r\n")
                parts = request_line.split(None, 2)
                if len(parts) != 3:
                    await self._respond(
                        writer, 400, _error("bad_request", "bad request")
                    )
                    break
                method, target, version = parts
                keep_alive = _keep_alive(version, header_block)
                status, payload, extra = await self._dispatch(method, target)
                self.requests_served += 1
                alive = await self._respond(
                    writer, status, payload,
                    keep_alive=keep_alive, extra_headers=extra,
                )
                if not alive or not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # server shutdown with the keep-alive connection still open;
            # close below, end the task quietly
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _respond(
        self, writer, status: int, payload: Any, *,
        keep_alive: bool = False, extra_headers=(),
    ) -> bool:
        body = (payload if isinstance(payload, str) else dumps(payload)).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Error")
        extra = "".join(f"{name}: {value}\r\n" for name, value in extra_headers)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False

    # ----------------------------------------------------------- dispatch

    async def _dispatch(
        self, method: str, target: str
    ) -> tuple[int, Any, tuple]:
        versioned = target.startswith("/v1/")
        headers = () if versioned else _DEPRECATED
        if method != "GET":
            return 405, _error("method_not_allowed", "only GET is supported"), headers
        try:
            plan = self._plan_cache.get(target)
            if plan is None:
                split = urlsplit(target)
                path = split.path
                if versioned:
                    path = path[len("/v1"):]
                query = {
                    key: values[-1]
                    for key, values in parse_qs(split.query).items()
                }
                if path == "/healthz":
                    return 200, {"status": "ok"}, headers
                if path == "/stats":
                    return 200, await self._in_executor(self._stats_payload), headers
                if path == "/orchestrator":
                    return 200, await self._in_executor(
                        orchestrator_payload, self.store
                    ), headers
                if path == "/insights":
                    plan = self._plan_bundle(query)
                elif path.startswith("/q/"):
                    plan = self._plan_question(path[len("/q/"):], query)
                else:
                    return 404, _error("not_found", f"unknown path {path!r}"), headers
                # parsing is deterministic in the target string, so cache
                # the plan (closures included) and skip urlsplit/parse_qs
                # on repeats; keyed on the raw target, so /v1/ and bare
                # aliases hold distinct (byte-identical) entries
                if len(self._plan_cache) >= 4096:
                    self._plan_cache.clear()
                self._plan_cache[target] = plan
            body = self._render_consistent(*plan)
            self._record_access(plan[0], plan[1][1])
            return 200, body, headers
        except ServeError as exc:
            return exc.status, _error(exc.code, str(exc)), headers
        except QueryError as exc:
            return 400, _error("bad_request", str(exc)), headers
        except ReproError as exc:
            return 500, _error("internal", str(exc)), headers

    async def _in_executor(self, fn, *args):
        return await self._loop.run_in_executor(self._executor, fn, *args)

    def _stats_payload(self) -> dict[str, Any]:
        try:
            freshness = self.store.freshness_report()
        except StorageError:
            freshness = None
        with self._access_lock:
            access = {
                "enabled": self.access_log_enabled,
                "recorded": self.accesses_recorded,
                "dropped": self.accesses_dropped,
                "buffered": len(self._access_buffer),
            }
        return {
            "requests": self.requests_served,
            "cache": self.cache.stats.snapshot(),
            "cache_enabled": self.cache_enabled,
            "cache_entries": len(self.cache),
            "pool": self.pool.stats(),
            "access": access,
            "freshness": freshness,
        }

    # ----------------------------------------------------- access feedback

    def _record_access(self, user: str, question: str) -> None:
        """Buffer one served-request record (event-loop thread only; the
        timestamp is stamped at flush time by the store clock)."""
        if not self.access_log_enabled:
            return
        self._access_buffer.append((user, question, None))
        if len(self._access_buffer) >= _ACCESS_FLUSH_BATCH:
            batch, self._access_buffer = self._access_buffer, []
            self._loop.run_in_executor(self._executor, self._flush_access, batch)

    def _flush_access(self, batch: list) -> None:
        """Write one batch to ``access_log`` — fire-and-forget: a failed
        flush drops the batch and bumps a counter, never a response."""
        try:
            with self._access_lock:
                store = self._access_store_handle()
                store.record_accesses(batch)
                # counter bumped under the same lock that serialises
                # flushes: stop()'s final flush on the loop thread would
                # otherwise race an executor flush still in flight
                self.accesses_recorded += len(batch)
        except Exception:
            with self._access_lock:
                self.accesses_dropped += len(batch)

    def _access_store_handle(self) -> CandidateStore:
        """The dedicated write store for access-log flushes (lazily
        opened; callers hold ``_access_lock``).

        File-backed stores get their own connections so flushes never
        contend with an in-process refresh writer on the serving store's
        router connection.  In-memory backends cannot be re-opened, so
        they fall back to the shared store — serialised by the lock.
        """
        if self._access_store is None:
            path = getattr(self.store.backend, "path", ":memory:")
            self._access_store = (
                self.store
                if path == ":memory:"
                else CandidateStore(self.store.schema, path)
            )
        return self._access_store

    # ------------------------------------------------------ request parsing

    @staticmethod
    def _require_user(query: dict[str, str]) -> str:
        user = query.get("user")
        if not user:
            raise ServeError(400, "missing required query parameter 'user'")
        return user

    @staticmethod
    def _float_param(query, name: str, default: float | None) -> float | None:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ServeError(400, f"parameter {name!r} must be a number") from None

    @staticmethod
    def _plans_param(query) -> int:
        """``plans=k``: the requested plan-set size.  Absent and ``1``
        are the same request — both render the classic single-plan
        answer and share one cache key, keeping the default response
        byte-identical to the pre-plan-set wire format."""
        raw = query.get("plans")
        if raw is None:
            return 1
        try:
            plans = int(raw)
        except ValueError:
            raise ServeError(
                400, "parameter 'plans' must be an integer >= 1"
            ) from None
        if plans < 1:
            raise ServeError(400, "parameter 'plans' must be an integer >= 1")
        return plans

    def _default_feature(self) -> str:
        mutable = self.store.schema.mutable_indices()
        if mutable.size == 0:
            raise ServeError(
                400,
                "the schema has no mutable features; pass feature= explicitly",
            )
        return self.store.schema.names[int(mutable[0])]

    # ---------------------------------------------------------- rendering

    def _plan_bundle(self, query: dict[str, str]):
        """Parse an ``/insights`` request into ``(user, cache key,
        render, want_freshness)`` without touching the database (runs on
        the event-loop thread)."""
        user = self._require_user(query)
        alpha = self._float_param(query, "alpha", 0.8)
        budget = self._float_param(query, "budget", None)
        feature = query.get("feature") or self._default_feature()
        plans = self._plans_param(query)
        want_freshness = query.get("freshness") not in (None, "", "0", "false")
        key = (user, "bundle", (alpha, feature, budget, plans))
        return user, key, lambda view: self._render_bundle(
            view, user, alpha, feature, budget, plans
        ), want_freshness

    def _plan_question(self, qid: str, query: dict[str, str]):
        """Parse a ``/q/<qid>`` request into ``(user, cache key, render,
        want_freshness)`` — ``meta.freshness`` is bundle-only, so the
        flag is always ``False`` here."""
        if qid not in QUESTIONS:
            raise ServeError(
                404, f"unknown question {qid!r}; available: {sorted(QUESTIONS)}"
            )
        user = self._require_user(query)
        params: dict[str, Any] = {}
        if qid == "q3":
            params["feature"] = query.get("feature") or self._default_feature()
        elif qid == "q6":
            params["alpha"] = self._float_param(query, "alpha", 0.8)
        elif qid == "q7":
            params["budget"] = self._float_param(query, "budget", 1.0)
        plans = self._plans_param(query)
        if plans != 1:
            params["plans"] = plans
        key = (user, qid, tuple(sorted(params.items())))
        return user, key, lambda view: self._render_question(
            view, user, qid, params
        ), False

    def _render_bundle(
        self,
        view,
        user: str,
        alpha: float,
        feature: str,
        budget: float | None,
        plans: int = 1,
    ) -> dict[str, Any]:
        engine = InsightEngine(view, user, self.time_values)
        insights = {
            "q1": engine.ask("q1", plans=plans),
            "q2": engine.ask("q2", plans=plans),
            "q3": engine.ask("q3", feature=feature, plans=plans),
            "q4": engine.ask("q4", plans=plans),
            "q5": engine.ask("q5", plans=plans),
            "q6": engine.ask("q6", alpha=alpha, plans=plans),
        }
        if budget is not None:
            insights["q7"] = engine.ask("q7", budget=budget, plans=plans)
        return {"kind": "bundle", "insights": insights}

    def _render_question(
        self, view, user: str, qid: str, params: dict[str, Any]
    ) -> dict[str, Any]:
        engine = InsightEngine(view, user, self.time_values)
        return {"kind": "question", "insight": engine.ask(qid, **params)}

    def _render_consistent(
        self, user: str, key: tuple, render, want_freshness: bool = False
    ) -> str:
        """Serve ``key`` from cache or render it — under a consistent
        fingerprint snapshot (see module docstring), on the calling
        (event-loop) thread.

        Freshness-annotated responses bypass the cache in both
        directions: ``meta.freshness`` is wall-clock-dependent, so a
        cached copy would go stale immediately and poison the
        byte-identical plain responses.
        """
        use_cache = self.cache_enabled and not want_freshness
        with self.pool.view(user) as view:
            for _ in range(_MAX_SNAPSHOT_RETRIES):
                ledger = view.cell_fingerprints(user)
                if not ledger:
                    raise ServeError(404, f"unknown user {user!r}")
                # the ledger iterates in time order, so its items are
                # already the fingerprint vector
                fps = tuple(ledger.items())
                if use_cache:
                    hit = self.cache.get(key, fps)
                    if hit is not None:
                        return hit
                rendered = render(view)
                if view.cell_fingerprints(user) != ledger:
                    continue  # a refresh landed mid-render: re-read
                freshness = (
                    bundle_freshness_seconds(self.store, user, view.read)
                    if want_freshness
                    else None
                )
                body = self._serialize(user, ledger, rendered, freshness)
                if use_cache:
                    self.cache.put(key, fps, body)
                return body
        raise ServeError(503, "store is being rewritten faster than it can be read")

    @staticmethod
    def _serialize(
        user: str, ledger: dict[int, str], rendered: dict,
        freshness: float | None = None,
    ) -> str:
        if rendered["kind"] == "bundle":
            return dumps(
                bundle_payload(user, rendered["insights"], ledger,
                               freshness=freshness)
            )
        payload = insight_payload(rendered["insight"])
        payload["user"] = str(user)
        payload["ledger"] = {str(t): fp for t, fp in sorted(ledger.items())}
        return dumps(payload)
