"""Client library: routing with a location cache (§3.3).

"A new client first contacts the Zookeeper to retrieve the master node
information ... and finally retrieve data from the tablet server that
maintains the records of its interest.  The information of both master
node and tablet servers are cached" — so after warm-up the master is off
the data path.  RPC costs are charged to the client's machine; the
server-side work is charged to the server's machine by the server itself.
"""

from __future__ import annotations

from operator import methodcaller

from repro.core.master import Master
from repro.core.schema import decode_group_value, encode_group_value
from repro.core.tablet import Tablet, TabletRouter
from repro.errors import (
    FollowerLaggingError,
    ServerDownError,
    ServerOverloadedError,
    TabletMigratingError,
    TabletNotFound,
    TabletRecoveringError,
)
from repro.obs.trace import root_span, span
from repro.sim.deadline import Deadline, deadline_scope
from repro.sim.health import GrayPolicy, HealthMonitor
from repro.sim.machine import Machine
from repro.sim.metrics import (
    BREAKER_TRIPS,
    CLIENT_BREAKER_WAITS,
    CLIENT_RETRIES,
    DEADLINES_EXCEEDED,
    SPAN_CLIENT_BREAKER_WAIT,
    SPAN_CLIENT_RETRY,
    SPAN_RPC_SERVER,
)

_REQUEST_OVERHEAD = 64  # approximate request framing bytes

# What a follower attempt returns when the caller must ask the owner.
_TO_OWNER = object()


class Client:
    """A LogBase client running on (or near) a cluster machine.

    Args:
        master: the active master (location lookups).
        machine: the machine this client charges RPC costs to; every
            operation opens a root span on it, which records when the
            machine is attached to a tracer.
        retry_limit: times an operation that hit a dead or overloaded
            server is retried after refreshing locations, with
            sim-clock-charged backoff.  0 (the seed behaviour) raises
            immediately.
        retry_backoff: simulated seconds before the first retry; doubles
            on each further attempt.
        retry_backoff_max: cap on any single backoff wait (the doubling
            stops growing here).
        op_deadline: per-operation time budget in simulated seconds,
            propagated to the server and DFS read paths; None (the
            default) disables deadlines entirely.
        gray_policy: gray-resilience policy; when it enables breakers the
            client keeps a per-server latency circuit breaker and waits
            out an open breaker's cooldown before probing the server.
        read_replicas: route eligible reads across the tablet's follower
            replicas (deterministic rotation that includes the owner),
            falling back to the owner when a follower is lagging or down.
            The rotation composes with the breakers above: a limping
            follower's reads still pay its breaker cooldown, biasing the
            client away from it.
        replica_max_staleness: per-request staleness bound forwarded to
            followers; None uses the server-side configured default.
    """

    def __init__(
        self,
        master: Master,
        machine: Machine,
        retry_limit: int = 0,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 30.0,
        op_deadline: float | None = None,
        gray_policy: GrayPolicy | None = None,
        read_replicas: bool = False,
        replica_max_staleness: float | None = None,
    ) -> None:
        self._master = master
        self._machine = machine
        self._retry_limit = retry_limit
        self._retry_backoff = retry_backoff
        self._retry_backoff_max = retry_backoff_max
        self._op_deadline = op_deadline
        # Per-server breakers, when the gray policy enables them.
        self._health: HealthMonitor | None = (
            HealthMonitor(gray_policy)
            if gray_policy is not None and gray_policy.breaker_enabled
            else None
        )
        # table -> router to (server name, tablet), cached after first lookup
        self._locations: dict[str, TabletRouter] = {}
        self._read_replicas = read_replicas
        self._replica_max_staleness = replica_max_staleness
        # table -> {tablet id: [follower server names]}, cached like
        # ``_locations`` and invalidated alongside it on ownership change.
        self._follower_routes: dict[str, dict[str, list[str]]] = {}
        # Deterministic read-rotation counter (no RNG: replays are stable).
        self._replica_seq = 0
        # The highest commit timestamp acked to or read by this client; a
        # replica not drained past it redirects (read-your-writes).
        self._floor = 0
        self.last_op_seconds = 0.0

    # -- routing ------------------------------------------------------------------

    def _locate(self, table: str, key: bytes) -> tuple[str, Tablet]:
        router = self._locations.get(table)
        if router is None:
            # One metadata RPC to the master, then cached.
            self._machine.clock.advance(
                self._machine.network.rpc_cost(_REQUEST_OVERHEAD, 1024)
            )
            router = self._locations[table] = TabletRouter(
                (t, (name, t)) for name, t in self._master.locations(table)
            )
        found = router.find(key)
        if found is None:
            raise TabletNotFound(f"{table}:{key!r}")
        return found

    def invalidate_cache(self, table: str | None = None) -> None:
        """Drop cached locations (stale after failover)."""
        if table is None:
            self._locations.clear()
        else:
            self._locations.pop(table, None)

    def invalidate_follower_routes(self, table: str | None = None) -> None:
        """Drop cached follower routes.

        Called alongside owner-route invalidation on
        :class:`TabletMigratingError`: an ownership change tears the
        tablet's followers down under a bumped ownership epoch, so a cached
        route would keep sending reads to a torn-down (or re-pointing)
        follower until every read redirected — re-resolving from the
        master picks up the re-placed followers instead."""
        if table is None:
            self._follower_routes.clear()
        else:
            self._follower_routes.pop(table, None)

    def _follower_route(self, table: str, tablet_id: str) -> list[str]:
        routes = self._follower_routes.get(table)
        if routes is None:
            # One metadata RPC to the master, then cached (same contract
            # as the owner-location cache).
            self._machine.clock.advance(
                self._machine.network.rpc_cost(_REQUEST_OVERHEAD, 1024)
            )
            routes = self._master.follower_locations(table)
            self._follower_routes[table] = routes
        return routes.get(tablet_id, [])

    def _pick_follower(self, table: str, tablet: Tablet, owner_name: str) -> str | None:
        """The follower a replica-routed read or scan of ``tablet`` should
        try, or None for the owner.

        Deterministic rotation over ``followers + [owner]`` — including
        the owner keeps it serving its fair share instead of idling while
        followers saturate."""
        seq = self._replica_seq
        self._replica_seq += 1
        followers = self._follower_route(table, str(tablet.tablet_id))
        if not followers:
            return None
        rotation = followers + [owner_name]
        name = rotation[seq % len(rotation)]
        return None if name == owner_name else name

    def _follower_attempt(
        self,
        table: str,
        tablet: Tablet,
        owner_name: str,
        request_bytes: int,
        response_bytes: int,
        op,
    ):
        """One call of ``op(server)`` on the rotation's follower
        for ``tablet``, or ``_TO_OWNER`` when the caller must ask the owner:
        the rotation picked it, or the follower is lagging, overloaded or
        gone.

        A lagging follower stays in rotation (lag is transient — the next
        heartbeat advances its tail); a dead one drops out when the
        follower routes are refreshed."""
        follower_name = self._pick_follower(table, tablet, owner_name)
        if follower_name is None:
            return _TO_OWNER
        try:
            server = self._master.server(follower_name)
        except KeyError:
            self.invalidate_follower_routes(table)
            return _TO_OWNER
        try:
            return self._call(
                server, request_bytes, response_bytes, op,
                table=table, deadline=self._new_deadline(),
            )
        except (FollowerLaggingError, ServerOverloadedError):
            return _TO_OWNER
        except (ServerDownError, TabletNotFound, TabletMigratingError):
            # _call already dropped the owner-location cache on
            # ServerDownError; the follower routes are just as suspect.
            self.invalidate_follower_routes(table)
            return _TO_OWNER

    def _replica_read(
        self, table: str, key: bytes, group: str, *, as_of: int | None
    ) -> tuple[int, bytes] | None:
        """Bounded-staleness read: try the rotation's follower once, fall
        back to the owner on lag or failure."""
        request = _REQUEST_OVERHEAD + len(key)
        owner_name, tablet = self._locate(table, key)
        result = self._follower_attempt(
            table, tablet, owner_name, request, 1024,
            methodcaller(
                "follower_read", table, key, group, as_of=as_of,
                max_staleness=self._replica_max_staleness, floor=self._floor,
            ),
        )
        if result is not _TO_OWNER:
            return result
        return self._with_retries(
            table, self._routed_call, key, request, 1024,
            methodcaller("read", table, key, group, as_of=as_of),
        )

    def _server_for(self, table: str, key: bytes):
        name, _ = self._locate(table, key)
        try:
            return self._master.server(name)
        except KeyError:
            self.invalidate_cache(table)
            name, _ = self._locate(table, key)
            return self._master.server(name)

    def _call(
        self,
        server,
        request_bytes: int,
        response_bytes: int,
        op,
        *,
        table: str | None = None,
        deadline: Deadline | None = None,
    ):
        """Run ``op(server)``, charging RPC and measuring the server-side
        latency of this operation.

        With a client-side breaker open for ``server``, the client waits
        out the remaining cooldown on its own clock before the half-open
        probe — biasing itself away from a server it has measured to be
        limping.  A live deadline is rebased onto the server's clock for
        the duration of the call (and armed as the ambient deadline so
        log and DFS reads can enforce it), then rebased back.  The
        server's admission controller — when configured — may shed the
        request before any work is done.  ``last_op_seconds`` is recorded
        whether the call succeeds or fails, so health tracking sees
        failure latency too.
        """
        health = self._health
        breaker = health.breaker(server.name) if health is not None else None
        if breaker is not None and not breaker.allow(self._machine.clock.now):
            wait = breaker.remaining_cooldown(self._machine.clock.now)
            if wait > 0:
                self._machine.counters.add(CLIENT_BREAKER_WAITS)
                with span(SPAN_CLIENT_BREAKER_WAIT, self._machine, server=server.name):
                    self._machine.clock.advance(wait)
            breaker.allow(self._machine.clock.now)  # admit the probe
        start = server.machine.clock.now
        rpc = self._machine.network.rpc_cost(
            request_bytes,
            response_bytes,
            local=server.machine is self._machine,
            a=self._machine.name,
            b=server.machine.name,
        )
        self._machine.clock.advance(rpc)
        if deadline is not None:
            deadline.check("client call")
            deadline.rebase(server.machine.clock)
        admission = getattr(server, "admission", None)
        try:
            if admission is not None:
                admission.admit(
                    self._machine.clock.now,
                    server.machine.clock.now,
                    counters=server.machine.counters,
                )
            # The one cross-clock hop the client's clock never pays for:
            # anchored on the server machine, this child span is what the
            # trace tree adds back into end-to-end latency.
            with deadline_scope(deadline), span(
                SPAN_RPC_SERVER, server.machine, server=server.name
            ):
                result = op(server)
            if admission is not None:
                admission.observe(server.machine.clock.now - start)
            return result
        except ServerDownError:
            self.invalidate_cache(table)
            raise
        finally:
            if deadline is not None:
                deadline.rebase(self._machine.clock)
            self.last_op_seconds = (server.machine.clock.now - start) + rpc
            if breaker is not None and breaker.observe(
                self.last_op_seconds, self._machine.clock.now
            ):
                self._machine.counters.add(BREAKER_TRIPS)

    def _new_deadline(self) -> Deadline | None:
        """A fresh ``op_deadline`` budget on the client's clock (None when
        deadlines are off)."""
        if self._op_deadline is None:
            return None
        return Deadline.after(self._machine.clock, self._op_deadline)

    def _backoff(self, attempts: int) -> float:
        """Exponential backoff for the Nth retry, capped at the
        configured maximum so repeated failures never produce an
        unbounded wait."""
        return min(
            self._retry_backoff * (2 ** (attempts - 1)), self._retry_backoff_max
        )

    def _routed_call(
        self, deadline: Deadline | None, table: str, key: bytes,
        request_bytes: int, response_bytes: int, op,
    ):
        """Route, call ``op(server)``, and retry once on a stale location.

        After a tablet moves (rebalance, failover, decommission) the
        cached location points at a server that no longer owns the key;
        that server answers TabletNotFound, the client refreshes its
        cache from the master and retries — "the information ... only
        need to be looked up ... when the cache is stale" (§3.3).
        Callers run it under :meth:`_with_retries`, which handles the
        retryable server errors.
        """
        server = self._server_for(table, key)
        try:
            return self._call(
                server, request_bytes, response_bytes, op, table=table, deadline=deadline
            )
        except TabletNotFound:
            self.invalidate_cache(table)
            server = self._server_for(table, key)
            return self._call(
                server, request_bytes, response_bytes, op, table=table, deadline=deadline
            )

    def _with_retries(self, table: str, attempt, *args):
        """Run ``attempt(deadline, table, *args)``, retrying retryable
        server errors up to ``retry_limit`` times with capped exponential
        backoff charged to the client's clock.  With the default limit of
        0 the seed behaviour is unchanged: the error propagates immediately.

        * ServerDownError — covers the window in which the master fails
          the dead server's tablets over to healthy adopters.
        * ServerOverloadedError — waits at least the server's
          ``retry_after`` hint; the shed was a queueing signal, not a
          failure, so the location cache is kept.
        * TabletRecoveringError — the tablet is still owned by that
          server, its redo just has not finished: keep the location cache
          and wait out part of the recovery window.
        * TabletMigratingError — the addressed server is inside a
          migration's fenced flip window, or its lease lapsed because the
          tablet moved away while it was unreachable.  Either way the
          cached location may be stale, and the ownership-epoch bump behind
          the error also tore down the tablet's followers: drop both
          caches and re-resolve from the master.

        With ``op_deadline`` configured the whole operation — retries and
        backoff included — runs under one deadline budget.
        """
        attempts = 0
        deadline = self._new_deadline()
        while True:
            if deadline is not None and deadline.expired:
                self._machine.counters.add(DEADLINES_EXCEEDED)
                deadline.check("client operation")
            try:
                return attempt(deadline, table, *args)
            except (
                ServerDownError,
                ServerOverloadedError,
                TabletRecoveringError,
                TabletMigratingError,
            ) as exc:
                if attempts >= self._retry_limit:
                    raise
                attempts += 1
                if isinstance(exc, TabletMigratingError):
                    self.invalidate_cache(table)
                    self.invalidate_follower_routes(table)
                self._machine.counters.add(CLIENT_RETRIES)
                wait = self._backoff(attempts)
                if isinstance(exc, ServerOverloadedError):
                    wait = max(exc.retry_after, wait)
                with span(SPAN_CLIENT_RETRY, self._machine, attempt=attempts):
                    self._machine.clock.advance(wait)

    # -- typed API -----------------------------------------------------------------------

    def put(self, table: str, key: bytes, row: dict[str, dict[str, bytes]]) -> int:
        """Write column values grouped by column group.

        Args:
            row: ``{group name: {column: value bytes}}``.

        Returns the version timestamp.
        """
        payload = {
            group: encode_group_value(columns) for group, columns in row.items()
        }
        size = sum(len(v) for v in payload.values()) + len(key)
        with root_span("op.put", self._machine, table=table, bytes=size):
            return self.saw(self._with_retries(
                table, self._routed_call, key, size + _REQUEST_OVERHEAD, 16,
                methodcaller("write", table, key, payload),
            ))

    def get(
        self, table: str, key: bytes, group: str, *, as_of: int | None = None
    ) -> dict[str, bytes] | None:
        """Read one column group of a record; None if absent."""
        value = self.get_raw(table, key, group, as_of=as_of)
        return None if value is None else decode_group_value(value)

    def get_row(self, table: str, key: bytes) -> dict[str, dict[str, bytes]] | None:
        """Reconstruct a whole tuple by collecting every column group
        (§3.2: reconstruction uses the primary key across groups)."""
        schema = self._master.schema(table)
        row: dict[str, dict[str, bytes]] = {}
        for group in schema.group_names:
            columns = self.get(table, key, group)
            if columns is not None:
                row[group] = columns
        return row or None

    def delete(self, table: str, key: bytes, group: str | None = None) -> None:
        """Delete a record (one group, or every group when None)."""
        schema = self._master.schema(table)
        groups = [group] if group is not None else schema.group_names
        with root_span("op.delete", self._machine, table=table):
            for group_name in groups:
                self._with_retries(
                    table, self._routed_call, key, _REQUEST_OVERHEAD + len(key), 16,
                    methodcaller("delete", table, key, group_name),
                )

    def scan(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        *,
        as_of: int | None = None,
    ) -> list[tuple[bytes, dict[str, bytes]]]:
        """Range scan [start_key, end_key) across all covering tablets.

        Sub-ranges on different servers execute in parallel in a real
        deployment; here each server charges its own clock, so the
        makespan accounting captures the parallelism.
        """
        return [
            (key, decode_group_value(value))
            for key, value in self._scan_rows(
                table, group, start_key, end_key, as_of
            )
        ]

    def _scan_rows(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        as_of: int | None,
    ) -> list[tuple[bytes, bytes]]:
        """Fetch raw (key, payload) rows for a range scan, sorted by key.

        Like :meth:`_routed_call`, retried once on a stale location: a
        server that no longer hosts all of a slice routed to it (the
        tablet moved or split since the cache was filled) answers
        TabletNotFound, and the scan is planned again from the master's
        current assignment.
        """
        with root_span("op.scan", self._machine, table=table, group=group):
            try:
                return self._scan_rows_inner(table, group, start_key, end_key, as_of)
            except TabletNotFound:
                self.invalidate_cache(table)
                return self._scan_rows_inner(table, group, start_key, end_key, as_of)

    def _scan_rows_inner(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        as_of: int | None,
    ) -> list[tuple[bytes, bytes]]:
        if table not in self._locations:
            self._locate(table, start_key)
        results: list[tuple[bytes, bytes]] = []
        for owner_name, tablet in self._locations[table]:
            if tablet.key_range.end is not None and tablet.key_range.end <= start_key:
                continue
            if end_key <= tablet.key_range.start:
                continue
            # Clip the range to the tablet: a server hosting several
            # tablets of the table would otherwise return its other
            # tablets' rows once per tablet.
            sub_start = max(start_key, tablet.key_range.start)
            sub_end = (
                end_key
                if tablet.key_range.end is None
                else min(end_key, tablet.key_range.end)
            )
            rows = _TO_OWNER
            if self._read_replicas:
                rows = self._follower_attempt(
                    table, tablet, owner_name, _REQUEST_OVERHEAD, 4096,
                    methodcaller(
                        "follower_scan", table, group, sub_start, sub_end, as_of=as_of,
                        max_staleness=self._replica_max_staleness, floor=self._floor,
                    ),
                )
            if rows is _TO_OWNER:
                rows = self._owner_scan(table, group, sub_start, sub_end, as_of)
            results.extend((key, value) for key, _, value in rows)
            self.saw(max((row[1] for row in rows), default=0))
        results.sort(key=lambda pair: pair[0])
        return results

    def _owner_scan(
        self, table: str, group: str, sub_start: bytes, sub_end: bytes, as_of: int | None
    ) -> list[tuple[bytes, int, bytes]]:
        """Scan one tablet's slice on its owner, with the same retry
        handling point operations get (a retry re-resolves the owner of
        ``sub_start``, so it follows the tablet through a migration)."""

        def attempt(deadline: Deadline | None, table: str):
            return self._call(
                self._server_for(table, sub_start), _REQUEST_OVERHEAD, 4096,
                lambda server: list(
                    server.range_scan(
                        table, group, sub_start, sub_end,
                        as_of=as_of, require_coverage=True,
                    )
                ),
                table=table,
                deadline=deadline,
            )

        return self._with_retries(table, attempt)

    # -- raw byte API (benchmarks; payloads are opaque 1 KB blobs) ---------------------------

    def put_raw(self, table: str, key: bytes, group: str, value: bytes) -> int:
        """Write one opaque group payload (no column encoding)."""
        with root_span("op.put", self._machine, table=table, bytes=len(value)):
            return self.saw(self._with_retries(
                table, self._routed_call, key,
                len(value) + len(key) + _REQUEST_OVERHEAD, 16,
                methodcaller("write", table, key, {group: value}),
            ))

    def submit_put_raw(
        self,
        table: str,
        key: bytes,
        group: str,
        value: bytes,
        *,
        arrival: float | None = None,
    ):
        """Asynchronous put through the server's group-commit coordinator.

        Charges the request leg of the RPC to this client's clock, submits
        to the serving tablet server, and returns ``(future, request_seconds,
        ack_seconds)``: the write joins the server's open commit group and
        the :class:`~repro.wal.group_commit.CommitFuture` resolves when
        that group is durable.  Unlike :meth:`put_raw`, the client does
        not stall for the replication round trip — end-to-end latency is
        ``future.completion_time + ack_seconds - arrival``, which the
        client loop's ``submit`` step accounts on the client's timeline.

        ``arrival`` is the virtual time the op is issued (defaults to
        this client's clock); the submission reaches the server one
        request leg later.  :meth:`put_raw` reaches the same coordinator
        and waits for its group instead.  Whoever waits out the future
        raises the floor to its ``token``, the commit timestamp.
        """
        server = self._server_for(table, key)
        local = server.machine is self._machine
        request_seconds = self._machine.network.transfer_cost(
            len(value) + len(key) + _REQUEST_OVERHEAD,
            local=local,
            a=self._machine.name,
            b=server.machine.name,
        )
        ack_seconds = self._machine.network.transfer_cost(
            16, local=local, a=server.machine.name, b=self._machine.name
        )
        self._machine.clock.advance(request_seconds)
        if arrival is None:
            arrival = self._machine.clock.now
        try:
            future = server.submit_write(
                table, key, {group: value}, arrival=arrival + request_seconds
            )
        except ServerDownError:
            self.invalidate_cache(table)
            raise
        return future, request_seconds, ack_seconds

    def get_raw(
        self, table: str, key: bytes, group: str, *, as_of: int | None = None
    ) -> bytes | None:
        """Read one opaque group payload."""
        with root_span("op.get", self._machine, table=table, group=group):
            if self._read_replicas:
                result = self._replica_read(table, key, group, as_of=as_of)
            else:
                result = self._with_retries(
                    table, self._routed_call, key, _REQUEST_OVERHEAD + len(key), 1024,
                    methodcaller("read", table, key, group, as_of=as_of),
                )
        if result is not None:
            self.saw(result[0])
        return None if result is None else result[1]

    def saw(self, timestamp: int) -> int:
        """Raise the floor to a commit timestamp acked or read."""
        self._floor = max(self._floor, timestamp)
        return timestamp

    def scan_raw(
        self,
        table: str,
        group: str,
        start_key: bytes,
        end_key: bytes,
        *,
        as_of: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan returning opaque group payloads (no column decoding)."""
        return self._scan_rows(table, group, start_key, end_key, as_of)
