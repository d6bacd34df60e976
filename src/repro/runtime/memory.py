"""Memory nodes, interconnect links and the data-transfer engine.

The transfer engine models each link as a FIFO pipe with latency and
bandwidth: concurrent transfers on the same link serialize (PCIe
contention), transfers on different links proceed independently.
Replicas follow MSI-style coherence: fetching a handle for reading adds a
replica, a task writing a handle invalidates every other replica at task
completion.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.obs.events import TransferEvent
from repro.runtime.data import DataHandle
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import Observability


class MemoryNode:
    """A physical memory pool (host RAM or one GPU's device memory).

    ``capacity`` (bytes) bounds the replicas the node can host; ``None``
    means unbounded (host RAM). When a fetch would overflow a bounded
    node, the transfer engine evicts least-recently-used replicas that
    are safe to drop — the mechanism behind the paper's observation that
    Dmdas's prefetching "conflicts with memory eviction" on large LU
    runs (Section VI-A).
    """

    __slots__ = ("mid", "name", "kind", "arch", "capacity")

    def __init__(
        self,
        mid: int,
        name: str,
        kind: str,
        arch: str,
        capacity: int | None = None,
    ) -> None:
        if kind not in ("ram", "gpu"):
            raise ValidationError(f"memory node kind must be 'ram' or 'gpu', got {kind!r}")
        if capacity is not None and capacity <= 0:
            raise ValidationError(f"capacity must be > 0 or None, got {capacity}")
        self.mid = mid
        self.name = name
        self.kind = kind
        # Architecture of the processing units computing from this node.
        self.arch = arch
        self.capacity = capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryNode {self.name} ({self.kind}, {self.arch})>"


class Link:
    """A directed interconnect link between two memory nodes.

    ``bandwidth`` is in bytes per microsecond (1 GB/s == 1000 B/us);
    ``latency`` in microseconds.

    Two traffic classes, mirroring StarPU's prioritized data requests:
    **demand** fetches (a worker needs the data to start a task) queue
    behind other demand fetches and behind the prefetch currently *on
    the wire*, but jump the queued prefetch backlog; **prefetch**
    traffic queues behind everything. This keeps speculative push-time
    prefetches (the dm family issues thousands) from
    head-of-line-blocking the fetch a worker is actually stalled on,
    without letting the two classes transmit simultaneously — a single
    physical wire never serves 2x its bandwidth.
    """

    __slots__ = (
        "src",
        "dst",
        "bandwidth",
        "latency",
        "busy_until",
        "demand_busy_until",
        "bytes_moved",
        "n_transfers",
        "degradations",
        "_prefetch_spans",
    )

    def __init__(self, src: int, dst: int, bandwidth: float, latency: float) -> None:
        if bandwidth <= 0:
            raise ValidationError(f"link bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise ValidationError(f"link latency must be >= 0, got {latency}")
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.busy_until = 0.0
        self.demand_busy_until = 0.0
        self.bytes_moved = 0
        self.n_transfers = 0
        # Fault-injected ``(start, end, factor)`` windows multiplying the
        # wire time of transfers that start inside them (installed per
        # run by the engine from a FaultModel; cleared on reset).
        self.degradations: tuple[tuple[float, float, float], ...] = ()
        # Reserved prefetch wire intervals ``(start, end)`` in start
        # order, pruned as simulation time passes; a demand reservation
        # consults them to wait out the prefetch already transmitting.
        self._prefetch_spans: deque[tuple[float, float]] = deque()

    def cost_factor(self, now: float) -> float:
        """Degradation multiplier in effect at time ``now``."""
        for start, end, factor in self.degradations:
            if start <= now < end:
                return factor
        return 1.0

    def duration(self, nbytes: int, now: float | None = None) -> float:
        """Wire time for ``nbytes`` ignoring queueing.

        With ``now`` given, any degradation window covering the start of
        the transfer multiplies the wire time.
        """
        base = self.latency + nbytes / self.bandwidth
        if now is not None and self.degradations:
            base *= self.cost_factor(now)
        return base

    def prune_prefetch_spans(self, now: float) -> None:
        """Forget prefetch wire intervals that finished before ``now``.

        Called by the transfer engine with the *global* simulation time
        (never a projected future time), so a span is only dropped once
        no later query can fall inside it.
        """
        spans = self._prefetch_spans
        while spans and spans[0][1] <= now:
            spans.popleft()

    def _demand_start(self, now: float) -> float:
        """Earliest start of a demand transfer arriving at ``now``.

        Waits behind earlier demand traffic, then behind the prefetch
        currently occupying the wire (a transfer in flight cannot be
        preempted) — but jumps prefetches that are merely queued.
        """
        start = max(now, self.demand_busy_until)
        for span_start, span_end in self._prefetch_spans:
            if span_start > now:
                break  # queued, not yet transmitting: the demand jumps it
            if now < span_end:
                # On the wire at the demand's arrival: wait it out.
                start = max(start, span_end)
                break
        return start

    def reserve(self, now: float, nbytes: int, prefetch: bool) -> float:
        """Queue one transfer; returns its completion time."""
        if prefetch:
            start = max(now, self.busy_until)
            end = start + self.duration(nbytes, start)
            self.busy_until = end
            self._prefetch_spans.append((start, end))
        else:
            start = self._demand_start(now)
            end = start + self.duration(nbytes, start)
            self.demand_busy_until = end
            self.busy_until = max(self.busy_until, end)
        self.bytes_moved += nbytes
        self.n_transfers += 1
        return end

    def queue_estimate(self, now: float, nbytes: int, prefetch: bool) -> float:
        """Completion estimate without reserving."""
        start = max(now, self.busy_until) if prefetch else self._demand_start(now)
        return start + self.duration(nbytes, start)

    def reset_runtime_state(self) -> None:
        """Clear the FIFO clocks and counters for a fresh simulation."""
        self.busy_until = 0.0
        self.demand_busy_until = 0.0
        self.bytes_moved = 0
        self.n_transfers = 0
        self.degradations = ()
        self._prefetch_spans.clear()


class TransferEngine:
    """Schedules data movements between memory nodes.

    The engine is deliberately simple — single-hop routing with a
    RAM-relay fallback for GPU-to-GPU when no peer link exists — but it
    captures what the paper's schedulers are sensitive to: transfer cost
    proportional to data size, per-link contention, and replica reuse
    (a handle already valid on the node costs nothing).
    """

    def __init__(self, nodes: list[MemoryNode], links: list[Link]) -> None:
        self.nodes = nodes
        self._links: dict[tuple[int, int], Link] = {}
        for link in links:
            key = (link.src, link.dst)
            if key in self._links:
                raise ValidationError(f"duplicate link {key}")
            self._links[key] = link
        # Capacity bookkeeping: per bounded node, resident handles with
        # last-use times (LRU eviction order) and total resident bytes.
        self._resident: dict[int, dict[int, DataHandle]] = {
            n.mid: {} for n in nodes if n.capacity is not None
        }
        self._last_use: dict[int, dict[int, float]] = {
            n.mid: {} for n in nodes if n.capacity is not None
        }
        self._usage: dict[int, int] = {n.mid: 0 for n in nodes if n.capacity is not None}
        self._capacity: dict[int, int] = {
            n.mid: n.capacity for n in nodes if n.capacity is not None  # type: ignore[misc]
        }
        self.n_evictions = 0
        self.n_overcommits = 0
        #: Observability channel (bound per run by the engine; None = off).
        self.observer: "Observability | None" = None

    # -- introspection -----------------------------------------------------

    def link(self, src: int, dst: int) -> Link | None:
        """The direct link ``src -> dst`` if one exists."""
        return self._links.get((src, dst))

    def links(self) -> list[Link]:
        """All links (for statistics)."""
        return list(self._links.values())

    def total_bytes_moved(self) -> int:
        """Bytes moved across all links since the last reset."""
        return sum(link.bytes_moved for link in self._links.values())

    def reset_runtime_state(self) -> None:
        """Reset all link clocks, counters and residency tracking."""
        for link in self._links.values():
            link.reset_runtime_state()
        for mid in self._resident:
            self._resident[mid].clear()
            self._last_use[mid].clear()
            self._usage[mid] = 0
        self.n_evictions = 0
        self.n_overcommits = 0

    # -- capacity / LRU residency ------------------------------------------

    def usage(self, node: int) -> int:
        """Resident bytes on a bounded node (0 for unbounded nodes)."""
        return self._usage.get(node, 0)

    def touch(self, handle: DataHandle, node: int, now: float) -> None:
        """Record a use of ``handle`` on ``node`` (LRU recency)."""
        if node in self._last_use and handle.hid in self._resident[node]:
            self._last_use[node][handle.hid] = now

    @staticmethod
    def pin(handle: DataHandle, node: int) -> None:
        """Protect a replica from eviction while a task uses it."""
        handle._pins[node] = handle._pins.get(node, 0) + 1

    @staticmethod
    def unpin(handle: DataHandle, node: int) -> None:
        """Release a pin taken with :meth:`pin`."""
        count = handle._pins.get(node, 0)
        if count <= 1:
            handle._pins.pop(node, None)
        else:
            handle._pins[node] = count - 1

    def _account_insert(self, handle: DataHandle, node: int, now: float) -> None:
        if node not in self._resident:
            return
        if handle.hid not in self._resident[node]:
            self._make_room(node, handle.size, now)
            self._resident[node][handle.hid] = handle
            self._usage[node] += handle.size
        self._last_use[node][handle.hid] = now

    def _account_drop(self, handle: DataHandle, node: int) -> None:
        if node in self._resident and handle.hid in self._resident[node]:
            del self._resident[node][handle.hid]
            self._last_use[node].pop(handle.hid, None)
            self._usage[node] -= handle.size

    def _make_room(self, node: int, needed: int, now: float) -> None:
        """Evict LRU replicas until ``needed`` bytes fit.

        Only replicas with another valid copy and no transfer in flight
        are evictable (dropping them loses nothing). If eviction cannot
        free enough, the node overcommits — counted, never deadlocked.
        """
        capacity = self._capacity[node]
        if self._usage[node] + needed <= capacity:
            return
        victims = sorted(self._last_use[node].items(), key=lambda kv: kv[1])
        for hid, _ in victims:
            if self._usage[node] + needed <= capacity:
                return
            handle = self._resident[node][hid]
            if handle._pins.get(node, 0) > 0:
                continue  # a running task is using this replica
            in_flight = handle._in_flight.get(node)
            if in_flight is not None and in_flight > now:
                continue
            if len(handle.valid_nodes) <= 1:
                continue  # sole copy: dropping would lose data
            handle.valid_nodes.discard(node)
            handle._in_flight.pop(node, None)
            self._account_drop(handle, node)
            self.n_evictions += 1
        if self._usage[node] + needed > capacity:
            self.n_overcommits += 1

    # -- cost estimation (no side effects) ----------------------------------

    def estimate_fetch(
        self, handle: DataHandle, dst: int, now: float = 0.0, prefetch: bool = False
    ) -> float:
        """Estimated extra time to make ``handle`` valid on ``dst``.

        Pure estimate used by schedulers (e.g. Dmda's data-aware term):
        accounts for queueing on the cheapest route but does not reserve
        link time.
        """
        if handle.size == 0:
            return 0.0
        in_flight = handle._in_flight.get(dst)
        if handle.is_valid_on(dst):
            if in_flight is not None:
                return max(0.0, in_flight - now)
            return 0.0
        if in_flight is not None:
            return max(0.0, in_flight - now)
        best = None
        for src in handle.valid_nodes:
            route = self._route_links(src, dst)
            if route is None:
                continue
            ready = now
            for link in route:
                ready = link.queue_estimate(ready, handle.size, prefetch)
            if best is None or ready < best:
                best = ready
        if best is None:
            raise ValidationError(
                f"no route to bring {handle.label} to node {dst} "
                f"from {sorted(handle.valid_nodes)}"
            )
        return max(0.0, best - now)

    def _relay_node(self, src: int, dst: int) -> int | None:
        """A RAM node connected to both endpoints, if any."""
        for node in self.nodes:
            if node.kind != "ram":
                continue
            if (src, node.mid) in self._links and (node.mid, dst) in self._links:
                return node.mid
        return None

    # -- committed transfers -------------------------------------------------

    def fetch(
        self, handle: DataHandle, dst: int, now: float, prefetch: bool = False
    ) -> float:
        """Make ``handle`` valid on ``dst``; returns arrival time.

        Reserves link time in the requested traffic class. If a transfer
        of the same handle to the same node is already in flight, its
        completion time is returned and no new traffic is generated
        (replica sharing between readers). The replica set is updated
        immediately — the simulator's event ordering guarantees the
        consumer waits until the returned time.
        """
        if handle.size == 0:
            handle.valid_nodes.add(dst)
            return now
        if dst in handle.valid_nodes:
            if not handle._in_flight:
                # Settled resident replica — the overwhelmingly common
                # case on reread-heavy streams: recency touch, no route
                # search, no traffic.
                last_use = self._last_use.get(dst)
                if last_use is not None and handle.hid in self._resident[dst]:
                    last_use[handle.hid] = now
                return now
            self.touch(handle, dst, now)
            # The replica may still be in flight (registered eagerly by an
            # earlier fetch); a second consumer shares that transfer.
            in_flight = handle._in_flight.get(dst)
            if in_flight is not None and in_flight > now:
                if prefetch:
                    return in_flight
                # Demand request against a queued prefetch: upgrade its
                # priority (StarPU promotes the pending data request) if
                # the demand class would deliver sooner.
                upgraded = self._demand_upgrade(handle, dst, now, in_flight)
                if upgraded is not None:
                    handle._in_flight[dst] = upgraded
                    return upgraded
                return in_flight
            return now

        best_arrival: float | None = None
        best_route: tuple[Link, ...] | None = None
        for src in handle.valid_nodes:
            route = self._route_links(src, dst)
            if route is None:
                continue
            arrival = now
            for link in route:
                arrival = link.queue_estimate(arrival, handle.size, prefetch)
            if best_arrival is None or arrival < best_arrival:
                best_arrival = arrival
                best_route = route
        if best_route is None or best_arrival is None:
            raise ValidationError(
                f"no route to bring {handle.label} to node {dst} "
                f"from {sorted(handle.valid_nodes)}"
            )

        clock = now
        obs = self.observer
        for link in best_route:
            link.prune_prefetch_spans(now)
            if prefetch:
                begin = max(clock, link.busy_until)
            else:
                begin = link._demand_start(clock)
            clock = link.reserve(clock, handle.size, prefetch)
            if obs is not None:
                obs.emit(
                    TransferEvent(
                        now, handle.hid, link.src, link.dst, handle.size,
                        begin, clock, prefetch,
                    )
                )
        handle.valid_nodes.add(dst)
        handle._in_flight[dst] = clock
        self._account_insert(handle, dst, now)
        return clock

    def wire_estimate(self, handle: DataHandle, dst: int) -> float:
        """Queue-free wire time of bringing ``handle`` to ``dst`` (0 when
        already valid and arrived); used to combine per-handle estimates
        without double-counting the shared queue wait."""
        if handle.size == 0 or (
            handle.is_valid_on(dst) and handle._in_flight.get(dst) is None
        ):
            return 0.0
        best: float | None = None
        for src in handle.valid_nodes:
            route = self._route_links(src, dst)
            if route is None or not route:
                continue
            wire = sum(link.duration(handle.size) for link in route)
            if best is None or wire < best:
                best = wire
        return best if best is not None else 0.0

    def _demand_upgrade(
        self, handle: DataHandle, dst: int, now: float, deadline: float
    ) -> float | None:
        """Re-issue an in-flight prefetch on the demand class.

        Returns the new (strictly earlier than ``deadline``) arrival time,
        reserving demand link capacity — or ``None`` when no source could
        beat the pending transfer (no side effects then).
        """
        best_arrival: float | None = None
        best_route: tuple[Link, ...] | None = None
        for src in handle.valid_nodes:
            if src == dst:
                continue
            # Sources that are themselves still in flight cannot serve.
            src_flight = handle._in_flight.get(src)
            if src_flight is not None and src_flight > now:
                continue
            route = self._route_links(src, dst)
            if not route:
                continue
            arrival = now
            for link in route:
                arrival = link.queue_estimate(arrival, handle.size, prefetch=False)
            if best_arrival is None or arrival < best_arrival:
                best_arrival = arrival
                best_route = route
        if best_route is None or best_arrival is None or best_arrival >= deadline:
            return None
        clock = now
        obs = self.observer
        for link in best_route:
            link.prune_prefetch_spans(now)
            begin = link._demand_start(clock)
            clock = link.reserve(clock, handle.size, prefetch=False)
            if obs is not None:
                obs.emit(
                    TransferEvent(
                        now, handle.hid, link.src, link.dst, handle.size,
                        begin, clock, False,
                    )
                )
        return clock

    def _route_links(self, src: int, dst: int) -> tuple[Link, ...] | None:
        if src == dst:
            return ()
        direct = self._links.get((src, dst))
        if direct is not None:
            return (direct,)
        relay = self._relay_node(src, dst)
        if relay is None:
            return None
        return (self._links[(src, relay)], self._links[(relay, dst)])

    # -- coherence ------------------------------------------------------------

    def drop_replica(self, handle: DataHandle, node: int) -> None:
        """Destroy the replica of ``handle`` on ``node`` unconditionally.

        Used when a memory node is lost to a fail-stop worker failure:
        pins and in-flight transfers toward the node are void because no
        consumer on it survives. The caller is responsible for checking
        that another valid copy exists (or raising ``DataLossError``).
        """
        handle.valid_nodes.discard(node)
        handle._in_flight.pop(node, None)
        handle._pins.pop(node, None)
        self._account_drop(handle, node)

    def invalidate_others(self, handle: DataHandle, keep: int, now: float = 0.0) -> None:
        """After a write on ``keep``, drop every other replica."""
        valid = handle.valid_nodes
        if len(valid) == 1 and keep in valid and not handle._in_flight:
            # Sole settled replica already on the writer's node: nothing
            # to drop, just refresh residency/recency accounting.
            self._account_insert(handle, keep, now)
            return
        for node in valid:
            if node != keep:
                self._account_drop(handle, node)
        handle.valid_nodes = {keep}
        handle._in_flight = {
            node: t for node, t in handle._in_flight.items() if node == keep
        }
        self._account_insert(handle, keep, now)
