"""freshsink transports: stream telemetry to statsd or OTLP endpoints.

The exporters in :mod:`repro.obs.export` are after-the-fact files; a
*sink* ships the same telemetry to a live collector while the run is
still going.  Two transports are built in:

* :class:`StatsdSink` — the statsd UDP line protocol
  (``repro.sim.syncs:42|c``), one datagram per ~1400 bytes of lines;
* :class:`OtlpHttpSink` — OTLP/HTTP JSON metrics
  (``resourceMetrics`` envelopes POSTed to ``/v1/metrics``).

Both share the :class:`Sink` base machinery and its **boundary-code
discipline** — a sink must never raise or block into the solver/sim
paths that feed it:

* the in-memory buffer is bounded: past ``buffer_limit`` pending
  items, new offers are *dropped* and counted into the
  ``obs.sink.dropped`` counter (graceful degradation, exactly like
  the event tape's ``obs.dropped_events``);
* flushes are driven by the caller's own emit points (no threads, no
  ``time.sleep`` — FL010): each offer checks whether
  ``flush_interval_s`` has elapsed on the monotonic clock and flushes
  inline when due;
* a transport failure (any :class:`OSError` — sockets and
  ``urllib`` errors alike) keeps the batch buffered and arms a
  *decorrelated-jitter* deadline: flushes before the deadline return
  immediately, so a dead endpoint degrades to cheap no-ops instead
  of a retry storm.  Jitter comes from an injected seeded
  ``random.Random`` so backoff sequences replay deterministically.

Wall-clock use (the OTLP timestamp, the UDP socket) is legal here:
sinks are boundary code, outside the clock-disciplined solver/sim
globs freshlint FL009 polices.

Attach a sink to the active registry and it sees every tape event::

    sink = parse_sink_url("statsd://127.0.0.1:8125")
    obs.get_registry().sinks.append(sink)
    ...run...
    sink.emit_registry(obs.get_registry())   # final scalar snapshot
    sink.close()
"""

from __future__ import annotations

import json
import random
import time
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.obs.registry import MetricsRegistry, counter_add

if TYPE_CHECKING:
    import socket

__all__ = [
    "OtlpHttpSink",
    "Sink",
    "StatsdSink",
    "parse_sink_url",
]

#: Default cap on buffered-but-unsent items per sink.
DEFAULT_BUFFER_LIMIT = 2048

#: Default seconds between caller-driven flushes.
DEFAULT_FLUSH_INTERVAL_S = 1.0

_METRIC_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")


def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name for the wire."""
    cleaned = "".join(ch if ch in _METRIC_CHARS else "_"
                      for ch in name)
    return f"repro.{cleaned}"


class Sink:
    """Shared buffering/flush/retry machinery for streaming sinks.

    Subclasses implement :meth:`_render_event`,
    :meth:`_render_counter`, :meth:`_render_gauge` (producing
    buffered wire items) and :meth:`_send` (shipping one batch; any
    :class:`OSError` marks a transport failure).

    Args:
        buffer_limit: Max pending wire items; overflow drops and
            counts into ``obs.sink.dropped``.
        flush_interval_s: Seconds of monotonic clock between
            caller-driven flushes.
        backoff_base_s: First retry delay after a transport failure,
            in seconds.
        backoff_cap_s: Upper bound on any retry delay, in seconds.
        jitter_rng: Seeded generator for the decorrelated-jitter
            retry delays (fresh ``random.Random(0)`` by default, so
            backoff sequences are reproducible).
        clock: Monotonic clock used for flush/retry scheduling
            (injectable for tests), in seconds.
    """

    def __init__(self, *, buffer_limit: int = DEFAULT_BUFFER_LIMIT,
                 flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 30.0,
                 jitter_rng: random.Random | None = None,
                 clock=time.perf_counter) -> None:
        self._buffer: List[Any] = []
        self._buffer_limit = int(buffer_limit)
        self._flush_interval = float(flush_interval_s)
        self._backoff_base = float(backoff_base_s)
        self._backoff_cap = float(backoff_cap_s)
        self._jitter = (jitter_rng if jitter_rng is not None
                        else random.Random(0))
        self._clock = clock
        self._last_flush = float(clock())
        self._retry_at = 0.0
        self._delay = 0.0
        self._last_counters: Dict[str, float] = {}
        self.dropped = 0
        self.sent = 0
        self.send_errors = 0
        self.closed = False

    # -- what callers and the registry hook feed --------------------

    def offer_event(self, record: Dict[str, Any]) -> None:
        """Buffer one tape event (called per event by the registry).

        Never raises and never blocks past a bounded transport
        timeout: overflow drops, transport failures arm the retry
        deadline.
        """
        if self.closed:
            return
        item = self._render_event(record)
        if item is not None:
            self._push(item)
        self._maybe_flush()

    def emit_registry(self, registry: MetricsRegistry) -> None:
        """Buffer a scalar snapshot of a registry's counters/gauges.

        Counters ship as *deltas* since this sink's previous
        snapshot (statsd counter semantics; the OTLP sink
        re-accumulates them into its cumulative sums), gauges as
        their current values.
        """
        if self.closed:
            return
        for name in sorted(registry.counters):
            value = registry.counters[name]
            delta = value - self._last_counters.get(name, 0.0)
            if delta > 0.0:
                self._push(self._render_counter(name, delta))
                self._last_counters[name] = value
        for name in sorted(registry.gauges):
            self._push(self._render_gauge(name,
                                          registry.gauges[name]))
        self._maybe_flush()

    def flush(self, *, ignore_deadline: bool = False) -> int:
        """Try to ship the buffered batch now.

        Args:
            ignore_deadline: Ship even while a retry deadline is
                armed (used by :meth:`close` for the final attempt).

        Returns:
            Number of wire items shipped (0 when empty, backing off,
            or the transport failed again).
        """
        self._last_flush = float(self._clock())
        if not self._buffer or self.closed:
            return 0
        if not ignore_deadline and self._last_flush < self._retry_at:
            return 0
        batch = self._buffer
        try:
            self._send(batch)
        except OSError:
            self.send_errors += 1
            counter_add("obs.sink.errors")
            self._arm_retry()
            return 0
        self._buffer = []
        self._delay = 0.0
        self._retry_at = 0.0
        self.sent += len(batch)
        counter_add("obs.sink.sent", len(batch))
        return len(batch)

    def close(self) -> None:
        """Final flush attempt, then release the transport."""
        if self.closed:
            return
        self.flush(ignore_deadline=True)
        self.closed = True
        self._close_transport()

    # -- internals ---------------------------------------------------

    def _push(self, item: Any) -> None:
        if len(self._buffer) >= self._buffer_limit:
            self.dropped += 1
            counter_add("obs.sink.dropped")
            return
        self._buffer.append(item)

    def _maybe_flush(self) -> None:
        if float(self._clock()) - self._last_flush \
                >= self._flush_interval:
            self.flush()

    def _arm_retry(self) -> None:
        # Decorrelated jitter (the repro.faults.retry shape): each
        # delay is uniform on [base, 3 * previous], capped — spreads
        # reconnect attempts instead of herding them.
        anchor = max(3.0 * self._delay, self._backoff_base)
        self._delay = min(
            self._jitter.uniform(self._backoff_base, anchor),
            self._backoff_cap)
        self._retry_at = float(self._clock()) + self._delay

    # -- subclass protocol -------------------------------------------

    def _render_event(self, record: Dict[str, Any]) -> Any:
        """Wire item for one tape event (None = skip)."""
        raise NotImplementedError

    def _render_counter(self, name: str, delta: float) -> Any:
        """Wire item for one counter delta."""
        raise NotImplementedError

    def _render_gauge(self, name: str, value: float) -> Any:
        """Wire item for one gauge value."""
        raise NotImplementedError

    def _send(self, batch: List[Any]) -> None:
        """Ship one batch; raise :class:`OSError` on failure."""
        raise NotImplementedError

    def _close_transport(self) -> None:
        """Release transport resources (sockets)."""


class StatsdSink(Sink):
    """statsd UDP line-protocol sink.

    Buffered items are protocol lines (``repro.sim.syncs:3|c``);
    a flush joins them into ~1400-byte datagrams.  UDP never blocks:
    the socket is non-blocking, and a full OS buffer counts as a
    transport failure like any other.

    Args:
        host: Collector hostname or address.
        port: Collector UDP port.
        **kwargs: Base-class buffering/retry options.
    """

    def __init__(self, host: str, port: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._address = (host, int(port))
        self._socket: socket.socket | None = None

    def _render_event(self, record: Dict[str, Any]) -> str:
        kind = str(record.get("kind", "unknown")).replace(".", "_")
        return f"{_metric_name(f'events.{kind}')}:1|c"

    def _render_counter(self, name: str, delta: float) -> str:
        return f"{_metric_name(name)}:{delta:g}|c"

    def _render_gauge(self, name: str, value: float) -> str:
        return f"{_metric_name(name)}:{value:g}|g"

    def _send(self, batch: List[str]) -> None:
        # The transports import their network modules on first use, so
        # that importing repro loads no network stack.
        import socket

        if self._socket is None:
            self._socket = socket.socket(socket.AF_INET,
                                         socket.SOCK_DGRAM)
            self._socket.setblocking(False)
        datagram: List[str] = []
        length = 0
        for line in batch:
            if datagram and length + len(line) + 1 > 1400:
                self._socket.sendto(
                    "\n".join(datagram).encode("utf-8"),
                    self._address)
                datagram = []
                length = 0
            datagram.append(line)
            length += len(line) + 1
        if datagram:
            self._socket.sendto("\n".join(datagram).encode("utf-8"),
                                self._address)

    def _close_transport(self) -> None:
        if self._socket is not None:
            self._socket.close()
            self._socket = None


class OtlpHttpSink(Sink):
    """OTLP/HTTP JSON metrics sink.

    Buffered items are ``(metric_kind, name, value)`` tuples; a flush
    aggregates them into one ``resourceMetrics`` envelope — counter
    deltas re-accumulated into cumulative monotonic sums, gauges
    last-write-wins, tape events counted per kind — and POSTs it with
    a bounded timeout.

    Args:
        endpoint: Full collector URL
            (``http://host:4318/v1/metrics``).
        timeout_s: Per-POST socket timeout, in seconds — the hard
            bound on how long one flush may block.
        **kwargs: Base-class buffering/retry options.
    """

    def __init__(self, endpoint: str, *, timeout_s: float = 1.0,
                 **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._endpoint = endpoint
        self._timeout = float(timeout_s)
        self._cumulative: Dict[str, float] = {}

    def _render_event(self, record: Dict[str, Any]
                      ) -> Tuple[str, str, float]:
        kind = str(record.get("kind", "unknown"))
        return ("counter", _metric_name(f"events.{kind}"), 1.0)

    def _render_counter(self, name: str, delta: float
                        ) -> Tuple[str, str, float]:
        return ("counter", _metric_name(name), float(delta))

    def _render_gauge(self, name: str, value: float
                      ) -> Tuple[str, str, float]:
        return ("gauge", _metric_name(name), float(value))

    def _payload(self, batch: List[Tuple[str, str, float]]) -> bytes:
        sums: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        for metric_kind, name, value in batch:
            if metric_kind == "counter":
                sums[name] = sums.get(name, 0.0) + value
            else:
                gauges[name] = value
        stamp = str(time.time_ns())
        metrics: List[Dict[str, Any]] = []
        for name in sorted(sums):
            total = self._cumulative.get(name, 0.0) + sums[name]
            self._cumulative[name] = total
            metrics.append({
                "name": name,
                "sum": {
                    "dataPoints": [{"asDouble": total,
                                    "timeUnixNano": stamp}],
                    "aggregationTemporality": 2,
                    "isMonotonic": True,
                },
            })
        for name in sorted(gauges):
            metrics.append({
                "name": name,
                "gauge": {"dataPoints": [{"asDouble": gauges[name],
                                          "timeUnixNano": stamp}]},
            })
        envelope = {
            "resourceMetrics": [{
                "resource": {"attributes": [{
                    "key": "service.name",
                    "value": {"stringValue": "repro-freshen"},
                }]},
                "scopeMetrics": [{
                    "scope": {"name": "repro.obs"},
                    "metrics": metrics,
                }],
            }],
        }
        return json.dumps(envelope).encode("utf-8")

    def _send(self, batch: List[Tuple[str, str, float]]) -> None:
        import urllib.request

        request = urllib.request.Request(
            self._endpoint, data=self._payload(batch),
            headers={"Content-Type": "application/json"},
            method="POST")
        with urllib.request.urlopen(request,
                                    timeout=self._timeout):
            pass


def parse_sink_url(url: str, **kwargs: Any) -> Sink:
    """Build a sink from a ``--sink`` URL.

    Supported schemes:

    * ``statsd://host:port`` — UDP line protocol
      (:class:`StatsdSink`);
    * ``otlp://host[:port][/path]`` — OTLP over plain HTTP
      (:class:`OtlpHttpSink`; port defaults to 4318, path to
      ``/v1/metrics``);
    * ``otlps://...`` — the same over HTTPS.

    Args:
        url: The sink URL.
        **kwargs: Forwarded to the sink constructor (buffer and
            retry options).

    Returns:
        The configured, unconnected sink.

    Raises:
        ValueError: On an unsupported scheme or a malformed URL.
    """
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    if parts.scheme == "statsd":
        if not parts.hostname or parts.port is None:
            raise ValueError(
                f"statsd sink URL needs host:port, got {url!r}")
        return StatsdSink(parts.hostname, parts.port, **kwargs)
    if parts.scheme in ("otlp", "otlps"):
        if not parts.hostname:
            raise ValueError(f"otlp sink URL needs a host, got {url!r}")
        scheme = "https" if parts.scheme == "otlps" else "http"
        port = parts.port if parts.port is not None else 4318
        path = parts.path if parts.path else "/v1/metrics"
        endpoint = f"{scheme}://{parts.hostname}:{port}{path}"
        return OtlpHttpSink(endpoint, **kwargs)
    raise ValueError(
        f"unsupported sink scheme {parts.scheme!r} in {url!r}; "
        "expected statsd://host:port or otlp://host[:port][/path]")
