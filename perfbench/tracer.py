"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``asid`` modules at the module or
class attributes their callers resolve at call time (``pipeline`` resolves
``service_ceiling`` in its own namespace, ``flightsim`` in its own, and so
on), so the program itself is not modified.  Wrappers are installed only
around traced soundings and removed afterwards; an untraced sounding runs
the original functions.

Three kinds of probe:

* ``span``: a stage call.  It gets a span record (sounding id, span id,
  parent span id, thread, start, end) kept in memory, plus summed totals.
* ``hot``: an inner function called thousands of times per sounding.  Only
  its calls, total time and self time are summed; no span per call.
* ``count``: only calls (and optional measures of the result) are counted;
  the call is not timed, so it adds the least overhead.

A probe's self time is its duration minus the time of the timed probes it
called.  Work the file server does on its own thread for a client call
(``handle_connection`` for ``fetch``) is attributed as a child of the
client's open probe, so ``fetch`` self time is the time the client waited
on the connection beyond the server's handling.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns

from asid import airframe, config, firmware, flightsim, groundstation, mission, pipeline, \
    synclink, wxindices


def _log_bytes(result, args, kwargs):
    sd, name, data = args
    return {"log_bytes": len(data)} if name in (firmware.AIR_LOG, firmware.GROUND_LOG) else {}


def _wire(result, args, kwargs):
    return {"wire_writes": len(result), "bytes": sum(len(piece) for piece in result)}


# (owner, attribute, layer name, kind, measure(result, args, kwargs) -> extra counts)
PROBES = (
    (config, "from_dict", "config.from_dict", "span", None),
    (pipeline, "simulate", "pipeline.simulate", "span", None),
    (pipeline, "run_simulation", "pipeline.run_simulation", "span", None),
    (mission, "generate_sounding_profile", "mission.generate", "span",
     lambda r, a, k: {"commands": len(r.commands)}),
    (mission, "validate", "mission.validate", "span", None),
    (pipeline, "service_ceiling", "airframe.service_ceiling", "span", None),
    (flightsim, "service_ceiling", "airframe.service_ceiling", "span", None),
    (flightsim, "run_mission", "flightsim.run_mission", "span", None),
    (flightsim, "step", "flightsim.step", "count", None),
    (flightsim, "density_ratio", "atmosphere.density_ratio", "hot", None),
    (airframe, "density_ratio", "atmosphere.density_ratio", "hot", None),
    (flightsim, "true_sample", "flightsim.true_sample", "hot", None),
    (flightsim.Trajectory, "to_csv", "flightsim.to_csv", "span", None),
    (firmware, "make_sample", "firmware.make_sample", "hot", None),
    (firmware, "tick", "firmware.tick", "hot", None),
    (firmware, "format_row", "firmware.format_row", "hot", None),
    (firmware.SdCardImage, "append", "firmware.sd_append", "hot", _log_bytes),
    (firmware.SdCardImage, "from_dir", "firmware.card_load", "span", None),
    (synclink, "sync", "synclink.sync", "span", None),
    (synclink, "fetch", "synclink.fetch", "span", None),
    (synclink, "handle_connection", "synclink.handle_connection", "span", None),
    (synclink.HttpFileResponse, "wire_writes", "synclink.wire_writes", "count", _wire),
    (wxindices, "build_profile", "wxindices.build_profile", "span", None),
    (wxindices, "parse_log", "wxindices.parse_log", "span",
     lambda r, a, k: {"rows": len(r)}),
    (wxindices, "build_report", "wxindices.build_report", "span", None),
    (groundstation, "build_bundle", "groundstation.build_bundle", "span", None),
    (groundstation, "render_plots", "groundstation.render_plots", "span",
     lambda r, a, k: {"svg_bytes": sum(len(svg) for svg in r.values())}),
    (groundstation, "write_bundle", "groundstation.write_bundle", "span", None),
)

ROOT = "sounding"


class Stat:
    """Summed figures of one probe over one sounding."""

    __slots__ = ("calls", "total_ns", "self_ns", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.extra: dict[str, int] = {}


class Tracer:
    """Collects per-sounding probe totals and stage spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._originals: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[list] = []
        self._remote_open = 0
        self._remote_done = threading.Condition()
        self._stats: dict[str, Stat] = {}
        self._sounding = -1
        self._next_span = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer probes are already installed")
        for owner, attr, name, kind, measure in PROBES:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(fn, name, kind, measure)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._originals.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- per sounding -----------------------------------------------------

    def begin(self, sounding: int) -> None:
        self._sounding = sounding
        self._stats = {}
        self._client_stack.clear()
        self._root = self._open(ROOT, self._client_stack, span=True)

    def end(self) -> dict[str, Stat]:
        """Close the sounding's root probe and return its totals by layer name."""
        self._close(self._root, self._client_stack)
        stats, self._stats = self._stats, {}
        return stats

    # -- probes -----------------------------------------------------------

    def _stack(self) -> list[list]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list[list], span: bool) -> list:
        # frame: [name, start_ns, child_ns, span_id, parent_frame, remote]
        remote = not stack and stack is not self._client_stack
        if remote:
            with self._remote_done:
                self._remote_open += 1
            parent = self._client_stack[-1] if self._client_stack else None
        else:
            parent = stack[-1] if stack else None
        span_id = None
        if span:
            span_id = self._next_span = self._next_span + 1
        frame = [name, 0, 0, span_id, parent, remote]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _close(self, frame: list, stack: list[list], extra: dict | None = None) -> None:
        end = perf_counter_ns()
        stack.pop()
        if frame[5]:
            with self._remote_done:
                self._record(frame, end, extra, "server")
                self._remote_open -= 1
                self._remote_done.notify_all()
            return
        if stack is not self._client_stack:
            self._record(frame, end, extra, "server")
            return
        if self._remote_open:
            # a server-thread child of this probe may still be closing
            with self._remote_done:
                self._remote_done.wait_for(lambda: self._remote_open == 0, timeout=5.0)
        self._record(frame, end, extra, "client")

    def _record(self, frame: list, end: int, extra: dict | None, thread: str) -> None:
        name, start, child, span_id, parent, _ = frame
        elapsed = end - start
        if parent is not None:
            parent[2] += elapsed
        stat = self._stat(name)
        stat.calls += 1
        stat.total_ns += elapsed
        stat.self_ns += elapsed - child
        if extra:
            self._add(stat, extra)
        if span_id is not None:
            self.spans.append({
                "sounding": self._sounding, "span": span_id,
                "parent": parent[3] if parent is not None else None,
                "name": name, "thread": thread, "start_ns": start, "end_ns": end,
            })

    def _stat(self, name: str) -> Stat:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = Stat()
        return stat

    @staticmethod
    def _add(stat: Stat, extra: dict) -> None:
        for key, value in extra.items():
            stat.extra[key] = stat.extra.get(key, 0) + value

    def _wrap(self, fn, name: str, kind: str, measure):
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                stat = tracer._stat(name)
                stat.calls += 1
                if measure is not None:
                    tracer._add(stat, measure(result, args, kwargs))
                return result
            counted.__wrapped__ = fn
            return counted

        if kind == "hot":
            # Hot probes run only on the client thread, inside a timed parent;
            # this is the _open/_close pair inlined, to keep the overhead low.
            stack = self._client_stack

            def hot(*args, **kwargs):
                parent = stack[-1]
                frame = [name, 0, 0, None, parent, False]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter_ns() - start
                    stack.pop()
                    parent[2] += elapsed
                    stat = tracer._stat(name)
                    stat.calls += 1
                    stat.total_ns += elapsed
                    stat.self_ns += elapsed - frame[2]
                if measure is not None:
                    tracer._add(stat, measure(result, args, kwargs))
                return result
            hot.__wrapped__ = fn
            return hot

        span = kind == "span"

        def timed(*args, **kwargs):
            stack = tracer._stack()
            frame = tracer._open(name, stack, span)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(result, args, kwargs)
                return result
            finally:
                tracer._close(frame, stack, extra)
        timed.__wrapped__ = fn
        return timed
