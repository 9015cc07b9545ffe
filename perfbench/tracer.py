"""Per-layer tracing from outside the program.

The tracer wraps the public entry point of each layer and installs the
wrapper under every name that binds the original function in the
``wavectl`` package, so a call through ``wavectl.cli.rectified_bias``
and one through ``wavectl.btl.rectified_bias`` record the same span.
Spans stay in memory with a link to their parent; a span's self time
is its duration minus the time covered by its child spans.  Work counts
are taken from the arguments and results at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "wavectl"


def _grid_points(args, kwargs, result):
    design, spec = args[0], args[4] if len(args) > 4 else kwargs["spec"]
    return {"steering.grid_points": spec.f_axis().size * spec.w_axis().size
            * design.element_count}


def _probes(args, kwargs, result):
    return {"steering.specular_scan.probes": len(result)}


def _tone_taps(args, kwargs, result):
    return {"btl.tone_taps": len(result) * len(args[1].modes)}


def _angle_elements(args, kwargs, result):
    return {"radiation.angle_elements": result.theta.size * len(args[0])}


def _sweep_points(args, kwargs, result):
    return {"unitcell.sweep_points": len(args[0])}


def _csv_bytes(args, kwargs, result):
    return {"serialize.write_csv.bytes": len(result.encode("utf-8")),
            "serialize.write_csv.rows": result.count("\n") - 1}


def _json_bytes(args, kwargs, result):
    return {"serialize.write_json.bytes": len(result.encode("utf-8"))}


# span name -> work counter read from (args, kwargs, result), or None.
# The comment names the end-to-end metric a faster layer should move and
# the workload where it should move it.
TARGETS = {
    "cli.main": None,  # latency_p50_ms on fit-cascade (argparse, glue, report)
    "config.load_config": None,  # latency_p50_ms on fit-cascade and multitone
    "btl.rectified_bias": _tone_taps,  # throughput_rps, latency_p50_ms on multitone
    "steering.optimize_single_beam": _grid_points,  # latency_p50_ms on steer
    "steering.specular_scan": _probes,  # latency_p50_ms, latency_tail_ms on scan
    "numutil.golden_section_maximize": None,  # latency_p50_ms on steer only
    "unitcell.reflection_profile": None,  # multitone (pattern) and steer
    "unitcell.ingest_impedance": None,  # fit-cascade
    "unitcell.fit_circuit_model": _sweep_points,  # fit-cascade
    "radiation.array_factor": _angle_elements,  # multitone (pattern) and steer
    "cascade.build_network": None,  # fit-cascade
    "cascade.solve_taps": None,  # fit-cascade
    "serialize.write_csv": _csv_bytes,  # scan (CSV half) and multitone
    "serialize.write_json": _json_bytes,  # steer and scan (JSON half)
}


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child: float = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    """Install with ``install()``, always ``restore()`` in a ``finally``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, original, counter):
        stack, spans, counts = self._stack, self.spans, self.counts
        count_evals = name == "numutil.golden_section_maximize"

        def traced(*args, **kwargs):
            if count_evals:
                fun = args[0]

                def objective(x):
                    counts["numutil.golden_section_maximize.evals"] += 1
                    return fun(x)

                args = (objective,) + args[1:]
            span = Span(name, stack[-1] if stack else None, perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                spans.append(span)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, counter in TARGETS.items():
            module_name, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        left = [f"{m.__name__}.{k}" for m, k, original in self._patched
                if getattr(m, k) is not original]
        self._patched.clear()
        if left:
            raise RuntimeError(f"trace wrappers left installed: {left}")

    def bindings(self):
        """Every (namespace, name) the wrappers are installed under."""
        return [f"{m.__name__}.{k}" for m, k, _ in self._patched]

    def layer_metrics(self, requests, traced_rps, untraced_rps):
        """Per-layer metrics as {name: (value, unit)}; counts are per request."""
        calls = Counter()
        self_s = Counter()
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_time
        total = sum(s.duration for s in self.spans if s.name == "cli.main")
        counts = self.counts
        out = {}

        def per_call(name):
            return 1e3 * self_s[name] / calls[name] if calls[name] else 0.0

        def share(name):
            return 100.0 * self_s[name] / total if total else 0.0

        for name in TARGETS:
            if name == "cli.main":
                out["cli.main.self_ms_per_request"] = (1e3 * self_s[name] / requests, "ms")
                out["cli.main.share"] = (share(name), "%")
                continue
            out[f"{name}.calls"] = (calls[name] / requests, "1/req")
            if name == "steering.specular_scan":
                probes = counts["steering.specular_scan.probes"]
                out[f"{name}.self_ms_per_probe"] = (
                    1e3 * self_s[name] / probes if probes else 0.0, "ms")
            else:
                out[f"{name}.self_ms_per_call"] = (per_call(name), "ms")
            out[f"{name}.share"] = (share(name), "%")

        out["numutil.golden_section_maximize.evals"] = (
            counts["numutil.golden_section_maximize.evals"] / requests, "1/req")
        out["btl.tone_taps"] = (counts["btl.tone_taps"] / requests, "1/req")
        out["steering.grid_points"] = (counts["steering.grid_points"] / requests, "1/req")
        opt_s = self_s["steering.optimize_single_beam"]
        out["steering.grid_points_per_s"] = (
            counts["steering.grid_points"] / opt_s if opt_s else 0.0, "1/s")
        out["radiation.angle_elements"] = (counts["radiation.angle_elements"] / requests, "1/req")
        out["unitcell.sweep_points"] = (counts["unitcell.sweep_points"] / requests, "1/req")
        out["serialize.write_csv.bytes"] = (counts["serialize.write_csv.bytes"] / requests, "B/req")
        out["serialize.write_csv.rows"] = (counts["serialize.write_csv.rows"] / requests, "1/req")
        out["serialize.write_json.bytes"] = (
            counts["serialize.write_json.bytes"] / requests, "B/req")
        ser_s = self_s["serialize.write_csv"] + self_s["serialize.write_json"]
        ser_b = counts["serialize.write_csv.bytes"] + counts["serialize.write_json.bytes"]
        out["serialize.mb_per_s"] = (ser_b / ser_s / 1e6 if ser_s else 0.0, "MB/s")
        out["trace.overhead_ratio"] = (traced_rps / untraced_rps, "ratio")
        return out

    def fired(self):
        return {span.name for span in self.spans}
