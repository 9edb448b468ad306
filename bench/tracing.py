"""Per-layer spans and work counts for the traced benchmark run.

The package is never edited: `Tracer.install` replaces the public entry
points of each module with wrappers for the lifetime of one traced pass and
`Tracer.uninstall` puts the originals back.  Each wrapper records a span
(name, layer, start, end, parent span, operation id) and the counts that
belong to its call.  A layer's self time is the time its spans cover minus
the time their child spans cover, so the self times of all layers plus the
time outside any span add up to the wall time of the pass.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from torus_billiards.errors import GrazingAmbiguousError

LAYERS = ("curves", "domain", "engine", "grazing", "analysis", "cli")


def _points(a, width):
    """Number of points in an array-like whose last axis has ``width``."""
    size = int(np.size(a))
    return max(size // width, 1) if width > 1 else max(size, 1)


class Tracer:
    def __init__(self):
        self.spans = []           # (id, name, layer, start, end, parent, op)
        self.self_s = defaultdict(float)   # (part, layer) -> seconds
        self.span_s = defaultdict(float)   # span name -> inclusive seconds
        self.counts = Counter()
        self.part = None
        self.op = 0
        self.enabled = True       # False while the benchmark prepares inputs
        self._stack = []          # [span id, layer, child seconds]
        self._next_id = 0
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _caller_layer(self):
        """Nearest enclosing layer that is not domain or curves."""
        for frame in reversed(self._stack):
            if frame[1] not in ("domain", "curves"):
                return frame[1]
        return None

    def _count(self, name, args, kwargs, result, exc):
        c = self.counts
        c[name + ".calls"] += 1
        layer, _, short = name.partition(".")
        if layer == "domain" and short in ("xi", "grad_xi"):
            pts = _points(args[1] if len(args) > 1 else kwargs["p"], 3)
            c[name + ".points"] += pts
            if short == "xi":
                caller = self._caller_layer()
                if caller is not None:
                    c["xi_points_under." + caller] += pts
        elif name == "domain.nearest_parameter":
            rho = args[1] if len(args) > 1 else kwargs["rho"]
            z = args[2] if len(args) > 2 else kwargs["z"]
            c[name + ".points"] += int(np.broadcast(rho, z).size)
        elif layer == "curves" and short in ("eval", "deriv1", "deriv2"):
            c["curves.calls.total"] += 1
            c["curves.points"] += _points(args[1] if len(args) > 1
                                          else kwargs["tau"], 1)
        elif name in ("engine.forward_cycles", "engine.backward_cycles"):
            if result is not None:
                c["engine.orbits"] += 1
                c["engine.bounces"] += len(result.events)
        elif name == "grazing.classify" and isinstance(exc, GrazingAmbiguousError):
            c["grazing.ambiguous"] += 1
        elif name in ("analysis.badset_measure", "analysis.badset_scan"):
            n = args[5] if len(args) > 5 else kwargs["n_samples"]
            c["analysis.samples_traced"] += int(n)
            if any(frame[1] == "cli" for frame in self._stack):
                c["analysis.samples_traced_in_cli"] += int(n)
        elif name == "cli.main":
            argv = list(args[0] if args else kwargs.get("argv") or [])
            if "--samples" in argv:
                c["cli.samples_requested"] += int(argv[argv.index("--samples") + 1])

    def wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[(tracer.part, layer)] += dur - frame[2]
                tracer.span_s[name] += dur
                if parent is not None:
                    parent[2] += dur
                tracer.spans.append((span_id, name, layer, t0, t1,
                                     -1 if parent is None else parent[0],
                                     tracer.op))
                tracer._count(name, args, kwargs, result, exc)

        return traced

    def _patch(self, owner, attr, name, layer):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, layer))
        else:
            new = self.wrap(raw, name, layer)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public entry points of each module of torus_billiards."""
        from torus_billiards import analysis, cli, curves, domain, engine, grazing

        for attr in ("eval", "deriv1", "deriv2"):
            self._patch(curves.ProfileCurve, attr, "curves." + attr, "curves")
        # domain.py imported find_markers by name; wrap it where it is looked up
        self._patch(domain, "find_markers", "curves.find_markers", "curves")
        for cls in (domain.ToroidalDomain, domain.CircleTorusDomain):
            for attr, val in list(cls.__dict__.items()):
                if attr.startswith("__") and attr != "__init__":
                    continue
                if callable(val) or isinstance(val, staticmethod):
                    self._patch(cls, attr, "domain." + attr, "domain")
        for attr in ("__init__", "forward_cycles", "backward_cycles",
                     "backward_exit", "forward_exit", "reflect"):
            self._patch(engine.BilliardEngine, attr, "engine." + attr, "engine")
        for attr in ("classify", "inflection_directions", "concave_direction",
                     "normal_curvature"):
            self._patch(grazing, attr, "grazing." + attr, "grazing")
        for attr in ("badset_measure", "badset_scan"):
            self._patch(analysis, attr, "analysis." + attr, "analysis")
        self._patch(cli, "main", "cli.main", "cli")

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------

    def layer_self(self, part=None):
        out = dict.fromkeys(LAYERS, 0.0)
        for (p, layer), s in self.self_s.items():
            if part is None or p == part:
                out[layer] += s
        return out

    def exact_counts(self):
        """Counts that must repeat exactly for one seed (no timings)."""
        return dict(sorted(self.counts.items()))

    def save_spans(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(s[0], index[s[1]], LAYERS.index(s[2]), s[3], s[4],
                         s[5], s[6]) for s in self.spans],
                       dtype=[("id", "i8"), ("name", "i4"), ("layer", "i4"),
                              ("start", "f8"), ("end", "f8"),
                              ("parent", "i8"), ("op", "i8")])
        np.savez_compressed(path, spans=arr, names=np.array(names),
                            layers=np.array(LAYERS))
