"""Run one kscalc CLI command in this process and record when its phases end.

Usage: python3 launch.py STAMP TRACE -- <kscalc arguments>

STAMP receives a JSON object: ``import_s`` (the seconds ``import
kscalc.cli`` took) and ``loaded_cpu`` (the process's CPU time,
``time.process_time()``, when the last input finished loading through
the ``load_*`` functions the CLI calls).  The process exits with the
CLI's own exit code.

With TRACE other than ``-`` every public function and method of the
kscalc modules is wrapped, at every name it is bound under, before the
CLI runs.  Each call becomes a span (name, start, end, parent span);
spans stay in memory and are written to TRACE.npy when the command ends,
with the layer counters in TRACE.json.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import threading
import time
from array import array
from itertools import count


def _import_cli():
    t0 = time.perf_counter()
    import kscalc.cli as cli

    expected = os.environ.get("PERFBENCH_SRC")
    if expected and not os.path.realpath(cli.__file__).startswith(os.path.realpath(expected)):
        sys.stderr.write(f"kscalc imported from {cli.__file__}, not from {expected}\n")
        sys.exit(9)
    return cli, time.perf_counter() - t0


class Stamps:
    """CPU time at the end of the outermost ``load_*`` call, as the CLI binds them."""

    def __init__(self, cli):
        self.loaded_cpu = None
        self.depth = 0
        for name in dir(cli):
            if name.startswith("load_"):
                setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.loaded_cpu = time.process_time()

        return timed


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans and counters kept in memory, one buffer per thread."""

    SKIP_MODULES = {"kscalc.errors", "kscalc.synth", "kscalc"}
    TRACK_DEPTH = {"barycenter", "packed_block"}

    def __init__(self):
        self.ids = count()
        self.names = {}
        self.buffers = []
        self.counts = {}
        self.local = threading.local()
        self.lock = threading.Lock()

    # thread-local state: the open-span stack, nesting depths and this
    # thread's span columns (id, name, parent, start, end)
    def _state(self):
        st = getattr(self.local, "st", None)
        if st is None:
            rows = (array("q"), array("q"), array("q"), array("d"), array("d"))
            st = {"stack": [-1], "rows": rows, "depth": {}}
            self.local.st = st
            with self.lock:
                self.buffers.append(rows)
        return st

    @staticmethod
    def _record(rows, sid, nid, parent, t0, t1):
        rows[0].append(sid)
        rows[1].append(nid)
        rows[2].append(parent)
        rows[3].append(t0)
        rows[4].append(t1)

    def add(self, key, value):
        with self.lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def name_id(self, name):
        with self.lock:
            return self.names.setdefault(name, len(self.names))

    def span(self, name, fn, hook=None):
        """Wrap ``fn``; ``hook(state, args, kwargs, result, ok)`` counts."""
        nid = self.name_id(name)
        short = name.rsplit(".", 1)[-1]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            hook_nid = self.name_id("perfbench.hook")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    st = tracer._state()
                    sid = next(tracer.ids)
                    parent = st["stack"][-1]
                    st["stack"].append(sid)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter()
                        st["stack"].pop()
                        tracer._record(st["rows"], sid, nid, parent, t0, t1)
                    if hook is not None:
                        # the counting work is a span of its own, so it is
                        # not charged to the caller's self time
                        hid = next(tracer.ids)
                        h0 = time.perf_counter()
                        hook(st, args, kwargs, item, True)
                        tracer._record(st["rows"], hid, hook_nid, parent, h0, time.perf_counter())
                    yield item

            return gen_wrapper

        # nesting depth is kept only where a counter needs it
        track = short in self.TRACK_DEPTH
        ids, record, perf = self.ids, self._record, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if track:
                st["depth"][short] = st["depth"].get(short, 0) + 1
            ok = False
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                record(st["rows"], sid, nid, parent, t0, t1)
                if track:
                    st["depth"][short] -= 1
                if hook is not None:
                    hook(st, args, kwargs, result, ok)

        return wrapper

    def install(self, hooks):
        """Wrap every public function and method of the kscalc modules."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n.startswith("kscalc.") and n not in self.SKIP_MODULES and m is not None
        ]
        replace = {}
        for mod in modules:
            layer = mod.__name__.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if layer != "cli":
                        self._wrap_class(obj, layer, hooks)
                    continue
                if not callable(obj):
                    continue
                full = f"{layer}.{name}"
                if name.startswith("_") and full not in hooks:
                    continue
                if layer == "cli" and not (name.startswith("cmd_") or full in hooks):
                    continue
                replace[id(obj)] = (obj, self.span(full, obj, hooks.get(full)))
        for mod in modules + [sys.modules["kscalc"]]:
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, cls, layer, hooks):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            full = f"{layer}.{cls.__name__}.{attr}"
            key = f"{layer}.{attr}"
            hook = hooks.get(key)
            if isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.span(full, val.__func__, hook)))
            elif isinstance(val, classmethod):
                setattr(cls, attr, classmethod(self.span(full, val.__func__, hook)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self.span(full, val, hook))

    def dump(self, path):
        import numpy as np

        cols = [np.concatenate([np.asarray(buf[k], dtype=float) for buf in self.buffers])
                for k in range(5)]
        np.save(path + ".npy", np.stack(cols, axis=1))
        names = [n for n, _ in sorted(self.names.items(), key=lambda kv: kv[1])]
        with open(path + ".json", "w") as fh:
            json.dump({"names": names, "counts": self.counts}, fh)


def make_hooks(tracer, pair_dist_block):
    """Counters taken at the layer boundaries, from arguments and results."""

    def calls(key):
        return lambda st, args, kwargs, result, ok: tracer.add(key, 1)

    def cells(st, args, kwargs, item, ok):
        space, r = args[0], args[1]
        pts, cand = item
        tracer.add("spaces.cell_blocks", 1)
        tracer.add("spaces.candidate_pairs", int(len(pts) * len(cand)))
        d2 = pair_dist_block(space, pts, cand, squared=True)
        tracer.add("spaces.in_ball_pairs", int((d2 < r * r).sum()))

    def ks_profile(st, args, kwargs, result, ok):
        tracer.add("energy.ks_profile_calls", 1)
        if ok:
            tracer.add("energy.ks_values", int(result.size))

    def packed_block(st, args, kwargs, result, ok):
        # a product's packed_block calls its components': count the outer
        if st["depth"].get("packed_block", 0) == 0:
            tracer.add("targets.packed_block_pairs", int(len(args[2]) * len(args[3])))

    def geodesic_point(st, args, kwargs, result, ok):
        tracer.add("targets.geodesic_point_calls", 1)
        if st["depth"].get("barycenter", 0) > 0:
            tracer.add("targets.barycenter_steps", 1)

    def barycenter(st, args, kwargs, result, ok):
        tracer.add("targets.barycenter_calls", 1)
        # points of the barycenters that iterate (not closed form, not split)
        if args[0].kind not in ("euclidean", "product") and len(args[1]) > 1:
            tracer.add("targets.barycenter_points", len(args[1]))

    def fit(st, args, kwargs, result, ok):
        tracer.add("charts.fit_calls", 1)
        tracer.add("charts.fit_ok", int(ok))

    def solve(st, args, kwargs, result, ok):
        if ok:
            tracer.add("dirichlet.sweeps", int(result[1].iterations))

    return {
        "spaces.nn_distances": calls("spaces.nn_calls"),
        "spaces.ball_indices": calls("spaces.ball_indices_calls"),
        "spaces.dist_subset": calls("spaces.dist_subset_calls"),
        "spaces.cell_partition": cells,
        "energy.ks_profile": ks_profile,
        "targets.packed_block": packed_block,
        "targets.dist_block": lambda st, args, kwargs, result, ok: tracer.add(
            "targets.dist_block_points", len(args[2])
        ),
        "targets.dist": calls("targets.dist_calls"),
        "targets.geodesic_point": geodesic_point,
        "targets.canonical": calls("targets.canonical_calls"),
        "targets.random_point": calls("targets.random_point_calls"),
        "targets.barycenter": barycenter,
        "charts.fit_metric_differential": fit,
        "seminorms.size_p": calls("seminorms.size_p_calls"),
        "dirichlet.solve": solve,
        # output writing lives in two private CLI helpers
        "cli._emit": lambda st, args, kwargs, result, ok: tracer.add(
            "serialize.bytes_written", len(args[1].encode())
        ),
        "cli._csv": None,
        "serialize.read_json": lambda st, args, kwargs, result, ok: tracer.add(
            "serialize.bytes_read", os.path.getsize(args[0])
        ),
    }


def trace_parallel_map(tracer):
    """Spans opened in pool threads get the fan-out span as their parent."""
    from kscalc import parallel

    original = parallel.parallel_map

    def fanout(fn, items, threads=1):
        items = list(items)
        tracer.add("parallel.items", len(items))
        st = tracer._state()
        parent = st["stack"][-1]

        def adopted(x):
            if threading.current_thread() is not threading.main_thread():
                tracer._state()["stack"][0] = parent
            return fn(x)

        return original(adopted, items, threads=threads)

    wrapped = tracer.span("parallel.parallel_map", fanout)
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("kscalc"):
            for name, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, name, wrapped)


def main(argv):
    stamp_path, trace_path = argv[0], argv[1]
    args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    cli, import_s = _import_cli()
    tracer = None
    if trace_path != "-":
        from kscalc.spaces import PointCloudSpace

        tracer = Tracer()
        hooks = make_hooks(tracer, PointCloudSpace.pair_dist_block)
        trace_parallel_map(tracer)
        tracer.install(hooks)
    stamps = Stamps(cli)
    try:
        code = cli.main(args)
    finally:
        if tracer is not None:
            tracer.dump(trace_path)
        with open(stamp_path, "w") as fh:
            json.dump({"import_s": import_s, "loaded_cpu": stamps.loaded_cpu}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
