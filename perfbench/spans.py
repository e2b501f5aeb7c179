"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``repro`` layers from the
outside: nothing under ``src/`` knows it exists.  Each wrapped call
becomes one span ``(name, start, end, parent, request id)`` kept in
memory; :meth:`Tracer.dump` writes them out when the run ends, and
:func:`summarize` derives per-name inclusive and self times.

A function imported by name into other modules (``from x import f``) is
replaced in every loaded ``repro`` module that holds it, so call sites
see the wrapper no matter how they imported it.  Methods are replaced
on their class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: (module, attribute path, span name).  The attribute path is
#: ``func`` or ``Class.method``.
TARGETS = [
    ("repro.lang.parser", "parse", "lang.parse"),
    ("repro.ir.builder", "build_ir", "ir.build"),
    ("repro.model.extractor", "extract_model", "model.extract"),
    ("repro.model.kripke", "build_kripke", "model.kripke"),
    ("repro.model.union", "build_union_model", "model.union"),
    ("repro.model.union", "build_union_skeleton", "model.union"),
    ("repro.model.encoder", "SymbolicUnionModel.__init__", "model.encode"),
    ("repro.mc.symbolic", "SymbolicModelChecker.check", "mc.symbolic_check"),
    ("repro.mc.symbolic", "SymbolicModelChecker.sat", "mc.symbolic_fixpoint"),
    ("repro.mc.explicit", "ExplicitChecker.check", "mc.explicit_check"),
    ("repro.properties.general", "check_general_properties", "properties.general"),
    ("repro.pipeline.stages", "check_app_specific", "properties.app_specific"),
    ("repro.pipeline.stages", "determinism_violations", "properties.determinism"),
    ("repro.pipeline.store", "ArtifactStore.get", "pipeline.store_get"),
    ("repro.pipeline.store", "ArtifactStore.put", "pipeline.store_put"),
    ("repro.pipeline.runner", "Pipeline.app_analysis", "pipeline.app_analysis"),
    ("repro.pipeline.runner", "Pipeline.environment_analysis",
     "pipeline.environment_analysis"),
    ("repro.corpus.sweep", "union_outcome", "corpus.union_outcome"),
    ("repro.corpus.sweep", "sweep_environments", "corpus.sweep"),
    ("repro.corpus.batch", "analyze_batch", "corpus.batch"),
    ("repro.fleet.driver", "run_fleet", "fleet.run"),
    ("repro.fleet.driver", "check_household", "fleet.check"),
    ("repro.fleet.profiles", "sample_stream", "fleet.sample"),
    ("repro.fleet.profiles", "TemplatePool.canonical_key", "fleet.canon"),
    ("repro.fleet.profiles", "TemplatePool.household", "fleet.variant"),
    ("repro.corpus.diskcache", "FleetCache.get", "fleet.probe"),
    ("repro.corpus.diskcache", "FleetCache.put", "fleet.cache_put"),
    ("repro.service.app", "SoteriaService.submit", "service.admit"),
    ("repro.service.app", "SoteriaService.wait", "service.wait"),
    ("repro.service.app", "SoteriaService._run_job", "service.run"),
    ("repro.service.app", "_analyze_in_worker", "service.worker_analysis"),
    ("repro.service.jobs", "JobStore.submit", "service.jobstore"),
    ("repro.service.jobs", "JobStore.update", "service.jobstore"),
    ("repro.service.app", "_Handler.do_POST", "service.handler"),
]

#: Spans that group the layer spans of one operation; their self time is
#: orchestration the layer spans do not name, so it counts as uncovered.
UMBRELLAS = (
    "pipeline.app_analysis",
    "pipeline.environment_analysis",
    "corpus.sweep",
    "corpus.batch",
    "fleet.run",
)

#: Request-id header the service load generator sends; the handler span
#: copies it so client round trips pair with server handler time.
REQUEST_HEADER = "X-Bench-Request"


class Tracer:
    """In-memory span recorder (thread-safe; one per process)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: str | None) -> None:
        self._local.request = request_id

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def start(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, name, time.perf_counter()

    def finish(self, token: tuple) -> None:
        end = time.perf_counter()
        span_id, parent, name, start = token
        self._stack().pop()
        request = getattr(self._local, "request", None)
        # list.append is atomic under the GIL; no lock on the hot path.
        self.spans.append((span_id, name, start, end, parent, request))

    # ------------------------------------------------------------------
    def wrap(self, func, name: str):
        tracer = self
        if inspect.isgeneratorfunction(func):
            # One span per resumption, so time spent by the consumer
            # between items is not charged to the generator.
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    token = tracer.start(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(token)
                    yield item

            return gen_wrapper

        if name == "service.handler":
            @functools.wraps(func)
            def handler_wrapper(handler, *args, **kwargs):
                tracer.set_request(handler.headers.get(REQUEST_HEADER))
                token = tracer.start(name)
                try:
                    return func(handler, *args, **kwargs)
                finally:
                    tracer.finish(token)
                    tracer.set_request(None)

            return handler_wrapper

        checks = name in ("mc.symbolic_check", "mc.explicit_check")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = tracer.start(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(token)
            if checks:
                tracer.count("mc.formulas_checked")
                if not result.holds:
                    tracer.count("mc.formulas_violated")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, in its home module and every alias."""
        for module_name, path, name in TARGETS:
            replace(module_name, path, lambda func, name=name: self.wrap(func, name))

    def dump(self, path: str, cache_dir: str | None = None) -> None:
        """Write spans and counters; with ``cache_dir``, also the counters
        of this process's pipeline store over that root."""
        data = {"pid": os.getpid(), "spans": self.spans, "counters": self.counters}
        if cache_dir is not None:
            from repro.pipeline import pipeline_for

            data["store"] = store_counts(pipeline_for(cache_dir).store)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(data, out)


def replace(module_name: str, path: str, wrap) -> None:
    """Replace ``module.path`` (``func`` or ``Class.method``) by
    ``wrap(original)``: a method on its class, a function in its home
    module and in every loaded ``repro`` module that imported it by name.
    """
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, wrap(getattr(cls, attr)))
        return
    original = getattr(module, path)
    wrapped = wrap(original)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", None)
        if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def store_counts(store) -> dict:
    """Summed hit/miss/write counters of one artifact store."""
    totals = {"hits": 0, "misses": 0, "writes": 0}
    for stats in store.cache_info()["stages"].values():
        for event in totals:
            totals[event] += stats.get(event, 0)
    return totals


def summarize(spans: list) -> dict:
    """Per-name inclusive and self seconds plus call counts.

    Inclusive time counts only the outermost span of a name in any
    nesting chain (``sat`` recurses), so it never double-counts.  Self
    time is a span's duration minus its direct children's.
    """
    by_id = {span[0]: span for span in spans}
    child_time: dict[int, float] = {}
    for span_id, _name, start, end, parent, _rid in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    inclusive: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span_id, name, start, end, parent, _rid in spans:
        duration = end - start
        self_time[name] = self_time.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        calls[name] = calls.get(name, 0) + 1
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return {"inclusive": inclusive, "self": self_time, "calls": calls}


def install_for_worker_processes(out_dir: str, cache_dir: str | None) -> None:
    """Make forked pool workers dump their spans when they exit.

    The service's process pool forks from the traced server, so workers
    inherit the wrapped functions but start with this process's span
    list; each child clears it and registers a dump that multiprocessing
    runs on the child's orderly exit.  Workers analyze on their own
    pipeline over ``cache_dir``, so the dump carries its store counters.
    """
    import multiprocessing.util as mp_util

    def after_fork(tracer: Tracer) -> None:
        tracer.spans = []
        tracer.counters = {}
        tracer._local = threading.local()
        path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
        mp_util.Finalize(
            tracer, tracer.dump, args=(path, cache_dir), exitpriority=100
        )

    mp_util.register_after_fork(TRACER, after_fork)


#: The process's recorder (created unarmed; :meth:`Tracer.install` arms it).
TRACER = Tracer()


def main(argv: list[str]) -> int:
    """Run the ``soteria`` CLI with the recorder armed.

    ``python3 -u perfbench/spans.py OUT_DIR serve ...`` is the traced
    stand-in for ``python3 -m repro serve ...``: the server's spans go to
    ``OUT_DIR/spans-<pid>.json`` when it shuts down, and each pool worker
    writes its own file when it exits.
    """
    import atexit

    out_dir, cli_args = argv[0], argv[1:]
    cache_dir = None
    if "--cache-dir" in cli_args:
        cache_dir = cli_args[cli_args.index("--cache-dir") + 1]
    TRACER.install()
    install_for_worker_processes(out_dir, cache_dir)
    atexit.register(
        TRACER.dump, os.path.join(out_dir, f"spans-{os.getpid()}.json")
    )
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
