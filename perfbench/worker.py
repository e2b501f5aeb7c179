"""One measured episode of a workload, in a fresh process.

``run.py`` starts this file once per episode with ``PYTHONPATH=src``, so
process-wide caches (the corpus loader's lru caches, the memory-only
default pipeline, the fleet's shape cache) never carry over from one
episode to the next.  The episode writes one JSON result file:

    python3 perfbench/worker.py apps|sweep|fleet --seed N --budget S \
        --trace 0|1 --started <epoch> --out result.json [--cache-dir D]

``setup_s`` is measured from ``--started`` (the parent's clock reading
just before it spawned this process) to the end of set-up, so it covers
interpreter start, imports and corpus load.  Every time is reported raw
and scaled to the reference host speed (``pace.py``).  With
``--trace 1`` the span recorder is armed after set-up and its spans go
to ``<out>.spans.json``.  With ``--setup-only`` the episode stops after
set-up and reports only its set-up time: ``run.py`` starts several
such probes per run, so ``setup_s`` is a median over many process
starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from spans import TRACER, store_counts  # noqa: E402

#: Calls that tick the pace during a sweep or a fleet screen (untraced
#: episodes only, so no chunk lands inside a traced span).
SWEEP_TICKS = (
    ("repro.lang.parser", "parse"),
    ("repro.corpus.sweep", "union_outcome"),
    ("repro.mc.symbolic", "SymbolicModelChecker.check"),
    ("repro.mc.explicit", "ExplicitChecker.check"),
)
FLEET_TICKS = (
    ("repro.fleet.profiles", "TemplatePool.canonical_key"),
    ("repro.fleet.driver", "check_household"),
    ("repro.mc.symbolic", "SymbolicModelChecker.check"),
    ("repro.mc.explicit", "ExplicitChecker.check"),
)


def _pairs(violations) -> list[tuple[str, bool]]:
    return [(v.property_id, bool(v.via_reflection)) for v in violations]


def _kernel_counts() -> dict:
    from repro.mc.kernel import aggregate_kernel_stats

    peak = lookups = hits = 0
    for agg in aggregate_kernel_stats().values():
        peak = max(peak, agg["peak_nodes"])
        lookups += agg["cache_lookups"]
        hits += agg["cache_hits"]
    return {"bdd_peak_nodes": peak, "bdd_cache_lookups": lookups, "bdd_cache_hits": hits}


def _arm(args, ticks=()) -> tuple[Pace, dict]:
    """Set-up is over: time it (raw and scaled), then arm the span
    recorder (traced) or the pace ticks (untraced)."""
    setup = time.time() - args.started
    pace = Pace()
    head = {"setup_s": setup, "setup_scaled_s": pace.scale_setup(setup)}
    if not args.setup_only:
        if args.trace:
            TRACER.install()
        else:
            pace.install(ticks)
    return pace, head


# ----------------------------------------------------------------------
# apps_cold: every corpus app singly, empty memory-only store per pass
# ----------------------------------------------------------------------
def episode_apps(args) -> dict:
    from repro.corpus.loader import load_source
    from repro.pipeline import Pipeline
    from repro.pipeline.store import ArtifactStore

    ids = workloads.corpus_ids()
    sources = {app_id: load_source(app_id) for app_id in ids}
    expected = workloads.load_expected()
    pace, head = _arm(args)
    if args.setup_only:
        return head

    latencies: list[float] = []
    scaled: list[float] = []
    store_totals: dict = {}
    attempted = failed = passes = 0
    deadline = time.perf_counter() + args.budget
    while passes < args.min_ops or time.perf_counter() < deadline:
        order = workloads.shuffled(ids, args.seed, f"apps:{args.episode}:{passes}")
        pipeline = Pipeline(ArtifactStore())
        since = len(pace.chunks)
        pace.chunk()
        own: list[float] = []
        for app_id in order:
            pace.tick()
            start = time.perf_counter()
            analysis = pipeline.app_analysis(sources[app_id], name=app_id)
            own.append(time.perf_counter() - start)
            attempted += 1
            if not workloads.app_verdict_ok(expected, app_id, _pairs(analysis.violations)):
                failed += 1
        pace.chunk()
        factor = pace.factor(since)  # this pass's chunks
        latencies += own
        scaled += [latency * factor for latency in own]
        for key, value in store_counts(pipeline.store).items():
            store_totals[key] = store_totals.get(key, 0) + value
        passes += 1
    return {
        **head,
        "units": passes,
        "busy_s": sum(latencies),
        "busy_scaled_s": sum(scaled),
        "latencies": latencies,
        "scaled_latencies": scaled,
        "attempted": attempted,
        "failed": failed,
        "counts": {"store": store_totals, "kernel": _kernel_counts()},
    }


# ----------------------------------------------------------------------
# env_sweep: the device-sharing environments of `soteria sweep all`
# ----------------------------------------------------------------------
def episode_sweep(args) -> dict:
    from repro.corpus.sweep import groups_sharing_devices, sweep_environments
    from repro.pipeline import default_pipeline

    expected = workloads.load_expected()
    pace, head = _arm(args, SWEEP_TICKS)
    if args.setup_only:
        return head

    def sweep():
        groups = workloads.shuffled(
            groups_sharing_devices("all"), args.seed, f"sweep:{args.episode}"
        )
        return groups, sweep_environments(groups, jobs=1)

    (groups, outcomes), elapsed, scaled = pace.measure(sweep)
    failed = 0
    for group, outcome in zip(groups, outcomes):
        if outcome.failed or not workloads.env_verdict_ok(
            expected,
            tuple(group),
            [(v.property_id, len(v.apps)) for v in outcome.environment.violations],
        ):
            failed += 1
    return {
        **head,
        "units": 1,
        "busy_s": elapsed,
        "busy_scaled_s": scaled,
        "attempted": len(groups),
        "failed": failed,
        "counts": {
            "store": store_counts(default_pipeline().store),
            "kernel": _kernel_counts(),
            "groups": len(groups),
        },
    }


# ----------------------------------------------------------------------
# fleet_screen: one screen (cold or warm, decided by the cache dir)
# ----------------------------------------------------------------------
def _record_households(seen: list) -> None:
    """Record the (template, variant, canonical key) of every sampled
    household as the screen computes it, so each household's verdict can
    be checked on its own; one list append per household."""
    from repro.fleet.profiles import TemplatePool

    canonical_key = TemplatePool.canonical_key

    def recorded(pool, template, variant):
        key = canonical_key(pool, template, variant)
        seen.append((template, variant, key))
        return key

    TemplatePool.canonical_key = recorded


def episode_fleet(args) -> dict:
    from repro.fleet.driver import FleetOptions, run_fleet
    from repro.pipeline import pipeline_for

    profile = workloads.fleet_profile()
    options = FleetOptions(jobs=1, cache_dir=args.cache_dir)
    expected = workloads.load_expected()
    seen: list[tuple[int, int, str]] = []
    if not args.setup_only:
        _record_households(seen)
    pace, head = _arm(args, FLEET_TICKS)
    if args.setup_only:
        return head

    result, elapsed, scaled = pace.measure(
        lambda: run_fleet(profile, workloads.FLEET_HOUSEHOLDS, options)
    )
    telemetry = result.telemetry
    rows = []
    for template, variant, key in seen:
        verdict = result.verdicts.get(key)
        ok = verdict is not None and not verdict.failed
        rows.append((template, variant, verdict.violated_ids() if ok else None))
    return {
        **head,
        "units": 1,
        "busy_s": elapsed,
        "busy_scaled_s": scaled,
        "households": telemetry.households,
        # One operation per sampled household, each checked against the
        # oracle's verdict for its own (template, skin).
        "attempted": workloads.FLEET_HOUSEHOLDS,
        "failed": workloads.fleet_failed(
            expected, rows, telemetry.violating_households
        ),
        "digest": workloads.fleet_digest(
            (t, v, ids or ()) for t, v, ids in rows
        ),
        "counts": {
            "store": store_counts(pipeline_for(args.cache_dir).store),
            "kernel": _kernel_counts(),
            "fresh_checks": telemetry.fresh_checks,
            "disk_hits": telemetry.disk_hits,
            "canonical_distinct": telemetry.canonical_distinct,
            "hit_rate": telemetry.hit_rate,
        },
    }


EPISODES = {"apps": episode_apps, "sweep": episode_sweep, "fleet": episode_fleet}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(EPISODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episode", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (a set-up time probe)")
    args = parser.parse_args(argv)

    result = EPISODES[args.kind](args)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(result, out)
    if args.trace:
        TRACER.dump(args.out + ".spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
