"""Build ``expected.json``: every verdict the benchmark checks, from an
independent oracle.

The oracle is a second engine, not the configuration the workloads run.
Every verdict here comes from the symbolic backend on the *reference*
BDD kernel: the workloads check single apps and small unions on the
explicit backend, and the 51-app cluster on the default fast kernel.
Wherever the explicit backend fits (up to ``EXPLICIT_LIMIT`` union
states), it is run as well and must agree, or nothing is written.

Fleet households are checked one by one, each sampled (template, skin)
pair as its own environment, without the fleet's canonicalization,
dedup or cache: a screen that merges households with different
verdicts, or drops a violation, disagrees with this file.

Run from the repository root when the corpus, a property or the fleet
profile changes on purpose:

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    EXPECTED_PATH,
    FLEET_HOUSEHOLDS,
    corpus_ids,
    env_label,
    fleet_digest,
    fleet_profile,
    pair_label,
    service_environments,
)

from repro.corpus.loader import load_source  # noqa: E402
from repro.corpus.sweep import groups_sharing_devices  # noqa: E402
from repro.fleet.profiles import TemplatePool, sample_stream  # noqa: E402
from repro.model.extractor import StateExplosionError  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.pipeline.store import ArtifactStore  # noqa: E402

EXPLICIT_LIMIT = 10_000


def oracle_ids(pipeline: Pipeline, sources: list[str], label: str) -> list[str]:
    """Violated ids of one union on the reference kernel, cross-checked
    on the explicit backend when the union fits."""
    ids = sorted(
        pipeline.environment_analysis(
            sources, backend="symbolic", kernel="reference"
        ).violated_ids()
    )
    try:
        explicit = pipeline.environment_analysis(
            sources, backend="explicit", max_union_states=EXPLICIT_LIMIT
        )
    except StateExplosionError:
        return ids
    if sorted(explicit.violated_ids()) != ids:
        raise SystemExit(f"{label}: reference kernel {ids} != explicit "
                         f"{sorted(explicit.violated_ids())}")
    return ids


def main() -> int:
    pipeline = Pipeline(ArtifactStore())
    apps: dict[str, list[str]] = {}
    for app_id in corpus_ids():
        source = load_source(app_id)
        ids = sorted(
            pipeline.app_analysis(
                source, name=app_id, backend="symbolic", kernel="reference"
            ).violated_ids()
        )
        explicit = sorted(
            pipeline.app_analysis(source, name=app_id, backend="explicit")
            .violated_ids()
        )
        if explicit != ids:
            raise SystemExit(f"{app_id}: reference kernel {ids} != explicit {explicit}")
        apps[app_id] = ids

    groups = [tuple(g) for g in groups_sharing_devices("all")]
    groups += service_environments()
    envs: dict[str, list[str]] = {}
    for group in groups:
        label = env_label(group)
        envs[label] = oracle_ids(pipeline, [load_source(a) for a in group], label)
        print(f"{label[:40]:40s} {envs[label]}")

    profile = fleet_profile()
    pool = TemplatePool(profile)
    stream = [(t, v) for _i, t, v in sample_stream(profile, FLEET_HOUSEHOLDS)]
    verdicts: dict[str, list[str]] = {}
    for template, variant in sorted(set(stream)):
        label = pair_label(template, variant)
        verdicts[label] = oracle_ids(
            pipeline, pool.household(template, variant).sources(), f"household {label}"
        )
    rows = [(t, v, verdicts[pair_label(t, v)]) for t, v in stream]
    fleet = {
        "households": len(stream),
        "violating_households": sum(bool(ids) for _t, _v, ids in rows),
        "digest": fleet_digest(rows),
        "verdicts": verdicts,
    }
    print(f"fleet: {len(verdicts)} distinct households, "
          f"{fleet['violating_households']} of {len(stream)} sampled violate")

    with open(EXPECTED_PATH, "w", encoding="utf-8") as out:
        json.dump({"apps": apps, "envs": envs, "fleet": fleet}, out,
                  indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {len(apps)} app, {len(envs)} environment and "
          f"{len(verdicts)} household verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
