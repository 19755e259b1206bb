"""Integration: combiner fusion and the warm pool's run-scoped memo.

Combiner fusion makes each IPL pipeline (``players_pipeline |
players_count`` and its siblings) one plan node whose partitions run
prelude + partial aggregate in one pool unit.  These tests pin that the
rewrite changes no output — on both bundled workloads, on both engines,
at parallelism 1 and 2, with the combiner on and off — that the IPL
flow now dispatches every stage to the warm pool, and that the memo a
worker keeps across a run's units never leaks into the next run.
"""

import pytest

from repro import Platform
from repro.dsl import parse_flow_file
from repro.engine import DistributedExecutor, LocalExecutor
from repro.engine.scheduler import ProcessPool, fork_available
from repro.formats import JsonFormat
from repro.workloads import APACHE_FLOW, IPL_PROCESSING_FLOW, apache, ipl

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="requires os.fork"
)


def _ipl_dashboard(
    optimize=True, dictionaries=None, name="ipl", platform=None
):
    platform = platform or Platform(optimize=optimize)
    schema = parse_flow_file(IPL_PROCESSING_FLOW).data["ipltweets"].schema
    tweets = JsonFormat().decode(ipl.tweets_json(count=200, seed=7), schema)
    return platform.create_dashboard(
        name,
        IPL_PROCESSING_FLOW,
        inline_tables={
            "ipltweets": tweets,
            "dim_teams": ipl.dim_teams_table(),
            "team_players": ipl.team_players_table(),
            "lat_long": ipl.lat_long_table(),
        },
        dictionaries=dictionaries or ipl.dictionaries(),
    )


def _apache_dashboard(optimize=True):
    return Platform(optimize=optimize).create_dashboard(
        "apache", APACHE_FLOW, inline_tables=apache.all_tables()
    )


def _multisets(tables):
    return {
        name: sorted(map(repr, table.to_records()))
        for name, table in tables.items()
    }


def _local(dashboard):
    return _multisets(
        LocalExecutor(dashboard._resolve_source)
        .run(dashboard.compiled.plan, dashboard._task_context())
        .tables
    )


def _distributed(dashboard, pool, parallelism, use_combiner=True):
    return _multisets(
        DistributedExecutor(
            dashboard._resolve_source,
            num_partitions=4,
            use_combiner=use_combiner,
            parallelism=parallelism,
            executor="processes",
            pool=pool,
        )
        .run(dashboard.compiled.plan, dashboard._task_context())
        .tables
    )


@pytest.mark.parametrize(
    "make", [_ipl_dashboard, _apache_dashboard], ids=["ipl", "apache"]
)
def test_fused_plans_match_unoptimized_plans(make):
    fused, plain = make(), make(optimize=False)
    assert fused.compiled.optimization.combiners_fused > 0
    assert _local(fused) == _local(plain)
    with ProcessPool(workers=2) as pool:
        for parallelism in (1, 2):
            for use_combiner in (True, False):
                key = (parallelism, use_combiner)
                assert _distributed(
                    fused, pool, parallelism, use_combiner
                ) == _distributed(
                    plain, pool, parallelism, use_combiner
                ), key


def test_ipl_on_a_warm_pool_never_falls_back_to_cold_fork():
    platform = Platform()
    _ipl_dashboard(platform=platform)
    platform.warm_pool(workers=2)
    try:
        platform.run_dashboard(
            "ipl",
            engine="distributed",
            executor="processes",
            parallelism=2,
            pool="auto",
        )
    finally:
        platform.close_pool()
    metrics = platform.observability.metrics
    hits = metrics.get("repro_pool_warm_hits_total")
    assert hits is not None and sum(v for _l, v in hits.series()) > 0
    fallbacks = metrics.get("repro_pool_dispatch_fallbacks_total")
    assert fallbacks is None or sum(
        v for _l, v in fallbacks.series()
    ) == 0


def test_worker_memo_does_not_leak_across_runs():
    # The same flow (so the same extract_players fingerprint, the memo
    # key) with a different players dictionary: a memo surviving from
    # the first run would hand the second run the first run's names.
    shouted = {
        surface: canonical.upper()
        for surface, canonical in ipl.players_dictionary().items()
    }
    first = _ipl_dashboard(name="first")
    second = _ipl_dashboard(
        name="second",
        dictionaries={**ipl.dictionaries(), "players.txt": shouted},
    )
    expected = [_local(first), _local(second)]
    assert expected[0]["players_tweets"] != expected[1]["players_tweets"]
    with ProcessPool(workers=2) as pool:
        for dashboard, want in zip((first, second, first), expected * 2):
            got = _distributed(dashboard, pool, 2)
            assert got["players_tweets"] == want["players_tweets"]
            assert got["player_tweets"] == want["player_tweets"]
