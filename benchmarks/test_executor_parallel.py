"""Microbenchmark: parallel sweep execution vs sequential.

Times a small Figure-2-shaped sweep at ``jobs=1`` and ``jobs=auto`` and
records the wall-clock ratio.  Correctness (bit-identical results) is
asserted; the speedup itself is *reported, not asserted* — CI machines
may expose a single core, where the ratio is ~1x and pool overhead can
even make it slightly negative.
"""

from repro.bench.executor import RunSpec, default_jobs, execute


def _sweep():
    return [
        RunSpec(
            app=app,
            app_kwargs=kwargs,
            policy=policy,
            nodes=nodes,
            tag=(app, policy, nodes),
        )
        for app, kwargs in (
            ("asp", {"size": 64}),
            ("sor", {"size": 64, "iterations": 6}),
        )
        for policy in ("NM", "AT")
        for nodes in (2, 8)
    ]


def test_parallel_matches_sequential_and_reports_speedup(benchmark):
    import time

    specs = _sweep()
    start = time.perf_counter()
    seq = execute(specs, jobs=1)
    seq_wall = time.perf_counter() - start

    def parallel():
        return execute(specs, jobs=default_jobs())

    # Timed here, not read from benchmark.stats: under
    # --benchmark-disable the fixture runs the call but keeps no stats.
    start = time.perf_counter()
    par = benchmark.pedantic(parallel, rounds=1, iterations=1)
    par_wall = time.perf_counter() - start

    assert [o.deterministic() for o in seq] == [
        o.deterministic() for o in par
    ], "parallel execution changed the results"

    ratio = seq_wall / par_wall if par_wall else float("nan")
    benchmark.extra_info["jobs_auto"] = default_jobs()
    benchmark.extra_info["wall_s_jobs1"] = round(seq_wall, 4)
    benchmark.extra_info["parallel_speedup"] = round(ratio, 3)
    print(
        f"\nexecutor sweep: jobs=1 {seq_wall:.2f}s, "
        f"jobs={default_jobs()} {par_wall:.2f}s, speedup {ratio:.2f}x"
    )
