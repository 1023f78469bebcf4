"""Ablations beyond the paper's figures.

* **Notification mechanisms** (§3.2): forwarding pointer vs broadcast vs
  home manager under migration churn — the trade-off the paper discusses
  qualitatively but does not measure;
* **Related-work policies**: the paper's AT against JUMP's migrating-home,
  Jackal's lazy flushing and JiaJia's barrier migration;
* **Threshold parameters**: sensitivity of AT to the feedback coefficient
  ``lambda`` and the initial threshold.

Every ablation enumerates picklable :class:`~repro.bench.executor.RunSpec`
configurations and delegates to :func:`~repro.bench.executor.execute`, so
each sweep accepts a ``jobs`` argument and parallelizes across processes
without changing its results.
"""

from __future__ import annotations

from repro.bench.executor import (
    ObsSpec,
    ProgressCallback,
    RunSpec,
    execute,
)
from repro.bench.report import format_table
from repro.cluster.message import MsgCategory
from repro.dsm.redirection import MECHANISMS

NODES = 9

#: §3.2 new-home notification traffic, by message category name.
NOTIFY_CATEGORIES = (
    MsgCategory.HOME_BCAST,
    MsgCategory.HOME_UPDATE,
    MsgCategory.HOME_QUERY,
    MsgCategory.HOME_ANSWER,
)


def run_notification_ablation(
    repetition: int = 8,
    total_updates: int = 512,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """AT under each §3.2 notification mechanism on the synthetic load."""
    specs = [
        RunSpec(
            app="synthetic",
            app_kwargs={
                "total_updates": total_updates, "repetition": repetition,
            },
            policy="AT",
            nodes=NODES,
            mechanism=name,
            verify=verify,
            tag=name,
        )
        for name in MECHANISMS
    ]
    rows: dict[str, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        notify_msgs = sum(
            outcome.msg_count.get(cat.value, 0) for cat in NOTIFY_CATEGORIES
        )
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "messages": outcome.messages,
            "bytes": outcome.bytes_total,
            "redir": outcome.events.get("redir", 0),
            "notify_msgs": notify_msgs,
            "migrations": outcome.migrations,
        }
    return rows


def run_policy_ablation(
    repetition: int = 8,
    total_updates: int = 512,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """All implemented policies (paper + related work) on the synthetic
    workload, plus SOR for the barrier-driven JiaJia protocol."""
    specs = [
        RunSpec(
            app="synthetic",
            app_kwargs={
                "total_updates": total_updates, "repetition": repetition,
            },
            policy=policy,
            nodes=NODES,
            verify=verify,
            tag=policy,
        )
        for policy in ("NM", "FT1", "FT2", "AT", "JUMP", "LF")
    ]
    return _policy_rows(execute(specs, jobs=jobs, obs=obs, progress=progress))


def run_barrier_policy_ablation(
    size: int = 64,
    iterations: int = 6,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """Barrier-driven comparison on SOR: NM / AT / JiaJia / JUMP / LF."""
    specs = [
        RunSpec(
            app="sor",
            app_kwargs={"size": size, "iterations": iterations},
            policy=policy,
            nodes=8,
            verify=verify,
            tag=policy,
        )
        for policy in ("NM", "AT", "JIAJIA", "JUMP", "LF")
    ]
    return _policy_rows(execute(specs, jobs=jobs, obs=obs, progress=progress))


def _policy_rows(outcomes) -> dict:
    rows: dict[str, dict] = {}
    for outcome in outcomes:
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "messages": outcome.messages,
            "migrations": outcome.migrations,
            "redir": outcome.events.get("redir", 0),
        }
    return rows


def run_homeless_ablation(
    repetition: int = 4,
    total_updates: int = 512,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """Home-based (NM / AT) vs homeless (TreadMarks-style) LRC — the §1
    motivation.  Homeless-specific columns: on-demand fetch round trips
    and cumulative diff bytes retained at writers (never GC'd)."""
    app_kwargs = {"total_updates": total_updates, "repetition": repetition}
    specs = [
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="NM",
            nodes=NODES, verify=verify, tag="home-based NM",
        ),
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="AT",
            nodes=NODES, verify=verify, tag="home-based AT",
        ),
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, protocol="homeless",
            nodes=NODES, verify=verify, tag="homeless",
        ),
    ]
    rows: dict[str, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "messages": outcome.messages,
            "bytes": outcome.bytes_total,
            "fetch_rtts": outcome.events.get("homeless_fetch", 0),
            "stored_diff_bytes": outcome.events.get(
                "homeless_diff_bytes", 0
            ),
        }
    return rows


def run_lock_discipline_ablation(
    repetition: int = 2,
    total_updates: int = 512,
    seed: int = 3,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """FIFO vs retry lock grants on the synthetic benchmark.

    The paper's runtime had no FIFO queue: a releasing thread could win
    the lock again, making the consecutive writing times "a multiple of
    r ... randomly".  This measures how that randomness changes the
    Figure-5 picture for FT2 and AT at a transient repetition.
    """
    specs = [
        RunSpec(
            app="synthetic",
            app_kwargs={
                "total_updates": total_updates, "repetition": repetition,
            },
            policy=policy_name,
            nodes=NODES,
            lock_discipline=discipline,
            seed=seed,
            verify=verify,
            tag=f"{policy_name}/{discipline}",
        )
        for policy_name in ("FT2", "AT")
        for discipline in ("fifo", "retry")
    ]
    rows: dict[str, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "migrations": outcome.migrations,
            "redir": outcome.events.get("redir", 0),
        }
    return rows


def run_network_ablation(
    size: int = 64,
    iterations: int = 8,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """AT's benefit across interconnects (Fast Ethernet / GigE / Myrinet).

    The home access coefficient alpha = 3/2 + (o+d)/(2*m_half) follows
    the network's half-peak length, so each interconnect gets its own
    migration eagerness — and the absolute benefit of migration shrinks
    along with all communication, while remaining a win everywhere.
    """
    from repro.cluster.hockney import FAST_ETHERNET, GIGABIT, MYRINET

    models = (FAST_ETHERNET, GIGABIT, MYRINET)
    specs = [
        RunSpec(
            app="sor",
            app_kwargs={"size": size, "iterations": iterations},
            policy=policy_name,
            nodes=8,
            comm_model=model.name,
            verify=verify,
            tag=(model.name, policy_name),
        )
        for model in models
        for policy_name in ("NM", "AT")
    ]
    per_model: dict[str, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        model_name, policy_name = outcome.tag
        per_model.setdefault(model_name, {})[policy_name] = outcome
    rows: dict[str, dict] = {}
    for model in models:
        nm = per_model[model.name]["NM"]
        at = per_model[model.name]["AT"]
        rows[model.name] = {
            "m_half_B": model.half_peak_bytes,
            "nm_time_s": nm.time_s,
            "at_time_s": at.time_s,
            "at_speedup": nm.time_us / at.time_us,
            "migrations": at.migrations,
        }
    return rows


def run_decay_ablation(
    phase_updates: int = 512,
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """Future-work heuristic (§6): feedback decay, on a phase change.

    Workload: a transient phase (r=2) followed by a lasting phase (r=16)
    on the same object.  Finding (a negative result, kept honestly): the
    paper's cumulative feedback already re-sensitizes quickly — the
    positive feedback E grows within a single lasting turn — so decaying
    the memory only erodes transient-phase robustness.
    """
    schedule = [(phase_updates, 2), (phase_updates, 16)]
    app_kwargs = {"schedule": schedule}
    specs = [
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="FT1",
            nodes=NODES, verify=verify, tag="FT1",
        ),
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="AT",
            nodes=NODES, verify=verify, tag="AT",
        ),
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="ATD",
            policy_params={"gamma": 0.9},
            nodes=NODES, verify=verify, tag="ATD g=0.9",
        ),
        RunSpec(
            app="synthetic", app_kwargs=app_kwargs, policy="ATD",
            policy_params={"gamma": 0.5},
            nodes=NODES, verify=verify, tag="ATD g=0.5",
        ),
    ]
    rows: dict[str, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "migrations": outcome.migrations,
            "redir": outcome.events.get("redir", 0),
        }
    return rows


def run_lambda_ablation(
    repetition: int = 4,
    total_updates: int = 512,
    lambdas: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    verify: bool = True,
    jobs: int | None = 1,
    obs: ObsSpec | None = None,
    progress: ProgressCallback | None = None,
) -> dict:
    """Sensitivity of AT to the feedback coefficient ``lambda`` (§4.2
    fixes it at 1; this measures how much that choice matters)."""
    specs = [
        RunSpec(
            app="synthetic",
            app_kwargs={
                "total_updates": total_updates, "repetition": repetition,
            },
            policy="AT",
            policy_params={"lam": lam},
            nodes=NODES,
            verify=verify,
            tag=lam,
        )
        for lam in lambdas
    ]
    rows: dict[float, dict] = {}
    for outcome in execute(specs, jobs=jobs, obs=obs, progress=progress):
        rows[outcome.tag] = {
            "time_s": outcome.time_s,
            "migrations": outcome.migrations,
            "redir": outcome.events.get("redir", 0),
        }
    return rows


def render_ablation(rows: dict, title: str) -> str:
    """Generic ASCII table for the ablation dicts above."""
    if not rows:
        raise ValueError("no ablation rows to render")
    first = next(iter(rows.values()))
    headers = ["variant"] + list(first)
    table_rows = [[str(k)] + [v[c] for c in first] for k, v in rows.items()]
    return format_table(headers, table_rows, title=title)
