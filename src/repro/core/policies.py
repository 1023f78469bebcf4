"""Home migration policies.

Every policy answers one question at the home, on each arriving object
request: *should the home move to the requester now?*  The decision sees
the per-object :class:`~repro.core.state.ObjectAccessState` and the
object's home access coefficient ``alpha``.

Implemented policies:

=====================  =====================================================
:class:`NoMigration`    the paper's NoHM / NM baseline
:class:`FixedThreshold` the authors' previous protocol [7] (FT1, FT2, ...)
:class:`AdaptiveThreshold`  **the paper's contribution** (AT)
:class:`MigratingHome`  JUMP [6]: requester (with write intent) becomes home
:class:`LazyFlushing`   Jackal [15]: exclusive-owner transfer, max 5 moves
:class:`BarrierMigration`  JiaJia [9]: per-barrier single-writer detection
=====================  =====================================================

Policies are stateless and shareable across objects and runs; all mutable
numbers live in :class:`~repro.core.state.ObjectAccessState`.

:data:`POLICIES` is the one name vocabulary for them (report names such
as ``"FT1"`` and ``"AT"``); :func:`make_policy` resolves a name and its
parameters, for every entry point from ``run_once`` to the fuzzer.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Callable

from repro.core.state import ObjectAccessState
from repro.core.threshold import LAMBDA, T_INIT, adaptive_threshold


class MigrationPolicy(ABC):
    """Decision interface consulted by the home side of the DSM engine."""

    #: Short name used in reports ("NM", "FT1", "AT", ...).
    name: str = "policy"

    @abstractmethod
    def should_migrate(
        self,
        state: ObjectAccessState,
        requester: int,
        alpha: float,
        for_write: bool,
    ) -> bool:
        """Decide migration for an object request from ``requester``.

        ``for_write`` carries the requester's access intent (used only by
        the related-work baselines; the paper's protocols infer the writer
        from the diff stream instead).
        """

    def on_migrated(self, state: ObjectAccessState, alpha: float) -> None:
        """Close the feedback epoch after a migration decision fired."""
        state.reset_after_migration(state.threshold_base)

    def current_threshold(
        self, state: ObjectAccessState, alpha: float
    ) -> float | None:
        """The threshold this policy is applying, if it has one."""
        return None

    def initial_base(self) -> float:
        """``T_0``: the threshold base a fresh object monitor starts from.

        The paper sets ``T_0 = T_init`` (§4.2); policies with a floor
        above 1 must start new objects at that floor, or the update rule
        would be evaluated with a base below it.
        """
        return 1.0

    def wants_barrier_migration(self) -> bool:
        """Whether the barrier manager should run this policy at barriers."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class NoMigration(MigrationPolicy):
    """Never migrate (the paper's NoHM / NM baseline)."""

    name = "NM"

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        return False


class FixedThreshold(MigrationPolicy):
    """The authors' previous protocol [7]: migrate once the number of
    consecutive remote writes from one node reaches a fixed threshold and
    that node requests the object again.  ``FixedThreshold(1)`` and
    ``FixedThreshold(2)`` are the paper's FT1 and FT2."""

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError(f"fixed threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.name = f"FT{threshold}"

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        return (
            state.consecutive_writer == requester
            and state.consecutive_writes >= self.threshold
        )

    def current_threshold(self, state, alpha) -> float:
        return float(self.threshold)


class AdaptiveThreshold(MigrationPolicy):
    """The paper's adaptive home migration protocol (§4).

    The per-object threshold ``T_i = max(T_{i-1} + lam*(R_i - alpha*E_i),
    T_init)`` is evaluated lazily from the feedback counters each time the
    condition is checked ("continuously adjusted"); when a migration fires,
    the evaluated threshold is frozen as the next epoch's base and the
    feedback counters reset.
    """

    name = "AT"

    def __init__(
        self,
        lam: float = LAMBDA,
        t_init: float = T_INIT,
        fixed_alpha: float | None = None,
    ):
        if t_init < 1:
            raise ValueError(f"t_init must be >= 1, got {t_init}")
        if fixed_alpha is not None and fixed_alpha <= 0:
            raise ValueError(f"fixed_alpha must be positive, got {fixed_alpha}")
        self.lam = lam
        self.t_init = t_init
        #: Ablation hook: override the Hockney-derived per-object alpha
        #: with a constant (None = use the paper's coefficient).
        self.fixed_alpha = fixed_alpha

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        if state.consecutive_writer != requester:
            return False
        return state.consecutive_writes >= self.current_threshold(state, alpha)

    def initial_base(self) -> float:
        """Fresh monitors start at this policy's floor (``T_0 = T_init``)."""
        return self.t_init

    def current_threshold(self, state, alpha) -> float:
        if self.fixed_alpha is not None:
            alpha = self.fixed_alpha
        return adaptive_threshold(
            base=state.threshold_base,
            redirections=state.redirections,
            exclusive_home_writes=state.exclusive_home_writes,
            alpha=alpha,
            lam=self.lam,
            t_init=self.t_init,
        )

    def on_migrated(self, state, alpha) -> None:
        frozen = self.current_threshold(state, alpha)
        state.reset_after_migration(frozen)


class AdaptiveThresholdDecay(AdaptiveThreshold):
    """Future-work heuristic (paper §6): adaptive threshold with feedback
    decay.

    The paper's protocol accumulates ``R`` and ``E`` forever within an
    epoch, so a burst of redirections long ago can keep the threshold
    high after the workload has changed.  This variant exponentially
    decays both feedback counters at every migration decision, making the
    threshold track the *recent* access pattern: after a phase change the
    stale feedback fades within ``~1/(1-gamma)`` decisions instead of
    persisting until the next migration.

    With ``gamma = 1`` it degenerates to the paper's protocol exactly.
    """

    name = "ATD"

    def __init__(
        self,
        gamma: float = 0.9,
        lam: float = LAMBDA,
        t_init: float = T_INIT,
    ):
        super().__init__(lam=lam, t_init=t_init)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.gamma = gamma
        #: Fractional carry of the decayed counters per object (the
        #: integer parts live in ObjectAccessState).
        self._fractions: dict[int, tuple[float, float]] = {}

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        self._decay(state)
        return super().should_migrate(state, requester, alpha, for_write)

    def _decay(self, state: ObjectAccessState) -> None:
        if self.gamma >= 1.0:
            return
        frac_r, frac_e = self._fractions.get(state.oid, (0.0, 0.0))
        exact_r = (state.redirections + frac_r) * self.gamma
        exact_e = (state.exclusive_home_writes + frac_e) * self.gamma
        state.redirections = int(exact_r)
        state.exclusive_home_writes = int(exact_e)
        self._fractions[state.oid] = (
            exact_r - state.redirections,
            exact_e - state.exclusive_home_writes,
        )

    def on_migrated(self, state, alpha) -> None:
        self._fractions.pop(state.oid, None)
        super().on_migrated(state, alpha)


class MigratingHome(MigrationPolicy):
    """JUMP's migrating-home protocol [6]: any node requesting the unit for
    write becomes the new home, ignoring access history.  The paper cites
    its pathology — sequential writers cause home thrashing."""

    name = "JUMP"

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        return for_write


class LazyFlushing(MigrationPolicy):
    """Jackal's lazy flushing [15], approximated at object granularity.

    The home moves to a writer that appears to be the *sole* sharer
    (no other node fetched a copy since the last ownership change), with
    the total number of ownership transitions bounded — Jackal caps it at
    five.  The copyset is the home's approximation (nodes seen requesting
    since the last migration, summarised as ``state.sharer``), which
    matches Jackal's "not shared by any other node" test at the fidelity
    our simulator observes.
    """

    name = "LF"

    def __init__(self, max_transitions: int = 5):
        if max_transitions < 1:
            raise ValueError(
                f"max_transitions must be >= 1, got {max_transitions}"
            )
        self.max_transitions = max_transitions

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        if not for_write or state.transitions >= self.max_transitions:
            return False
        sharer = state.sharer
        return sharer is None or sharer == requester


class BarrierMigration(MigrationPolicy):
    """JiaJia's barrier-time home migration [9].

    Never migrates on object requests; instead, at each barrier the barrier
    manager migrates every object written by exactly one (remote) process
    between the two barriers to that writer, piggybacking the new home
    locations on the barrier release messages (so no redirection traffic).
    """

    name = "JIAJIA"

    def should_migrate(self, state, requester, alpha, for_write) -> bool:
        return False

    def wants_barrier_migration(self) -> bool:
        return True


#: Policy factories by report name; :func:`make_policy` passes its
#: keyword parameters through (``FT`` needs ``threshold=``).
POLICIES: dict[str, Callable[..., MigrationPolicy]] = {
    "NM": NoMigration,
    "FT": FixedThreshold,
    "FT1": partial(FixedThreshold, 1),
    "FT2": partial(FixedThreshold, 2),
    "AT": AdaptiveThreshold,
    "ATD": AdaptiveThresholdDecay,
    "JUMP": MigratingHome,
    "LF": LazyFlushing,
    "JIAJIA": BarrierMigration,
}


def make_policy(name: str, **params) -> MigrationPolicy:
    """Instantiate a policy by report name; a bad name or parameter is
    one ``ValueError`` line."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {name!r}: {exc}") from None
