"""Properties of the serving-traffic generator (PROTOCOL.md §16).

The serving tier's value rests on three deterministic claims:

* the **Zipf sampler** is exact — the measure of uniform draws mapped
  to rank ``r`` equals the analytic Zipf weight, for every skew the
  workload exercises (s ∈ {0.6, 0.99, 1.2});
* **expansion is a pure function of the spec** — equal
  :class:`~repro.apps.serving.ServingSpec`\\ s compile to byte-identical
  ProgramSpec JSON, on either backend (generation never touches the
  simulator, so ``REPRO_BACKEND`` cannot leak in);
* **hot-set shifts and churn windows are exact at barriers** — phase
  ``p``'s ranking is phase 0's rotated by ``p * shift`` and the quiet
  window is the closed-form rotation, so SLO deltas across phases are
  attributable to the traffic, never to generator noise.

All generators are derandomized so CI failures replay exactly.
"""

import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.serving import (
    REQUEST_CLASSES,
    ServingSpec,
    ZipfSampler,
    build_serving_program,
    generate_serving_program,
    hot_key,
    phase_hot_keys,
    quiet_nodes,
    zipf_weights,
)
from repro.bench import serving as serving_bench
from repro.check.fuzz import ProgramSpec, generate_program

#: The skews the serving workloads actually draw from.
SKEWS = (0.6, 0.99, 1.2)


# ---------------------------------------------------------------- Zipf

@pytest.mark.parametrize("s", SKEWS)
def test_zipf_weights_analytic(s):
    """weights[r] == (r+1)^-s / H(n, s), normalized to exactly ~1."""
    n = 32
    weights = zipf_weights(n, s)
    harmonic = math.fsum((r + 1) ** -s for r in range(n))
    for rank, w in enumerate(weights):
        assert w == pytest.approx((rank + 1) ** -s / harmonic, rel=1e-12)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    # monotone: rank 0 is the hottest
    assert all(weights[r] >= weights[r + 1] for r in range(n - 1))


@pytest.mark.parametrize("s", SKEWS)
def test_zipf_inverse_cdf_boundaries_exact(s):
    """The measure of u mapped to rank r is exactly weights[r].

    rank_of is bisect over the cumulative weights, so the half-open
    interval [cdf[r-1], cdf[r]) maps to rank r: checking both endpoints
    of every interval proves the sampler exact up to RNG uniformity.
    """
    sampler = ZipfSampler(17, s)
    lo = 0.0
    for rank in range(sampler.nkeys):
        hi = sampler.cdf[rank]
        assert sampler.rank_of(lo) == rank
        below = math.nextafter(hi, 0.0)
        if below > lo:  # interval wide enough to probe from inside
            assert sampler.rank_of(below) == rank
        assert hi - lo == pytest.approx(sampler.weights[rank], abs=1e-12)
        lo = hi
    assert sampler.cdf[-1] == 1.0
    with pytest.raises(ValueError):
        sampler.rank_of(1.0)
    with pytest.raises(ValueError):
        sampler.rank_of(-0.1)


@pytest.mark.parametrize("s", SKEWS)
def test_zipf_empirical_matches_analytic_cdf(s):
    """20k seeded draws track the analytic CDF within a KS-style band."""
    n = 24
    draws = 20_000
    sampler = ZipfSampler(n, s)
    rng = random.Random(12345)
    counts = [0] * n
    for _ in range(draws):
        counts[sampler.sample(rng)] += 1
    acc = 0
    for rank in range(n):
        acc += counts[rank]
        expected = sampler.cdf[rank]
        # three-sigma binomial envelope around the analytic CDF
        sigma = math.sqrt(expected * (1 - expected) / draws)
        assert abs(acc / draws - expected) <= 3.5 * sigma + 1e-9


@settings(derandomize=True, max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=64),
    s=st.sampled_from(SKEWS),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_property_rank_of_total_and_in_range(n, s, u):
    """Every u in [0,1) maps to exactly one valid rank."""
    sampler = ZipfSampler(n, s)
    rank = sampler.rank_of(u)
    assert 0 <= rank < n


# ------------------------------------------------- deterministic expansion

def test_equal_specs_compile_byte_identical():
    """Two expansions of one spec produce byte-identical JSON."""
    spec = ServingSpec(seed=7, nodes=4, keys=12, phases=2, churn=0.25)
    first = build_serving_program(spec).to_json()
    second = build_serving_program(spec).to_json()
    assert first == second


def test_different_seeds_differ():
    """The seed actually reaches the traffic draws."""
    a = build_serving_program(ServingSpec(seed=0, nodes=3, keys=6))
    b = build_serving_program(ServingSpec(seed=1, nodes=3, keys=6))
    assert a.to_json() != b.to_json()


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_generation_identical_across_backends(backend):
    """Spec expansion is backend-independent, byte for byte.

    A subprocess pins ``REPRO_BACKEND`` and prints the JSON's sha256;
    both backends must print the hash computed in-process here.
    """
    import hashlib

    spec = ServingSpec(seed=3, nodes=4, keys=10, phases=2, churn=0.25)
    expected = hashlib.sha256(
        build_serving_program(spec).to_json().encode()
    ).hexdigest()
    code = (
        "import hashlib\n"
        "from repro.apps.serving import ServingSpec, build_serving_program\n"
        "spec = ServingSpec(seed=3, nodes=4, keys=10, phases=2, churn=0.25)\n"
        "text = build_serving_program(spec).to_json()\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    env = dict(os.environ, REPRO_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == expected


def test_request_field_round_trips():
    """SectionSpec.request survives to_dict/from_dict — replayable SLO."""
    spec = build_serving_program(ServingSpec(seed=2, nodes=3, keys=6))
    clone = ProgramSpec.from_dict(spec.to_dict())
    assert clone.to_json() == spec.to_json()
    classes = {
        s.request
        for phase in clone.phases
        for sections in phase
        for s in sections
        if s.request is not None
    }
    assert classes <= set(REQUEST_CLASSES)
    assert classes  # a serving episode always labels its requests


def test_fuzzer_serving_flavor_routes_to_generator():
    """generate_program(flavor='serving') is generate_serving_program."""
    for seed in (0, 5, 11):
        via_flavor = generate_program(seed, flavor="serving")
        direct = generate_serving_program(seed)
        assert via_flavor.to_json() == direct.to_json()
    # mixed: every 4th seed serves, others run the core fuzzer
    assert (
        generate_program(3, flavor="mixed").to_json()
        == generate_serving_program(3).to_json()
    )
    assert (
        generate_program(4, flavor="mixed").to_json()
        == generate_program(4, flavor="core").to_json()
    )


def test_open_loop_one_section_per_request():
    """Each request is one section carrying its arrival gap as
    ``think_us``; no zero-op section is emitted."""
    sspec = ServingSpec(seed=0, nodes=3, keys=6, arrival="open")
    spec = build_serving_program(sspec)
    sections = [
        s for phase in spec.phases for per_tid in phase for s in per_tid
    ]
    assert len(sections) == (
        sspec.nthreads * sspec.requests_per_thread * sspec.phases
    )
    for s in sections:
        assert s.request in REQUEST_CLASSES
        assert s.ops
        assert s.compute_us == 0.0
        # exponential gaps are positive with probability one
        assert s.think_us > 0.0


class _RecordingCollector(serving_bench._RequestCollector):
    """The serving collector, also keeping every request span's
    (epoch, tid) -> [open, close] times."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: dict[tuple[int, int], list[list[float]]] = {}

    def span_completed(
        self, op, op_kind, open_us, close_us, oid, node, parent, detail
    ):
        super().span_completed(
            op, op_kind, open_us, close_us, oid, node, parent, detail
        )
        key = (detail["epoch"], detail["tid"])
        self.spans.setdefault(key, []).append([open_us, close_us])


def test_think_time_precedes_request_spans(monkeypatch):
    """Within a phase, each thread's request span opens exactly
    ``think_us`` after its previous request span closed: think time
    never lands inside a measured request."""
    sspec = ServingSpec(seed=0, nodes=3, keys=6, arrival="open")
    spec = build_serving_program(sspec)
    collectors = []

    def recording():
        collectors.append(_RecordingCollector())
        return collectors[-1]

    monkeypatch.setattr(serving_bench, "_RequestCollector", recording)
    report = serving_bench.run_serving(sspec)
    (collector,) = collectors
    checked = 0
    for epoch, phase in enumerate(spec.phases):
        for tid, sections in enumerate(phase):
            spans = collector.spans.get((epoch, tid), [])
            assert len(spans) == len(sections)
            for prev, (open_us, close_us), section in zip(
                spans, spans[1:], sections[1:]
            ):
                assert close_us >= open_us
                assert open_us == prev[1] + section.think_us
                checked += 1
    assert checked > 0
    assert report["requests"] == sum(
        len(sections) for phase in spec.phases for sections in phase
    )


def test_bad_spec_rejected():
    """Arrival mode and churn are rejected where the spec is built, and
    Zipf weights need at least one key."""
    with pytest.raises(ValueError, match="arrival must be"):
        ServingSpec(arrival="bursty")
    with pytest.raises(ValueError, match="churn must be"):
        ServingSpec(churn=1.0)
    with pytest.raises(ValueError):
        zipf_weights(0, 0.99)


# -------------------------------------------------- hot sets and churn

@settings(derandomize=True, max_examples=40)
@given(
    nkeys=st.integers(min_value=1, max_value=64),
    shift=st.integers(min_value=1, max_value=16),
    phase=st.integers(min_value=0, max_value=8),
)
def test_property_hot_set_shift_exact_at_barriers(nkeys, shift, phase):
    """Phase p+1's ranking is phase p's rotated by exactly shift keys."""
    now = phase_hot_keys(nkeys, phase, shift)
    nxt = phase_hot_keys(nkeys, phase + 1, shift)
    assert nxt == [(k + shift) % nkeys for k in now]
    # ranking is a permutation of the key space
    assert sorted(now) == list(range(nkeys))
    # and phase p is phase 0 rotated p times
    assert now == [
        (k + phase * shift) % nkeys for k in phase_hot_keys(nkeys, 0, shift)
    ]


def test_hot_key_phase_zero_is_identity():
    """In phase 0, rank r lives on key r."""
    for rank in range(10):
        assert hot_key(rank, 0, 3, 10) == rank


@settings(derandomize=True, max_examples=40)
@given(
    nnodes=st.integers(min_value=1, max_value=64),
    phase=st.integers(min_value=0, max_value=8),
    churn=st.floats(min_value=0.0, max_value=0.99),
)
def test_property_churn_window_deterministic(nnodes, phase, churn):
    """Quiet windows are closed-form: right size, valid ids, never all."""
    quiet = quiet_nodes(nnodes, phase, churn)
    expected = min(int(churn * nnodes), nnodes - 1)
    assert len(quiet) == max(0, expected)
    assert all(0 <= n < nnodes for n in quiet)
    assert len(quiet) < nnodes  # at least one node keeps serving
    assert quiet == quiet_nodes(nnodes, phase, churn)  # pure


def test_churn_window_rotates():
    """Consecutive phases silence different (rotating) windows."""
    assert quiet_nodes(8, 0, 0.25) == {0, 1}
    assert quiet_nodes(8, 1, 0.25) == {2, 3}
    assert quiet_nodes(8, 4, 0.25) == {0, 1}  # wraps around


def test_churned_phase_routes_around_quiet_workers():
    """No request section lands on a thread placed on a quiet node."""
    spec = ServingSpec(seed=5, nodes=4, keys=8, phases=3, churn=0.25)
    program = build_serving_program(spec)
    for phase_no, phase in enumerate(program.phases):
        quiet = quiet_nodes(spec.nodes, phase_no, spec.churn)
        for tid, sections in enumerate(phase):
            if program.placement[tid] in quiet:
                assert sections == []


def test_generate_serving_program_deterministic():
    """The fuzz flavor is a pure function of its seed."""
    for seed in (0, 1, 2, 3):
        assert (
            generate_serving_program(seed).to_json()
            == generate_serving_program(seed).to_json()
        )
