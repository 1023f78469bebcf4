"""One cluster description, checked once, built in one place.

:class:`~repro.gos.jvm.ClusterSpec` holds every cluster setting and
refuses a bad one at construction with one ``ValueError`` line.  Each
spec that carries cluster settings (``RunSpec``, ``ServingSpec``,
``ProgramSpec``) derives its ``ClusterSpec`` in one place, and the
entry points hand that spec to :class:`~repro.gos.jvm.DistributedJVM`
whole.  :data:`BAD_CLUSTERS` is the one table of malformed settings:
each case is refused by ``RunSpec``, by the ``DistributedJVM`` keyword
form and (in ``tests/test_serving.py``) by ``ServingSpec``, wherever the
spec has the fields.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bench.executor import RunSpec
from repro.core.policies import AdaptiveThreshold
from repro.gos import homeless
from repro.gos.jvm import ClusterSpec, DistributedJVM

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Malformed cluster settings -> (settings, the whole one-line rejection).
BAD_CLUSTERS = {
    "no nodes": ({"nodes": 0}, "need at least one node, got 0"),
    "unknown comm model": (
        {"comm_model": "token-ring"},
        "unknown comm model 'token-ring'; choose from ['fast-ethernet', "
        "'gigabit', 'myrinet']",
    ),
    "unknown protocol": (
        {"protocol": "bogus"},
        "protocol must be 'home-based' or 'homeless', got 'bogus'",
    ),
    "homeless with retry locks": (
        {"protocol": "homeless", "lock_discipline": "retry"},
        homeless.RETRY_UNSUPPORTED,
    ),
    "homeless with an unknown policy": (
        {"protocol": "homeless", "policy": "bogus"},
        "unknown policy 'bogus'; choose from ['AT', 'ATD', 'FT', 'FT1', "
        "'FT2', 'JIAJIA', 'JUMP', 'LF', 'NM']",
    ),
    "unknown policy": (
        {"policy": "bogus"},
        "unknown policy 'bogus'; choose from ['AT', 'ATD', 'FT', 'FT1', "
        "'FT2', 'JIAJIA', 'JUMP', 'LF', 'NM']",
    ),
    "FT without threshold": (
        {"policy": "FT"},
        "bad parameters for policy 'FT': FixedThreshold.__init__() "
        "missing 1 required positional argument: 'threshold'",
    ),
    "parameter the policy rejects": (
        {"policy": "NM", "policy_params": {"lam": 0.5}},
        "bad parameters for policy 'NM': NoMigration() takes no arguments",
    ),
    "parameters beside a policy instance": (
        {"policy": AdaptiveThreshold(), "policy_params": {"lam": 0.5}},
        "policy_params need a policy name, not an instance",
    ),
    "unknown mechanism": (
        {"mechanism": "gossip"},
        "unknown mechanism 'gossip'; choose from ['broadcast', "
        "'forwarding-pointer', 'home-manager']",
    ),
    "manager outside the cluster": (
        {"nodes": 4, "mechanism": "home-manager:manager=9"},
        "manager node 9 outside the 4-node cluster",
    ),
    "unknown topology": (
        {"topology": "bogus"},
        "unknown topology kind 'bogus'; choose from ['fat-tree', 'flat', "
        "'hier']",
    ),
    "fat-tree with empty edge switches": (
        {"topology": "fat-tree:edge=0"}, "edge_size must be >= 1, got 0"
    ),
    "release_fanout of one": (
        {"release_fanout": 1}, "release_fanout must be >= 2, got 1"
    ),
    "unknown lock discipline": (
        {"lock_discipline": "nope"},
        "lock_discipline must be 'fifo' or 'retry', got 'nope'",
    ),
}


def cases_for(spec_class) -> list[str]:
    """The :data:`BAD_CLUSTERS` cases whose settings ``spec_class`` has."""
    names = {f.name for f in fields(spec_class)}
    return sorted(
        case for case, (settings, _) in BAD_CLUSTERS.items()
        if set(settings) <= names
    )


@pytest.mark.parametrize("case", sorted(BAD_CLUSTERS))
def test_run_spec_refuses_bad_cluster(case, backend):
    """Refused where the spec is written, not inside ``run_spec``."""
    settings, message = BAD_CLUSTERS[case]
    with pytest.raises(ValueError) as err:
        RunSpec(app="sor", **settings)
    assert str(err.value) == message


@pytest.mark.parametrize("case", sorted(BAD_CLUSTERS))
def test_jvm_keyword_form_refuses_bad_cluster(case, backend):
    settings, message = BAD_CLUSTERS[case]
    with pytest.raises(ValueError) as err:
        DistributedJVM(**{"nodes": 4, **settings})
    assert str(err.value) == message


def test_jvm_takes_a_spec_or_its_settings_not_both():
    with pytest.raises(TypeError):
        DistributedJVM(ClusterSpec(nodes=2), nodes=4)


# -- guard: one construction path ---------------------------------------------

#: Where a ``DistributedJVM`` may be built inside ``src/``: each entry
#: point once (``_serve`` is ``run_serving``'s body).
CONSTRUCTION_SITES = {
    "bench/executor.py": "run_spec",
    "bench/serving.py": "_serve",
    "check/runner.py": "run_episode",
    "bench/runner.py": "run_once",
}

#: Name resolvers -> their home module; ``ClusterSpec`` is the one caller
#: outside it.
RESOLVERS = {
    "make_policy": "core/policies.py",
    "make_mechanism": "dsm/redirection.py",
    "make_comm_model": "cluster/hockney.py",
}


def _calls(tree: ast.AST):
    """Yield ``(call, called name, enclosing def/class names)``."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                yield child, name, inner
            yield from walk(child, inner)

    yield from walk(tree, ())


def _src_calls(name: str):
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for call, called, scope in _calls(ast.parse(path.read_text())):
            if called == name:
                yield rel, call, scope


def test_jvm_built_from_one_cluster_spec_per_entry_point():
    sites = {}
    for rel, call, scope in _src_calls("DistributedJVM"):
        where = f"{rel}:{call.lineno}"
        assert len(call.args) == 1 and not any(
            isinstance(a, ast.Starred) for a in call.args
        ), f"{where}: pass one ClusterSpec"
        keywords = {k.arg for k in call.keywords}
        assert keywords <= {"tracer", "metrics", "logger"}, (
            f"{where}: only observers beside the ClusterSpec, got {keywords}"
        )
        assert scope and CONSTRUCTION_SITES.get(rel) == scope[-1], (
            f"{where}: {scope} is not a construction site"
        )
        sites[rel] = sites.get(rel, 0) + 1
    assert sites == dict.fromkeys(CONSTRUCTION_SITES, 1)


@pytest.mark.parametrize("resolver", sorted(RESOLVERS))
def test_names_resolve_only_at_home_and_in_cluster_spec(resolver):
    outside = [
        f"{rel}:{call.lineno}"
        for rel, call, scope in _src_calls(resolver)
        if rel != RESOLVERS[resolver]
        and not (rel == "gos/jvm.py" and scope[:1] == ("ClusterSpec",))
    ]
    assert outside == []
