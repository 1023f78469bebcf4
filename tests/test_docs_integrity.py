"""Documentation integrity: referenced files and targets must exist."""

import fnmatch
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def _doc(name):
    return (ROOT / name).read_text(encoding="utf-8")


def test_required_documents_exist():
    for name in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "LICENSE",
        "docs/PROTOCOL.md",
        "docs/API.md",
        "docs/PAPER.md",
        "results/bench_quick.txt",
    ):
        assert (ROOT / name).exists(), f"{name} missing"


def test_design_experiment_targets_exist():
    text = _doc("DESIGN.md")
    for match in re.findall(r"`(benchmarks/[\w./]+\.py)`", text):
        assert (ROOT / match).exists(), f"DESIGN.md references {match}"


def test_experiments_bench_targets_exist():
    text = _doc("EXPERIMENTS.md")
    for match in re.findall(r"`(benchmarks/[\w./]+\.py)`", text):
        assert (ROOT / match).exists(), f"EXPERIMENTS.md references {match}"


def test_readme_example_references_exist():
    text = _doc("README.md")
    for match in re.findall(r"`(examples/[\w./]+\.py)`", text):
        assert (ROOT / match).exists(), f"README references {match}"


def _resolves(reference: str) -> bool:
    """``repro.a.b.C.d`` names an importable module followed by
    attributes that exist."""
    import importlib

    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _unresolved(name: str) -> list[str]:
    references = set(re.findall(r"`(repro\.[\w.]+)`", _doc(name)))
    return sorted(ref for ref in references if not _resolves(ref.rstrip(".")))


def test_readme_module_references_import():
    assert not _unresolved("README.md"), "README references missing code"


def test_design_api_and_protocol_references_resolve():
    """Every backticked ``repro.*`` name in DESIGN.md, docs/API.md and
    docs/PROTOCOL.md is a module or attribute that exists."""
    missing = {
        name: _unresolved(name)
        for name in ("DESIGN.md", "docs/API.md", "docs/PROTOCOL.md")
    }
    assert not any(missing.values()), missing


#: Where a code name a document cites must occur: the source, tests,
#: scripts, benchmarks and examples (their Python, C and JSON files).
_CODE_DIRS = ("src", "tests", "scripts", "benchmarks", "examples")


def _code_words() -> set[str]:
    words: set[str] = set()
    for top in _CODE_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.suffix in (".py", ".c", ".json") and path.is_file():
                words.update(re.findall(r"\w+", str(path.relative_to(ROOT))))
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


#: A CamelCase identifier: a lower-case letter or digit followed by an
#: upper-case one, as in ``TraceRecorder`` or ``ObjRequest`` (all-caps
#: words such as ``HLRC`` or ``FIFO`` are prose, not code names).
_CAMEL = re.compile(r"[A-Za-z]\w*[a-z0-9][A-Z]\w*")


def _is_code_name(name: str) -> bool:
    return "_" in name or _CAMEL.fullmatch(name) is not None


def test_protocol_and_design_code_names_resolve():
    """Every backticked identifier containing ``_``, and every
    backticked CamelCase identifier, in docs/PROTOCOL.md, DESIGN.md and
    docs/API.md occurs as a word in a Python, C or JSON file (its text
    or its path) under ``src/``, ``tests/``, ``scripts/``,
    ``benchmarks/`` or ``examples/``; a name with a ``*``, as in
    ``twin_*`` or ``dsm_*_us``, is a pattern and resolves when some word
    matches it.  A document may describe deleted code in words, but not
    cite it by a name that no longer exists."""
    words = _code_words()
    missing = {}
    for doc in ("docs/PROTOCOL.md", "DESIGN.md", "docs/API.md"):
        for span in re.findall(r"`([^`\n]+)`", _doc(doc)):
            for name in re.findall(r"[A-Za-z_*][\w*]*", span):
                if not _is_code_name(name) or name in words:
                    continue
                if "*" in name and fnmatch.filter(words, name):
                    continue
                missing.setdefault(doc, set()).add(name)
    assert not missing, missing


def test_cli_targets_documented_match_registry():
    from repro.bench.cli import TARGETS

    text = _doc("README.md")
    for target in ("figure2", "figure3", "figure5", "ablation", "all"):
        assert target in TARGETS
        assert target in text


def test_experiments_claims_match_checked_in_results():
    """The numbers EXPERIMENTS.md quotes for Figure 5b (full) must match
    the checked-in bench output."""
    results = _doc("results/bench_full.txt")
    # NM at r=16: obj=4104 diff=4096 (8200 total data msgs)
    assert re.search(r"16\s+NM\s+4104\s+0\s+4096\s+0\s+8200", results)
    # FT1 at r=16
    assert re.search(r"16\s+FT1\s+263\s+256\s+256\s+1537", results)


#: Repo paths a doc may name: a script, a benchmark file, or a root
#: report (root reports are named in capitals, e.g. BENCHMARK.json).
_REPO_PATH = re.compile(
    r"(?<![\w/.:-])(scripts/[\w./-]+\.py|benchmarks/[\w./-]+\.(?:py|json)"
    r"|[A-Z][\w-]*\.json)\b"
)


def test_named_scripts_benchmarks_and_reports_exist():
    """Every such path a user-facing doc names in backticks, or a CI step
    runs, exists (CHANGES.md and ROADMAP.md are history, not checked)."""
    docs = ("README.md", "docs/PROTOCOL.md", "docs/API.md",
            "results/README.md", "results/profiles/README.md",
            ".claude/skills/verify/SKILL.md")
    chunks = {name: re.findall(r"`([^`\n]+)`", _doc(name)) for name in docs}
    chunks["ci.yml"] = [
        line
        for line in _doc(".github/workflows/ci.yml").splitlines()
        if not line.lstrip().startswith("#")
    ]
    for name, texts in chunks.items():
        for text in texts:
            for match in _REPO_PATH.findall(text):
                assert (ROOT / match).exists(), f"{name} references {match}"
