"""What ``bench_e2e`` needs from ``repro``, checked in tier-1.

The benchmark's files change only together with the benchmark, so a
``src/`` change that breaks them would otherwise surface only in
``pytest bench_e2e`` (minutes, outside tier-1).  This imports every bench
module, resolves every ``from repro... import`` name the bench uses, and
drives the shims kept alive for it.  Each shim's docstring says when it
goes; delete its case here at the same time.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro import faults
from repro.autollvm import build_dictionary
from repro.autollvm.intrinsics import dictionary_isas
from repro.backend.hydride import HydrideCompiler
from repro.daemon.client import DaemonClient, http_get
from repro.halide import ir as hir
from repro.isa.registry import supported_isas
from repro.synthesis import (
    CegisOptions,
    MemoCache,
    ReuseStore,
    build_grammar,
    synthesize,
)
from tests.test_daemon import LLVM_ADD, _LocalDaemon

BENCH = Path(__file__).resolve().parents[1] / "bench_e2e"
MODULES = sorted(
    path.stem
    for path in BENCH.glob("*.py")
    if path.stem != "__init__" and not path.stem.startswith("test_")
)


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary()


def _repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name``
    anywhere in a bench file, function-level imports included."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "repro"
            ):
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("name", MODULES)
def test_bench_module_imports(name):
    importlib.import_module(f"bench_e2e.{name}")


def test_every_repro_name_the_bench_imports_resolves():
    imports = _repro_imports()
    assert ("tracejob.py", "repro.synthesis", "ReuseStore") in imports
    unresolved = [
        f"{file}: from {module} import {name}"
        for file, module, name in imports
        if not _resolves(module, name)
    ]
    assert unresolved == []


class TestShims:
    def test_reuse_store_is_a_no_op_that_creates_nothing(self, tmp_path):
        ReuseStore(tmp_path / "reuse").flush()
        ReuseStore().flush()
        assert list(tmp_path.iterdir()) == []

    def test_hydride_compiler_accepts_reuse(self, dictionary):
        compiler = HydrideCompiler(dictionary=dictionary, reuse=ReuseStore())
        assert compiler.dictionary is dictionary

    def test_synthesize_accepts_dictionary(self, dictionary):
        a, b = hir.HLoad("a", 8, 16), hir.HLoad("b", 8, 16)
        window = hir.HBin("add", a, b)
        result = synthesize(
            window, build_grammar(window, "x86", dictionary),
            CegisOptions(timeout_seconds=30.0), MemoCache(),
            dictionary=dictionary, rules=None,
        )
        assert result.program.describe() == "_mm_add_epi16(%a, %b)"

    @pytest.mark.parametrize("isa", supported_isas())
    def test_dictionary_isas_names_the_one_dictionary(self, dictionary, isa):
        assert build_dictionary(dictionary_isas(isa)) is dictionary


def _missing(payload: dict, paths) -> list[str]:
    """The dotted ``paths`` that ``payload`` does not carry."""
    missing = []
    for path in paths:
        node = payload
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                missing.append(path)
                break
            node = node[part]
    return missing


class TestWireKeys:
    """The response and ``/stats`` keys the bench reads
    (``bench_e2e/harness.py``, ``report.py``, ``workloads.py``), served
    by an in-process daemon."""

    RESPONSE = (
        "ok", "id", "served_by", "result.runtime_us", "result.error",
        "telemetry.synth_calls", "telemetry.rule_hits", "telemetry.fallback",
        "telemetry.entries_added", "telemetry.wall_seconds",
    )
    STATS = (
        "admission.rejected", "tiers.l1.hits", "daemon.coalesced",
        "daemon.window_deferrals", "runs.killed", "runs.worker_eofs",
        "runs.synth_calls",
    )

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        faults.clear_plan()
        cache_dir = tmp_path_factory.mktemp("wire")
        with _LocalDaemon(cache_dir=str(cache_dir), jobs=1) as daemon:
            with DaemonClient.connect(daemon.addr, timeout=60.0) as client:
                frame = client.submit_many([LLVM_ADD])[0]
            stats = http_get(daemon.addr, "/stats")
        return frame, stats

    def test_response_carries_the_bench_keys(self, served):
        frame, _stats = served
        assert _missing(frame, self.RESPONSE) == []

    def test_stats_carry_the_bench_keys(self, served):
        _frame, stats = served
        assert _missing(stats, self.STATS) == []
