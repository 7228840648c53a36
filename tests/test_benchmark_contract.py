"""The names the benchmark binds, and the package's export list.

``perfbench/tracer.py`` wraps functions by module and name, and
``perfbench/child.py`` imports or rebinds a few more; a name that leaves
``src/`` would otherwise show up only as failed benchmark rounds.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import trotterprof
from trotterprof import config

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's document builders)

#: ``module: names`` that ``perfbench/child.py`` imports or rebinds itself.
CHILD_BINDINGS = {
    "cli": ("run_command",),
    "config": ("parse_document",),
    "experiments": ("worker_count",),
    "profiling": ("resolve_basis",),
    "pauli": ("dense_word",),
}


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_binding_exists():
    tracer = load_tracer()
    bound = {module: list(names) for module, names in tracer.SPANNED.items()}
    leaf_module, leaf_name = tracer.LEAF
    bound.setdefault(leaf_module, []).append(leaf_name)
    for module, names in CHILD_BINDINGS.items():
        bound.setdefault(module, []).extend(names)
    missing = [
        f"{module}.{name}"
        for module, names in bound.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"trotterprof.{module}"), name, None))
    ]
    assert missing == []

    tree = ast.parse((ROOT / "src" / "trotterprof" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(trotterprof.__all__) == sorted(imported)


def test_presets_match_the_benchmark_reference_documents():
    """Each preset is the paper setup the benchmark wrote down on its own."""
    assert tuple(config.PRESETS) == workloads.PRESETS
    for name in config.PRESETS:
        reference = config.parse_config(
            json.dumps(workloads.preset_reference_document(name))
        )
        assert config.serialize_config(config.preset_config(name)) == (
            config.serialize_config(reference)
        )
