"""The names the benchmark binds, the package's export list, and the call
counts the benchmark's trace self-check expects.

``perfbench/tracer.py`` wraps functions by module and name, and
``perfbench/child.py`` imports or rebinds a few more; a name that leaves
``src/`` would otherwise show up only as failed benchmark rounds.  A traced
round also fails unless ``fit_profile`` runs once per ep row and
``mpf_estimate`` once per mpf row.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import trotterprof
from trotterprof import config, read_csv
from trotterprof.cli import run_command

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


@pytest.mark.parametrize("name", ["preset", "noisy-pinned-chain"])
def test_each_row_is_one_fit_or_one_combination(tmp_path, name):
    """The benchmark's trace self-check: one fit per ep row, one mpf estimate per mpf row."""
    if name == "preset":
        doc = {"preset": "tfim-ruth3"}
    else:
        doc = workloads.tfim_chain_document(6, "suzuki4", 1, stop=2.0)
        doc["profiling"] = {"trotter_steps": 2, "n_extra_orders": 3}
        doc["mpf"] = {"step_counts": [1, 2, 4]}
        doc["noise"] = {"sigma": 1e-7, "seed": 1}
    path, out = tmp_path / "doc.json", tmp_path / "out.csv"
    path.write_text(json.dumps(doc))
    tracer = load_tracer()
    calls = {"fit_profile": 0, "mpf_estimate": 0}
    restore = []
    for module, fn_name in (("profiling", "fit_profile"), ("mpf", "mpf_estimate")):
        original = getattr(importlib.import_module(f"trotterprof.{module}"), fn_name)

        def counted(*args, _original=original, _name=fn_name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        restore.append((fn_name, counted, original))
        assert tracer.rebind(fn_name, original, counted)
    try:
        assert run_command(["run", "--config", str(path), "--out", str(out)]) == 0
    finally:
        for fn_name, counted, original in restore:
            tracer.rebind(fn_name, counted, original)
    rows = [row.method for row in read_csv(out).rows]
    assert calls == {"fit_profile": rows.count("ep"), "mpf_estimate": rows.count("mpf")}
    assert rows.count("ep") == rows.count("mpf") == len(config.parse_config(json.dumps(doc)).times)
