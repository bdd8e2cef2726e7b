"""Every definition in ``src/lglab`` is reached from inside the package.

A module-level function or class, or a class's non-dunder method, counts
as reached when an ``ast.Name`` or ``ast.Attribute`` somewhere in
``src/lglab`` names it outside its own definition. Names are matched
bare, so a definition that shares its name with another one in use
counts as reached. ``__init__.py`` only re-exports, so it neither
defines nor reaches anything here. A
definition that nothing in the package names is library surface that no
command or zoo entry uses; only the benchmark's own entry points are
allowed to be such.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter

import lglab

SRC = os.path.dirname(lglab.__file__)

#: Definitions reached only by the benchmark, with the ``perfbench/`` line that reaches each.
BENCHMARK_ONLY = {
    "lg.check_opnd",  # perfbench/layers.py:63, a traced layer looked up in perfbench/spans.py:141
    "lg.check_opnd_complete",  # perfbench/layers.py:64, a traced layer
    "lg.lg_value_pairwise",  # perfbench/layers.py:65, a traced layer
    "operational.Protocol.with_mask",  # perfbench/workloads.py:373
    "schema.dump_document",  # perfbench/workloads.py:413 and perfbench/layers.py:71
    "core.post_measurement_distribution",  # perfbench/workloads.py:441
}


def _modules():
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py") and filename != "__init__.py":
            with open(os.path.join(SRC, filename), encoding="utf-8") as handle:
                yield filename[:-3], ast.parse(handle.read(), filename)


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each module-level definition and non-dunder method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _names(node: ast.AST) -> Counter:
    """How often an ``ast.Name`` or ``ast.Attribute`` under ``node`` uses each name."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached() -> set:
    """The qualified names of the definitions that nothing else in the package names."""
    trees = dict(_modules())
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return {qualified for module, tree in trees.items()
            for qualified, name, node in _definitions(module, tree)
            if everywhere[name] == _names(node)[name]}


def test_every_definition_but_the_benchmark_entry_points_is_reached_from_the_package():
    assert unreached() == BENCHMARK_ONLY
