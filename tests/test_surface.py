"""Every definition in ``src/lglab`` is reached from inside the package.

A definition counts as reached when a use somewhere in ``src/lglab``
names it outside its own definition. A module-level function or class is
used by an ``ast.Name``, or by an attribute of its own module's name, such
as ``schema.write_document``; an attribute of anything else, such as a
string's ``replace``, does not name it. A class's non-dunder method is
used by an ``ast.Name`` or by any ``ast.Attribute`` of that name, since the
object it is read from is not known here. ``__init__.py`` only re-exports,
so it neither defines nor reaches anything here. A definition that
nothing in the package names is library surface that no command or zoo
entry uses; only the benchmark's own entry points are allowed to be such.
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
    """(qualified name, the uses that name it, node) of each module-level definition and
    non-dunder method; the uses are keys of ``_uses``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{module}.{node.name}", (node.name, (module, node.name)), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not re.fullmatch(r"__\w+__", item.name):
                    yield f"{module}.{node.name}.{item.name}", (item.name, (None, item.name)), item


def _uses(node: ast.AST) -> Counter:
    """How often each name is used under ``node``: an ``ast.Name`` by its id, and an
    ``ast.Attribute`` as ``(None, attr)`` and, when read from a plain name, as ``(name, attr)``."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[None, n.attr] += 1
            if isinstance(n.value, ast.Name):
                uses[n.value.id, n.attr] += 1
    return uses


def unreached() -> set:
    """The qualified names of the definitions that nothing else in the package uses."""
    trees = dict(_modules())
    everywhere = sum((_uses(tree) for tree in trees.values()), Counter())
    return {qualified for module, tree in trees.items()
            for qualified, keys, node in _definitions(module, tree)
            if sum(map(everywhere.__getitem__, keys)) == sum(map(_uses(node).__getitem__, keys))}


def test_every_definition_but_the_benchmark_entry_points_is_reached_from_the_package():
    assert unreached() == BENCHMARK_ONLY
