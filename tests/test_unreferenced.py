"""Every top-level function and class of the package is referenced by the package itself.

A definition that only tests or the benchmark call is code that the program
does not run. The scan reads each module with ``ast`` and counts a definition
``module.name`` as referenced when ``name`` appears as a bare ``Name`` in
``module`` itself, is imported from ``module`` by another module of
``src/fetalguard/``, or is read as an attribute of a name bound to ``module``
(``from . import nn`` then ``nn.forward``). A method or attribute of the same
spelling elsewhere does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fetalguard"

# The in-process twins of the worker pipeline that bench/workloads.py still
# calls. They go when the benchmark moves off them (ROADMAP items 1 and 9);
# the test below fails as soon as either is deleted or the package calls it.
ALLOWED = {"synth.generate_dataset", "preprocess.preprocess_collection"}


def _package_module(name: str | None, level: int) -> str | None:
    """The package module an import names ("" for the package itself), None outside the package."""
    if level == 1:
        return name or ""
    if level == 0 and name is not None and (name == PACKAGE.name or name.startswith(PACKAGE.name + ".")):
        return name[len(PACKAGE.name) + 1 :]
    return None


def _module_references(module: str, tree: ast.Module) -> set[str]:
    """The qualified names ``module.name`` that one module's source refers to."""
    references, aliases = set(), {}  # aliases: local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                if source == "":  # from . import nn
                    aliases[alias.asname or alias.name] = alias.name
                else:  # from .nn import forward
                    references.add(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = _package_module(alias.name, 0)
                if source and alias.asname:  # import fetalguard.nn as nn
                    aliases[alias.asname] = source
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            references.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            references.add(f"{aliases[node.value.id]}.{node.attr}")
    return references


def _scan(package: Path) -> tuple[set[str], set[str]]:
    """(the top-level functions and classes of ``package/*.py``, every qualified name the package refers to)."""
    definitions, references = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.add(f"{path.stem}.{node.name}")
        references |= _module_references(path.stem, tree)
    return definitions, references


def unreferenced_definitions(package: Path) -> set[str]:
    definitions, references = _scan(package)
    return definitions - references


def test_every_top_level_definition_is_referenced_in_the_package_except_the_allowed_ones():
    definitions, references = _scan(PACKAGE)
    unreferenced = definitions - references
    assert unreferenced - ALLOWED == set(), "defined but never referenced in src/fetalguard/"
    assert ALLOWED - definitions == set(), "allowed but no longer defined: drop it from ALLOWED"
    assert ALLOWED - unreferenced == set(), "allowed but now referenced: drop it from ALLOWED"


def test_a_dead_function_is_found_although_a_method_of_its_name_is_called_elsewhere(tmp_path):
    (tmp_path / "stats.py").write_text(
        "def mean(values):\n    return sum(values) / len(values)\n\n\n"
        "def spread(values):\n    return max(values) - min(values)\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "def total():\n    return _helper()\n",
        encoding="utf-8",
    )
    (tmp_path / "report.py").write_text(
        "from . import stats\nfrom .stats import total\n\n\n"
        "def report(scores):\n    return scores.mean(), stats.spread(scores), total()\n\n\n"
        "def mean():\n    return report\n",
        encoding="utf-8",
    )
    # stats.mean is dead although scores.mean() and report.mean share its spelling;
    # report.mean is dead too, and spread, total and _helper are reached.
    assert unreferenced_definitions(tmp_path) == {"stats.mean", "report.mean"}
