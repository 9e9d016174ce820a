"""Every top-level function and class in ``src/sessionpipe`` has a reader.

A name counts as read when another top-level statement of ``src/``, ``scripts/``
or ``perfbench/`` names it: as a name, an attribute, an imported name or a
string (the benchmark's tracer looks functions up by name). Its own definition
does not count, and neither do the tests: a helper only a test calls goes.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sessionpipe"
READERS = ("src", "scripts", "perfbench")
# click calls the commands through their decorators; nothing else names them
ENTRY_POINTS = {"cli.simulate", "cli.run_command", "cli.evaluate", "cli.report_command"}


def _names(statement: ast.stmt):
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions_and_readers():
    """``module.name`` -> where each top-level function or class of the package is defined,
    and name -> every top-level statement that names it, as (file, statement number)."""
    definitions, readers = {}, defaultdict(set)
    for path in sorted(path for reader in READERS for path in (ROOT / reader).rglob("*.py")):
        for number, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            for name in set(_names(statement)):
                readers[name].add((path, number))
            if path.parent == PACKAGE and isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{statement.name}"] = (path, number)
    return definitions, readers


def test_every_top_level_function_and_class_has_a_reader():
    definitions, readers = _definitions_and_readers()
    unread = []
    for qualified, where in definitions.items():
        name = qualified.partition(".")[2]
        dunder = name.startswith("__") and name.endswith("__")  # a module hook such as __getattr__
        if not readers[name] - {where} and qualified not in ENTRY_POINTS and not dunder:
            unread.append(qualified)
    assert unread == []


def test_the_allow_list_names_definitions():
    definitions, _ = _definitions_and_readers()
    assert ENTRY_POINTS <= definitions.keys()
