"""Import hygiene of the package, checked with ``ast`` in place of a linter:
every name a module imports is read in the scope that imports it, unless the
import's line keeps it on purpose with ``# noqa: F401`` and a reason."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ac_diamond"
MODULES = sorted(PACKAGE.glob("*.py"))
KEPT = re.compile(r"#\s*noqa:\s*F401\s+\S")  # the code, then a reason


def _scope_nodes(scope):
    """Every node of a module or function body outside its nested functions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """(line, name) of every imported name that its scope never reads: a
    module-level import may be read anywhere in the module, a function's
    import anywhere in that function."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        found.append((alias.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used_or_kept_with_a_reason(module):
    source = module.read_text(encoding="utf-8")
    lines = source.splitlines()
    unexplained = [(line, name) for line, name in unused_imports(source)
                   if not KEPT.search(lines[line - 1])]
    assert unexplained == []


@pytest.mark.parametrize("module", MODULES, ids=[path.name for path in MODULES])
def test_every_kept_import_is_unused(module):
    # an exemption outlives its reason once the name is read again
    source = module.read_text(encoding="utf-8")
    unused_lines = {line for line, _ in unused_imports(source)}
    kept = [number for number, text in enumerate(source.splitlines(), 1)
            if "noqa: F401" in text]
    assert [number for number in kept if number not in unused_lines] == []


def test_checker_finds_unused_names_per_scope():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .x import a, b as c\n"
        "\n"
        "def f():\n"
        "    import numpy as np\n"
        "    return math.pi + c\n"
        "\n"
        "def g(np):\n"
        "    import numpy as np\n"
        "    return np\n"
    )
    assert unused_imports(source) == [(3, "os"), (4, "a"), (7, "np")]


ROOT = PACKAGE.parents[1]
CALLER_SOURCES = [*(path for folder in ("src", "scripts", "perfbench")
                    for path in sorted((ROOT / folder).rglob("*.py"))),
                  ROOT / "tests" / "test_acceptance.py"]


def public_definitions(source):
    """(name, first line, last line) of every public top-level function,
    class and constant of a module, and every public method of its classes;
    a definition's lines include its decorators."""
    found = []

    def add(name, node):
        if not name.startswith("_"):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            found.append((name, first, node.end_lineno))

    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            add(node.name, node)
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add(member.name, member)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node.name, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    add(target.id, node)
    return found


def uncalled(source, others):
    """Public names of a module's ``source`` that appear as a whole word
    neither in the texts ``others`` nor in the module outside their own
    definition."""
    found = []
    for name, first, last in public_definitions(source):
        own = source.splitlines()
        del own[first - 1 : last]
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for text in ["\n".join(own), *others]):
            found.append(name)
    return found


def test_every_public_name_has_a_caller():
    # src/, scripts/, perfbench/ and the acceptance tests are the callers; a
    # name only the unit tests reach belongs in those tests, as a reference
    texts = {path: path.read_text(encoding="utf-8") for path in CALLER_SOURCES}
    uncalled_names = [
        f"{module.stem}.{name}"
        for module in MODULES
        for name in uncalled(texts[module], [t for p, t in texts.items() if p != module])
    ]
    assert uncalled_names == []


def test_caller_check_skips_each_name_own_definition():
    source = (
        "LIMIT = 3\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Record:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def _hidden(self):\n"
        "        return 1\n"
    )
    assert public_definitions(source) == [
        ("LIMIT", 1, 1), ("used", 2, 3), ("recursive", 4, 5), ("Record", 6, 11), ("size", 7, 9),
    ]
    assert uncalled(source, ["used()"]) == ["recursive", "Record", "size"]
