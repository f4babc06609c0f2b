"""The package keeps no module-global mutable state beyond one known name.

A `global` statement rebinds a module global, and a `functools.cache` or
`lru_cache` decorator keeps a module-lifetime table. Each is allowed only
where it is listed below, with the reason it stays.
"""

import ast
from pathlib import Path

import deepreflecs

PACKAGE = Path(deepreflecs.__file__).resolve().parent

ALLOWED = {
    # the pad-overflow counter that perfbench reads (ROADMAP items 1 and 3b)
    ("preprocess", "global", "_overflow_count"),
}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("cache", "lru_cache")


def module_state(path: Path):
    """(module, kind, name) of each global statement and cache decorator in a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Global):
            found.update((path.stem, "global", name) for name in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(map(_is_cache, node.decorator_list)):
                found.add((path.stem, "cache", node.name))
    return found


def test_only_the_listed_module_state_exists():
    found = set().union(*map(module_state, sorted(PACKAGE.glob("*.py"))))
    assert found == ALLOWED

