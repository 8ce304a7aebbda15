"""Rules over the package's own source."""

from __future__ import annotations

import ast

import taskweave

from conftest import REPO_ROOT


def test_no_invariant_of_the_package_is_an_assert():
    # `python -O` strips asserts, so an invariant that must hold in every run raises instead
    found = []
    for path in sorted((REPO_ROOT / "src" / "taskweave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        name = path.relative_to(REPO_ROOT).as_posix()
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_imported_name_is_read_and_all_lists_what_the_package_imports():
    # an import that nothing reads is left over from deleted code; `__all__` is read by `import *`
    unread = []
    for path in sorted((REPO_ROOT / "src" / "taskweave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        name = path.relative_to(REPO_ROOT).as_posix()
        imported = {
            alias.asname or alias.name.partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            assert sorted(taskweave.__all__) == sorted(imported)
            read.update(taskweave.__all__)
        unread += [f"{name}:{line} {bound}" for bound, line in imported.items() if bound not in read]
    assert unread == []
