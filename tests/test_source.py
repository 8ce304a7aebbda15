"""Rules over the package's own source."""

from __future__ import annotations

import ast

from conftest import REPO_ROOT


def test_no_invariant_of_the_package_is_an_assert():
    # `python -O` strips asserts, so an invariant that must hold in every run raises instead
    found = []
    for path in sorted((REPO_ROOT / "src" / "taskweave").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        name = path.relative_to(REPO_ROOT).as_posix()
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
