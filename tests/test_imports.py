"""Every import in the package is used, exported through ``__all__``, or
marked ``# noqa`` on its own line.  Stdlib ``ast`` stands in for a linter.
The package's lazy namespace serves every name of ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import sobstab

MODULES = sorted(Path(sobstab.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and neither reads, exports nor marks noqa."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        name for name, line in imported.items()
        if name not in used and "# noqa" not in lines[line - 1]
    )


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", ["os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import (\n    b,\n    c,  # noqa: F401\n)\n", ["b"]),
        ("from a import b as c\n__all__ = ['c']\n", []),
        ("from __future__ import annotations\nimport a\nx: a.T\n", []),
    ],
    ids=["unused", "attribute-use", "noqa-line", "exported", "annotation"],
)
def test_checker(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestLazyNamespace:
    def test_table_holds_all_but_version(self):
        assert len(set(sobstab.__all__)) == len(sobstab.__all__)
        assert set(sobstab._HOMES) == set(sobstab.__all__) - {"__version__"}

    @pytest.mark.parametrize("name", sorted(sobstab._HOMES))
    def test_name_is_its_home_object(self, name):
        home = importlib.import_module(f"sobstab.{sobstab._HOMES[name]}")
        assert getattr(sobstab, name) is getattr(home, name)

    def test_dir_and_star_import(self):
        assert {"__all__", *sobstab.__all__} <= set(dir(sobstab))
        namespace = {}
        exec("from sobstab import *", namespace)
        for name in sobstab.__all__:
            assert namespace[name] is getattr(sobstab, name)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(sobstab, "no_such_name")
        assert not hasattr(sobstab, "no_such_name")
