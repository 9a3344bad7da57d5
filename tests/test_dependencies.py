"""Every module under ``src/repro`` imports only what an install provides.

A top-level import must name the standard library, ``repro`` itself or
a distribution listed in ``pyproject.toml``'s ``dependencies``.  Any
other name imports only on a host where some unrelated package happened
to install it, and fails on a clean install.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_distributions() -> set[str]:
    """Import names of ``[project] dependencies`` (``numpy>=1.24`` ->
    ``numpy``), read without ``tomllib``, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*(\[.*?\])", text, re.M | re.S)
    assert match, "pyproject.toml declares no dependencies list"
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0]
            .lower().replace("-", "_")
            for spec in ast.literal_eval(match.group(1))}


def top_level_imports(path: Path):
    """``(line, name)`` per absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_src_imports_only_declared_dependencies():
    allowed = (set(sys.stdlib_module_names) | {"repro"}
               | declared_distributions())
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert modules
    stray = [f"{path.relative_to(ROOT)}:{line} imports {name}"
             for path in modules
             for line, name in top_level_imports(path)
             if name not in allowed]
    assert not stray, "undeclared imports:\n" + "\n".join(stray)
