"""Every top-level function and class of the package is used by the program.

A member that only the tests reach is code no command runs; it belongs in
the test that uses it.  The program is everything under ``src/``,
``perfbench/`` and ``tools/``.  A member counts as used when some file there
names it, as a name, an attribute or an import, outside its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyadsync"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def program_files():
    for folder in ("src", "perfbench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not any(part.startswith(".") for part in path.relative_to(ROOT).parts):
                yield path


def used_names(tree):
    """Names, attributes and imported names in ``tree``; inside a top-level
    definition, that definition's own name is not counted."""
    used = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, DEFINITIONS) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_package_member_is_used_by_the_program():
    used = set()
    for path in program_files():
        used |= used_names(ast.parse(path.read_text(), filename=str(path)))
    unused = [
        f"{path.stem}.{stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(stmt, DEFINITIONS) and stmt.name not in used
    ]
    assert not unused, f"no program file uses {unused}"
