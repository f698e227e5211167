"""Every top-level function and class of the package is used by the program,
and every defaulted parameter is one the program sets.

A member that only the tests reach is code no command runs; it belongs in
the test that uses it.  A default that no program call overrides is a
constant.  The program is everything under ``src/``, ``perfbench/`` and
``tools/``.  A member counts as used when some file there names it, as a
name, an attribute or an import, outside its own definition.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def call_name(func):
    """The name a call is matched by: a plain name or the last attribute."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls(tree):
    """(name, positional count, keyword names, passes everything) per call in ``tree``.

    ``partial(f, ...)`` counts as a call of ``f`` with the remaining
    arguments; a ``*args`` or ``**kwargs`` argument passes every parameter.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = call_name(node.func), node.args
        if name == "partial" and args:
            name, args = call_name(args[0]), args[1:]
        keywords = {kw.arg for kw in node.keywords}
        everything = None in keywords or any(isinstance(a, ast.Starred) for a in args)
        yield name, len(args), keywords, everything


def defaulted_parameters(path):
    """(label, call name, positional index, parameter name) per defaulted parameter
    of a top-level function or method in ``path``; a class name calls its
    ``__init__``, and a method's positional index does not count ``self``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for stmt in tree.body:
        if isinstance(stmt, FUNCTIONS):
            defs = [(stmt, stmt.name, stmt.name, 0)]
        elif isinstance(stmt, ast.ClassDef):
            defs = [(item, f"{stmt.name}.{item.name}",
                     stmt.name if item.name == "__init__" else item.name,
                     0 if any(call_name(d) == "staticmethod" for d in item.decorator_list)
                     else 1)
                    for item in stmt.body if isinstance(item, FUNCTIONS)]
        else:
            continue
        for fn, label, name, skip in defs:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for index in range(first, len(positional)):
                yield label, name, index - skip, positional[index].arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield label, name, None, arg.arg


def test_every_defaulted_parameter_is_set_by_the_program():
    """A defaulted parameter that no program call passes is a constant in disguise.

    The match is by name, like the member test above, so it is a floor and
    not a proof: a call of another function with the same name counts.
    """
    found = {}
    for path in program_files():
        for name, count, keywords, everything in calls(ast.parse(path.read_text(),
                                                                 filename=str(path))):
            found.setdefault(name, []).append((count, keywords, everything))
    unset = [
        f"{path.stem}.{label}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name, index, param in defaulted_parameters(path)
        if not any(everything or param in keywords or (index is not None and count > index)
                   for count, keywords, everything in found.get(name, ()))
    ]
    assert not unset, f"no program call sets {unset}"
