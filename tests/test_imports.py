"""Every name a module of the package imports is used there, and every
definition in the package is referred to somewhere."""
import ast
import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "darkspace"


def _unused_imports(path):
    """(line, name) of each name the module imports but neither reads, nor
    lists in __all__, nor marks with "# noqa: F401" on the name's own
    line."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if (name not in used
                        and "# noqa: F401" not in lines[alias.lineno - 1]):
                    yield alias.lineno, name


def test_src_imports_are_used():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in paths for line, name in _unused_imports(path)]
    assert not unused, unused


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree):
    """The ids of the string nodes that are docstrings."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _references(tree):
    """Every name a module refers to: a Name, an attribute, a part of an
    imported name, and an identifier inside a string that is not a
    docstring (a qualname the bench tracer patches, say)."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from IDENTIFIER.findall(node.value)


def test_src_definitions_are_referenced():
    """Every function, method and class defined in the package, dunders
    aside, is named somewhere in src/, tests/ or bench/ outside its own
    definition."""
    root = SRC.parent.parent
    referenced = set()
    for folder in ("src", "tests", "bench"):
        for path in sorted((root / folder).rglob("*.py")):
            referenced.update(_references(ast.parse(
                path.read_text(encoding="utf-8"))))
    unreferenced = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced]
    assert not unreferenced, unreferenced
