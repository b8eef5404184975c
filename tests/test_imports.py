"""Every name a module of the package imports is used there."""
import ast
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
