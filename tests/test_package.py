"""Package exports and imports: every name ``cliquelab`` exports is used
by the code, and every name a module imports is read in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _references(path: Path) -> set:
    """Names and attributes read in ``path``, outside the top-level
    definition of the same name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            ref = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and \
                    ref != getattr(top, "name", None):
                found.add(ref)
    return found


def test_every_export_runs_on_a_package_or_benchmark_path():
    init = ROOT / "src" / "cliquelab" / "__init__.py"
    exported = {alias.asname or alias.name for node in ast.parse(
        init.read_text()).body if isinstance(node, ast.ImportFrom)
        for alias in node.names}
    paths = [*init.parent.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_references(p) for p in paths if p != init))
    assert sorted(exported - used) == []


def test_every_module_import_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "cliquelab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            unread += [f"{path.name}: {name}" for name in
                       (a.asname or a.name.split(".")[0] for a in node.names)
                       if name not in read]
    assert unread == []
