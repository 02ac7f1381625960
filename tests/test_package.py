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


def _private_definitions(tree: ast.Module) -> list:
    """Private names a module defines: its top-level functions, classes and
    assignment targets, and its classes' methods; dunders excluded."""
    names = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(top.name)
        elif isinstance(top, ast.ClassDef):
            names.append(top.name)
            names += [f.name for f in top.body if isinstance(
                f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) \
                else [top.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def test_every_private_definition_is_read():
    defined, read = [], set()
    for path in sorted((ROOT / "src" / "cliquelab").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.name, n) for n in _private_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert len(defined) >= 40
    assert [f"{m}: {n}" for m, n in defined if n not in read] == []


def test_every_config_field_is_set_by_a_package_or_benchmark_call():
    # a setting that only tests set is a knob no path turns
    fields = {}
    for path in sorted((ROOT / "src" / "cliquelab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and \
                    node.name.endswith(("Config", "Params")) and any(
                        "dataclass" in ast.unparse(d)
                        for d in node.decorator_list):
                fields[node.name] = [f.target.id for f in node.body
                                     if isinstance(f, ast.AnnAssign)]
    assert {"RegularityConfig", "RecursionParams",
            "HypercliqueParams"} <= set(fields)
    unset = {(name, f) for name, names in fields.items() for f in names}
    for path in [*(ROOT / "src").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or \
                getattr(node.func, "attr", None)
            if name in fields:
                unset -= {(name, f) for f in fields[name][:len(node.args)]}
                unset -= {(name, kw.arg) for kw in node.keywords}
    assert sorted(unset) == []


def _peels_low_bits(loop: ast.While) -> bool:
    """True if the loop takes ``x & -x`` of some expression x."""
    return any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
               and isinstance(node.right, ast.UnaryOp)
               and isinstance(node.right.op, ast.USub)
               and ast.dump(node.left) == ast.dump(node.right.operand)
               for node in ast.walk(loop))


def test_set_bits_are_walked_only_in_bitops():
    walkers = []
    for path in sorted((ROOT / "src" / "cliquelab").glob("*.py")):
        if path.name == "bitops.py":
            continue
        walkers += [f"{path.name}:{node.lineno}"
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.While) and _peels_low_bits(node)]
    assert walkers == []
