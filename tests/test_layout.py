"""The package's layout, read from its source as syntax trees (nothing is
imported): every public function and class in `src/kgdelta` has a caller
there, no module of the package or of its tests imports a name it never
uses, and the package keeps to its line budget.  Functions that only tests
call live in `tests/oracles.py`.
"""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kgdelta"
# the line budget of src/kgdelta: ROADMAP.md, direction 5
LINE_BUDGET = 2659


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _defined(tree: ast.Module) -> set:
    return {s.name for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def _package_imports(tree: ast.Module) -> tuple:
    """({local name: module} for the package's modules a module binds, and
    {local name: (module, name)} for the names it imports from them).  The
    package imports itself relatively; an absolute import is not read, so a
    name used only through one shows as a missing caller."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        for a in node.names:
            if node.module:  # from .module import name
                names[a.asname or a.name] = (node.module, a.name)
            else:  # from . import module
                modules[a.asname or a.name] = a.name
    return modules, names


def _uses(mods: dict) -> set:
    """Every (module, name) that a module of the package loads: as a bare
    name it defines or imports from the package, as <module>.name on a
    package module it has imported, or as a re-export in __init__.  A
    function's or class's references to itself do not count."""
    defined = {m: _defined(t) for m, t in mods.items()}
    imports = {m: _package_imports(t) for m, t in mods.items()}

    def resolve(module: str, name: str) -> tuple:
        if name not in defined[module] and name in imports[module][1]:
            return resolve(*imports[module][1][name])
        return module, name

    used = set()
    for m, tree in mods.items():
        modules, names = imports[m]
        if m == "__init__":
            used |= {resolve(*target) for target in names.values()}
        for stmt in tree.body:
            owner = (m, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                target = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in names:
                        target = resolve(*names[node.id])
                    elif node.id in defined[m]:
                        target = (m, node.id)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    target = resolve(modules[node.value.id], node.attr)
                if target is not None and target != owner:
                    used.add(target)
    return used


def test_every_public_function_and_class_has_a_caller_in_src():
    mods = _modules()
    used = _uses(mods)
    orphans = sorted(f"{m}.{name}" for m, tree in mods.items() for name in _defined(tree)
                     if not name.startswith("_") and (m, name) not in used)
    assert not orphans, f"no caller in src/kgdelta (move test-only code to tests/): {orphans}"


def test_no_module_imports_a_name_it_does_not_use():
    mods = {f"src/kgdelta/{m}": tree for m, tree in _modules().items() if m != "__init__"}
    mods.update((f"tests/{p.name}", ast.parse(p.read_text(), str(p)))
                for p in sorted(TESTS.glob("*.py")))
    unused = []
    for m, tree in mods.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{m}: {name}" for name in bound if name not in loaded]
    assert not unused, f"imported but never used: {unused}"


def test_src_keeps_to_the_line_budget():
    lines = sum(p.read_text().count("\n") for p in SRC.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/kgdelta has {lines} lines, over its budget of {LINE_BUDGET}"
