"""Source hygiene: ceilings on the package's options and caches, and no unused imports."""
import ast
from pathlib import Path

import mdsrepair

KNOB_CEILING = 10
CACHE_CEILING = 10


def _knobs():
    """module:function.parameter for every parameter with a default in the package source."""
    found = []
    for path in sorted(Path(mdsrepair.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults) :] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            found += [f"{path.stem}:{getattr(node, 'name', 'lambda')}.{a.arg}" for a in named]
    return found


def test_knob_count_stays_under_the_ceiling():
    knobs = _knobs()
    assert len(knobs) <= KNOB_CEILING, (
        f"{len(knobs)} parameters with a default in src/mdsrepair, above the ceiling of "
        f"{KNOB_CEILING}: {knobs}; raising the ceiling needs a justification in CHANGES.md"
    )


def _caches():
    """module:function for every lru_cache or cached_property decorator in the package source."""
    found = []
    for path in sorted(Path(mdsrepair.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cached_property"):
                    found.append(f"{path.stem}:{node.name}")
    return found


def test_cache_count_stays_under_the_ceiling():
    caches = _caches()
    assert len(caches) <= CACHE_CEILING, (
        f"{len(caches)} cached functions in src/mdsrepair, above the ceiling of "
        f"{CACHE_CEILING}: {caches}; raising the ceiling needs a justification in CHANGES.md"
    )


def _unused_imports():
    """module:name for every imported name its module never reads, the package __init__ aside."""
    package = Path(mdsrepair.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}:{name}" for name in sorted(imported - used)]
    return found


def test_no_unused_imports():
    assert _unused_imports() == []


def _unreferenced_exports():
    """Names the package __init__ re-exports that no package module reads, tracer targets aside.

    A reference is an ast Name or Attribute anywhere in a package module
    other than __init__, outside the top-level statement that defines the
    name.
    """
    package = Path(mdsrepair.__file__).parent
    init = ast.parse((package / "__init__.py").read_text())
    exported = {
        a.asname or a.name
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level
        for a in node.names
    }
    referenced = set()
    for path in sorted(package.rglob("*.py")):
        if path == package / "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            referenced |= names - {getattr(stmt, "name", None)}
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = next(
        node.value for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )
    traced = {func for _, func in ast.literal_eval(targets)}
    return sorted(exported - referenced - traced)


def test_every_export_has_a_package_reader():
    assert _unreferenced_exports() == []
