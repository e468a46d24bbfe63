"""A ceiling on the package's options, counted as parameters that have a default."""
import ast
from pathlib import Path

import mdsrepair

KNOB_CEILING = 13


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
