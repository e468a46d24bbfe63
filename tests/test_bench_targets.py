"""The benchmark wraps package functions by name and pins CLI output lines.

Each wrapped function must still exist and each pinned line must still
be printed, so that a change breaking either fails here and not only in
the benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

from mdsrepair import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load("tracer").TARGETS
    assert targets
    missing = [
        f"{module}.{func}"
        for module, func in targets
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert missing == []


def test_pinned_cli_lines_are_printed(capsys):
    assert cli.run(["check", "converse", "--q", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == _load("workloads").CONVERSE_Q3
    assert cli.run(["geometry", "regular", "--q", "3"]) == 0
    assert capsys.readouterr().out == "regular spread check (exhaustive, 120 triples): ok\n"
