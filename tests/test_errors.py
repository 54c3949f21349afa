"""The package raises two error classes, one per CLI exit code."""

import ast
from pathlib import Path

import driftcast
from driftcast import errors

SRC = Path(driftcast.__file__).resolve().parent


def raise_sites(path):
    """(file, enclosing function, what is raised) for every ``raise`` in a
    module: the called name, ``None`` for a bare re-raise, or the source
    text of anything else."""
    sites = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc
                if exc is None:
                    what = None
                elif isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                    what = exc.func.id
                else:
                    what = ast.unparse(exc)
                sites.append((path.name, func, what))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_every_raise_builds_one_of_the_two_errors():
    sites = [site for path in sorted(SRC.glob("*.py")) for site in raise_sites(path)]
    assert len(sites) > 50
    wrong = [site for site in sites if site[2] not in (None, "DriftcastError", "NumericError")]
    assert wrong == []


def test_two_errors_and_three_warnings():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == {"DriftcastError", "NumericError", "DriftcastWarning",
                       "DidNotConverge", "PostDriftTooShort"}
    # library callers that catch ValueError still catch bad input
    assert issubclass(errors.NumericError, errors.DriftcastError)
    assert issubclass(errors.DriftcastError, ValueError)
