"""Every run setting comes from a flag or a config, never from the environment."""

import ast
from pathlib import Path

import driftcast

SRC = Path(driftcast.__file__).resolve().parent
READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path):
    """(file, line) of every ``os.environ``/``os.getenv`` use and of every
    ``from os import`` of those names in a module."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append((path.name, node.lineno))
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in READERS for alias in node.names)):
            reads.append((path.name, node.lineno))
    return reads


def test_no_module_reads_the_environment():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [read for path in modules for read in environment_reads(path)] == []
