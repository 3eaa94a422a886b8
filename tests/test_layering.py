"""The package's modules import only downward, in one layer order."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajdiff"

# each module may import only modules before it
LAYERS = ["errors", "rng", "tensor", "schedule", "trajdata", "unet", "diffusion", "metrics",
          "checkpoint", "svgplot", "cli"]


def relative_imports(path: Path):
    """(line, imported module) of each package-relative import in path; the
    package's own __version__ is not a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        if node.module:
            yield node.lineno, node.module.split(".")[0]
        else:
            for alias in node.names:
                if alias.name != "__version__":
                    yield node.lineno, alias.name


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


def test_imports_follow_the_layer_order():
    upward = [f"{name}.py:{line} imports {target}"
              for name in LAYERS
              for line, target in relative_imports(PACKAGE / f"{name}.py")
              if target not in LAYERS[:LAYERS.index(name)]]
    assert upward == []


def test_nested_imports_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__\nfrom .rng import stream\n"
                     "def f():\n    from . import cli\n")
    assert list(relative_imports(probe)) == [(2, "rng"), (4, "cli")]
