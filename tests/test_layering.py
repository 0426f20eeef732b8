"""The import layering of the package, read from its source with ``ast``."""

import ast
from pathlib import Path

import selfsim

PACKAGE = Path(selfsim.__file__).parent
# kernel modules: they work on arrays and grids, never on a model's hypotheses
KERNELS = ("spectral", "grid", "color", "quadrature")


def _relative_imports(tree: ast.AST) -> list[ast.ImportFrom]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0]


def _imported_modules(node: ast.ImportFrom) -> set[str]:
    """The package modules that ``from .x import ...`` or
    ``from . import x, y`` names."""
    if node.module:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def test_kernel_modules_import_nothing_from_models():
    for name in KERNELS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        imported = set().union(*map(_imported_modules, _relative_imports(tree)))
        assert "models" not in imported, name


def test_no_module_imports_inside_a_function():
    local = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{node.lineno}" for node in _relative_imports(fn)]
    assert not local, local
