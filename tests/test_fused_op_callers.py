"""The fused autodiff ops trust their one library caller for sizes and indices.

``ad.bilstm``, ``ad.pair_linear`` and ``ad.span_pool`` do not re-check what
their caller guarantees (weight shapes, pool and bucket indices, bounds
arrays of equal length). A second caller inside the library must bring its
own checks, so this test fails until the table below names it.
"""

import ast
from pathlib import Path

import spantriplet

ONE_CALLER = {
    "bilstm": "encoder.bilstm_forward",
    "pair_linear": "model.SpanModel.forward",
    "span_pool": "encoder.span_representation_matrix",
}


def references(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """Op name -> the qualified functions of ``module`` that name it."""
    found: dict[str, set[str]] = {op: set() for op in ONE_CALLER}

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        if name in found:
            found[name].add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_each_fused_op_has_one_library_caller():
    callers: dict[str, set[str]] = {op: set() for op in ONE_CALLER}
    sources = sorted(Path(spantriplet.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for op, scopes in references(tree, path.stem).items():
            callers[op] |= scopes
    assert callers == {op: {caller} for op, caller in ONE_CALLER.items()}
