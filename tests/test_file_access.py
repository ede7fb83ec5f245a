"""Only ``data.py`` opens, makes, lists or replaces a file.

Every reader and writer lives there, so each file error takes the one path
that names the file and maps it to its exit code. A file call in any other
library module fails this test until the table of exceptions names it.
"""

import ast
from pathlib import Path

import spantriplet

FILE_CALLS = {
    "open", "os.fdopen", "os.makedirs", "os.mkdir", "os.replace", "os.rename", "os.remove",
    "os.unlink", "os.listdir", "os.scandir", "os.path.exists", "os.path.isdir",
    "os.path.isfile", "np.load", "np.save", "np.savez", "np.savez_compressed",
    "json.load", "json.dump",
}
# set_blas_threads reads the process's own memory map, not a package file.
EXCEPTIONS = {("autodiff.set_blas_threads", "open")}


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a name or attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted(node.value)) is not None:
        return f"{base}.{node.attr}"
    return None


def file_calls(tree: ast.Module, module: str) -> set[tuple[str, str]]:
    """(qualified function, call) for each file call in ``module``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and (name := dotted(node.func)) is not None:
            if name in FILE_CALLS or name.startswith("tempfile."):
                found.add((scope, name))
        if (isinstance(node, ast.Import) and any(a.name == "tempfile" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "tempfile"):
            found.add((scope, "import tempfile"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_data_touches_files():
    sources = sorted(Path(spantriplet.__file__).parent.glob("*.py"))
    assert any(path.stem == "data" for path in sources)
    outside = set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls = file_calls(tree, path.stem)
        if path.stem == "data":
            assert calls, "the file calls this test looks for have moved out of data.py"
        else:
            outside |= calls
    assert outside == EXCEPTIONS
