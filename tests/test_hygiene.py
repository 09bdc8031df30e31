"""Static checks on the library source, with the stdlib ``ast`` module.

- Every name a module of ``src/monadlab`` imports is used in that module.
- ``__init__`` imports exactly the names in ``__all__``.
- Every module-level private function, class or constant is referenced
  somewhere in ``src/monadlab``, not only where it is defined.
- No module reads a ``_private`` attribute that it does not define itself,
  apart from ``ExactMatrix``'s storage (``_a``, ``_wrap``) and
  ``MonadData._memo``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "monadlab"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _imported(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Names read in the module: loaded names, attribute names, and the names
    in quoted annotations such as ``-> "ExactMatrix"``."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    refs |= _referenced(ast.parse(sub.value, mode="eval"))
    return refs


def _module_private_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _defined(tree: ast.Module) -> set[str]:
    """Names the module binds anywhere: functions, classes, assignment targets
    (attributes such as ``self._x`` included) and annotated class fields."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


# ExactMatrix storage, read by every module that works on the raw array, and
# the per-data memo that invariant.det_q fills
SHARED_PRIVATE_ATTRIBUTES = {"_a", "_wrap", "_memo"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_another_modules_private_attribute(module):
    tree = TREES[module]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__")}
    foreign = sorted(read - _defined(tree) - SHARED_PRIVATE_ATTRIBUTES)
    assert foreign == [], f"{module} reads private attributes {foreign} defined elsewhere"


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    unused = sorted(set(_imported(tree)) - _referenced(tree))
    assert unused == [], f"{module} imports {unused} and never uses them"


def test_init_imports_are_all():
    tree = TREES["__init__.py"]
    (exported,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    assert len(exported) == len(set(exported)), "__all__ names a name twice"
    assert sorted(_imported(tree)) == sorted(exported)


def test_every_module_private_name_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    orphans = [f"{module}: {name}" for module, tree in TREES.items()
               for name in _module_private_names(tree) if name not in referenced]
    assert orphans == []
