"""Static checks on the library source, with the stdlib ``ast`` module.

- Every name a module of ``src/monadlab`` imports is used in that module.
- ``__init__`` imports exactly the names in ``__all__``.
- Every module-level private function, class or constant is referenced
  somewhere in ``src/monadlab``, not only where it is defined.
- No module reads a ``_private`` attribute that it does not define itself,
  apart from ``ExactMatrix``'s storage (``_a``, ``_den``, ``_wrap``) and
  ``MonadData._memo``.
- Only ``exact`` imports ``fractions``: everywhere else a rational matrix is
  its integer array over one denominator.
- Every private name that a docstring or comment quotes in double
  backticks is defined somewhere in ``src/monadlab``.
"""

import ast
import io
import re
import tokenize
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


# ExactMatrix storage, the integer array and its denominator, read by every
# module that works on the raw array, and the per-data memo that
# invariant.det_q and monad._nonzero_defects fill
SHARED_PRIVATE_ATTRIBUTES = {"_a", "_den", "_wrap", "_memo"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_another_modules_private_attribute(module):
    tree = TREES[module]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__")}
    foreign = sorted(read - _defined(tree) - SHARED_PRIVATE_ATTRIBUTES)
    assert foreign == [], f"{module} reads private attributes {foreign} defined elsewhere"


def test_only_exact_imports_fractions():
    importers = sorted(module for module, tree in TREES.items() for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                       or isinstance(node, ast.Import)
                       and any(alias.name == "fractions" for alias in node.names))
    assert importers == ["exact.py"]


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


def _docs_and_comments(path: Path, tree: ast.Module) -> list[str]:
    """The module's docstrings, of itself, its classes and its functions, and
    its comments."""
    nodes = [node for node in ast.walk(tree)
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    texts = [doc for doc in map(ast.get_docstring, nodes) if doc]
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return texts + [tok.string for tok in tokens if tok.type == tokenize.COMMENT]


# a private name in double backticks, alone or after a dot, as in ``exact._lift``
_QUOTED = re.compile(r"``([^`]+)``")
_PRIVATE = re.compile(r"(?<!\w)_(?!_)\w+")


def test_every_quoted_private_name_is_defined():
    defined = set().union(*map(_defined, TREES.values()))
    stale = sorted({f"{path.name}: {name}" for path in MODULES
                    for text in _docs_and_comments(path, TREES[path.name])
                    for quoted in _QUOTED.findall(text)
                    for name in _PRIVATE.findall(quoted) if name not in defined})
    assert stale == [], f"docstrings or comments quote undefined private names: {stale}"
