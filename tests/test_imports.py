"""Every module in src/stratgrad and tests uses every name it imports,
every function or class that src/stratgrad defines has a caller in src,
and every name in ``stratgrad.__all__`` resolves on the package.

A stand-in for a linter's unused-import rule: each module is parsed with
``ast`` and every name an import binds must appear as a name somewhere in
the module. ``from __future__`` imports and names re-exported through
``__all__`` are exempt.

The second check keeps helpers that only tests call out of the package:
such a helper belongs in ``tests/oracles.py``, which in turn imports no
private name of the package. The third does the same for
knobs: a defaulted parameter that no call in src ever sets serves only tests.
"""

import ast
import math
from pathlib import Path

import pytest

import stratgrad

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src" / "stratgrad").glob("*.py"))
MODULES = sorted([*SRC_MODULES, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from sys import argv, exit\n__all__ = ['exit']\nprint(argv)\n")
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_every_exported_name_resolves():
    assert [name for name in stratgrad.__all__ if not hasattr(stratgrad, name)] == []


def test_oracles_import_no_private_name_of_the_package():
    # a reference that shares a private helper with the code it checks
    # cannot catch a fault in that helper
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    private = [f"{node.module}.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stratgrad")
               for a in node.names if a.name.startswith("_")]
    assert private == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that nothing else in `sources` names.

    `sources` maps file names to module source. A definition is referenced
    when its name appears as a name or an attribute in any other top-level
    statement of any module; its own body, imports and ``__all__`` strings
    do not count. Definitions in ``__init__.py`` are not checked.
    """
    statements = []  # (module, top-level node, names it mentions)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((module, node, names))
    unreferenced = []
    for module, node, _ in statements:
        if module == "__init__.py" or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(node.name in names for _, other, names in statements if other is not node):
            unreferenced.append(f"{module[:-3]}.{node.name}")
    return sorted(unreferenced)


def test_reference_checker_flags_only_unreferenced_definitions():
    sources = {
        "a.py": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n)\n"
                "\n\nclass Unused:\n    pass\n\n\nclass Base:\n    pass\n",
        "b.py": "from a import Unused, used\nimport a\n__all__ = ['Unused']\n"
                "x = used()\n\n\ndef f():\n    return a.Base\n",
        "__init__.py": "def exported():\n    pass\n",
    }
    assert unreferenced_definitions(sources) == ["a.Unused", "a.recursive", "b.f"]


def test_every_src_definition_has_a_src_caller():
    sources = {path.name: path.read_text() for path in SRC_MODULES}
    assert unreferenced_definitions(sources) == []



def unset_knobs(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of functions in `sources` that no call there sets.

    Calls are matched to functions by name, as a bare name or an attribute;
    a class name calls its ``__init__``. A call sets a parameter by keyword,
    or by position when the parameter is positional (``self`` and ``cls``
    excluded for methods). A call with ``*args`` or ``**kwargs`` counts as
    setting every parameter it can reach. Results read ``module.param``
    paths such as ``cli.main.argv``.
    """
    functions, calls = [], []  # (path, call name, is method, node); ast.Call nodes
    for module, source in sources.items():
        tree = ast.parse(source)
        owners = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = owners.get(node)
                if isinstance(owner, ast.ClassDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    name = owner.name if node.name == "__init__" else node.name
                    functions.append((f"{module[:-3]}.{owner.name}.{node.name}", name,
                                      not static, node))
                else:
                    functions.append((f"{module[:-3]}.{node.name}", node.name, False, node))
    unset = []
    for path, name, is_method, node in functions:
        positional = [a.arg for a in node.args.posonlyargs + node.args.args][is_method:]
        defaulted = positional[len(positional) - len(node.args.defaults):] + [
            a.arg for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
        for param in defaulted:
            for call in calls:
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                if callee != name:
                    continue
                n_pos = math.inf if any(isinstance(a, ast.Starred) for a in call.args) \
                    else len(call.args)
                keywords = {k.arg for k in call.keywords}
                if (None in keywords or param in keywords
                        or (param in positional and positional.index(param) < n_pos)):
                    break
            else:
                unset.append(f"{path}.{param}")
    return sorted(unset)


def test_knob_checker_flags_only_unset_defaults():
    sources = {
        "a.py": "def f(x, knob=1, used=2, *, kw=3):\n    return x\n\n\n"
                "class C:\n    def __init__(self, size=4):\n        pass\n\n"
                "    def m(self, flag=False):\n        return flag\n",
        "b.py": "import a\na.f(0, 1.0, kw=4)\na.C(5).m()\n\n\ndef main(argv=None):\n    pass\n",
    }
    assert unset_knobs(sources) == ["a.C.m.flag", "a.f.used", "b.main.argv"]


def test_every_src_default_is_set_by_a_src_call():
    sources = {path.name: path.read_text() for path in SRC_MODULES}
    # Exempt: tests drive cli.main in-process with an explicit argv, while
    # the console script calls it without one.
    assert unset_knobs(sources) == ["cli.main.argv"]
