"""Static checks on the package source that need no linter."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "vanvleck"
README = SOURCE.parent.parent / "README.md"
MODULES = sorted(path.name for path in SOURCE.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order.

    ``from __future__`` imports are exempt; ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\n"
                          "from a.b import c, d as e\nprint(np, c)\n") \
        == ["os", "e"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SOURCE / module).read_text()) == []


def read_names(trees) -> set[str]:
    """Names the parsed ``trees`` read: loaded (``name``) or taken as an
    attribute (``module.name``); an assignment to a name is no read."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list[str]:
    """Module-level names with a leading underscore that no source reads.

    ``sources`` maps module names to their text; the result lists
    ``module:name`` in module and definition order.  A name is read where
    it is loaded (``_name``) or taken as an attribute (``module._name``);
    an assignment to it is no read.  Dunder names are exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = read_names(trees.values())
    unread = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("_") and not name.endswith("__")
                        and name not in read):
                    unread[f"{module}:{name}"] = None
    return list(unread)


def test_the_check_sees_an_unread_private_name():
    assert unread_private_names({
        "a.py": "_A, _b = 1, 2\n_b = 3\n__all__ = []\n"
                "def _f():\n    return _A\nclass _C:\n    pass\n"
                "def _g():\n    pass\n",
        "b.py": "from .a import _f\nimport a\n_f()\na._C\n",
    }) == ["a.py:_b", "a.py:_g"]


def test_no_unread_private_names():
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))}
    assert unread_private_names(sources) == []


def idle_public_functions(sources: dict) -> list[str]:
    """Public module-level functions that ``__init__.py`` does not export
    and no source reads.

    ``sources`` maps module names, ``__init__.py`` among them, to their
    text; the result lists ``module:name`` in module and definition
    order.  A function is exported when ``__init__.py`` imports it by
    name, and read as ``read_names`` says in any module, its own
    included; its definition is no read.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported = {alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = read_names(trees.values())
    return [f"{module}:{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in exported | read]


def test_the_check_sees_an_idle_public_function():
    assert idle_public_functions({
        "__init__.py": "from .a import f\n",
        "a.py": "def f():\n    return g()\ndef g():\n    pass\n"
                "def h():\n    pass\ndef _p():\n    pass\n"
                "def k():\n    pass\n",
        "b.py": "from . import a\na.k()\ndef m():\n    pass\n",
    }) == ["a.py:h", "b.py:m"]


def test_no_idle_public_functions():
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))}
    assert idle_public_functions(sources) == []


def flag_setters(sources: dict, flag: str) -> list[str]:
    """Calls that pass the keyword ``flag``, as ``module:line``.

    ``sources`` maps module names to their text.  Any call counts: a
    constructor, a factory or ``dataclasses.replace``.
    """
    return [f"{module}:{node.lineno}" for module, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and any(keyword.arg == flag for keyword in node.keywords)]


def test_the_check_sees_a_flag_setter():
    assert flag_setters({
        "a.py": "from dataclasses import replace\nm = f(x=1)\n"
                "m = replace(m, x=True)\nm = f(y=1)\n",
        "b.py": "def f(x=False):\n    return g(x=x)\n",
    }, "x") == ["a.py:2", "a.py:3", "b.py:2"]


def test_only_models_sets_affine_flow():
    # the model constructors decide whether the Euler-Lagrange equations
    # are linear; no other module sets the flag on a model
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))
               if path.name != "models.py"}
    assert flag_setters(sources, "affine_flow") == []


def imported_and_listed(source: str) -> tuple[list[str], list[str]]:
    """The names ``source`` binds by ``from ... import``, and the names
    its ``__all__`` lists, each sorted."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [target.id for target in node.targets] == ["__all__"]]
    return sorted(imported), sorted(name for names in listed
                                    for name in names)


def test_the_check_sees_an_unlisted_import():
    assert imported_and_listed(
        "from .a import f, g as h\nfrom .b import k\n"
        "__all__ = ['f', 'k', 'z']\n") == (["f", "h", "k"], ["f", "k", "z"])


def test_all_lists_exactly_what_init_imports():
    imported, listed = imported_and_listed(
        (SOURCE / "__init__.py").read_text())
    assert listed == imported


def error_classes(source: str) -> set[str]:
    """Classes in ``source`` that derive, directly or not, from
    ``VanVleckError``, which is not itself included."""
    family = {"VanVleckError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in family
                for base in node.bases):
            family.add(node.name)
    return family - {"VanVleckError"}


def test_readme_names_every_failure_mode():
    text = README.read_text()
    start = text.index("Failure modes are typed exceptions")
    sentence = text[start:text.index("(all subclass `VanVleckError`)", start)]
    named = set(re.findall(r"`(\w+)`", sentence))
    assert named == error_classes((SOURCE / "errors.py").read_text())


def _bound_names(tree, top_level_only: bool) -> set[str]:
    """Names a parsed module binds by def, class, assignment or import at
    its top level, or, unless ``top_level_only``, anywhere in it, as an
    argument too."""
    bound = set()
    for node in tree.body if top_level_only else ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound |= {leaf.id for leaf in ast.walk(node)
                      if isinstance(leaf, ast.Name)
                      and isinstance(leaf.ctx, ast.Store)}
    return bound


def stale_readme_names(text: str, sources: dict) -> list[str]:
    """Backticked names in ``text`` that the package ``sources`` do not
    define, in order of appearance.

    ``sources`` maps module file names to their text.  A private name
    (``_name``; dunders are exempt) must be bound somewhere in the
    sources.  A ``module.name`` reference whose module is one of the
    sources, with or without a ``vanvleck.`` prefix, must be bound at that
    module's top level (``module.py`` names the file); ``vanvleck.module``
    must name a source.  Fenced code blocks are skipped.
    """
    trees = {name.removesuffix(".py"): ast.parse(source)
             for name, source in sources.items()}
    anywhere = set().union(*(_bound_names(tree, False)
                             for tree in trees.values()))
    stale = {}
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span):
            if name not in anywhere:
                stale[name] = None
        for module in re.findall(r"(?<![\w.])vanvleck\.(\w+)", span):
            if module not in trees:
                stale[f"vanvleck.{module}"] = None
        for module, name in re.findall(
                r"(?<![\w.])(?:vanvleck\.)?(\w+)\.(?!py\b)(\w+)", span):
            if module in trees and name not in _bound_names(trees[module],
                                                            True):
                stale[f"{module}.{name}"] = None
    return list(stale)


def test_the_check_sees_a_stale_readme_name():
    sources = {"a.py": "import os\nX = 1\ndef f(_arg):\n    _y = 2\n"
                       "class C:\n    def _m(self):\n        pass\n",
               "b.py": "def _g():\n    pass\n"}
    text = ("`a.f`, `a.X + b._g()`, `vanvleck.a.os`, `_arg`, `_y`, `_m`, "
            "`__init__.py`, `np.asarray`, `_gone` and `a._g`, "
            "`vanvleck.b.h(x)`, `vanvleck.c`, `a.C._m` and `a.py`\n"
            "```\nb._h\n```\n`b.z`")
    assert stale_readme_names(text, sources) == [
        "_gone", "a._g", "b.h", "vanvleck.c", "b.z"]


def test_readme_names_only_what_the_package_defines():
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))}
    assert stale_readme_names(README.read_text(), sources) == []


def exec_calls(sources: dict) -> list[str]:
    """Calls of ``exec``, by name or as an attribute, as ``module:line``.

    ``sources`` maps module names to their text.
    """
    return [f"{module}:{node.lineno}" for module, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and "exec" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def test_the_check_sees_an_exec_call():
    assert exec_calls({
        "a.py": "exec(code, {})\ncompile(text, 'f', 'exec')\n",
        "b.py": "import builtins\nx = 1\nbuiltins.exec(code)\n",
    }) == ["a.py:1", "b.py:3"]


def test_only_expressions_runs_generated_code():
    # expressions.run_generated is the one runner of generated code, for
    # its compiled expressions and for the path passes of dynamics alike
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))
               if path.name != "expressions.py"}
    assert exec_calls(sources) == []


def _cells(row: str) -> int:
    """The number of cells GitHub reads in a table row: it splits at
    every ``|`` not escaped as ``\\|``, inside a code span too."""
    return len(re.split(r"(?<!\\)\|", row.strip().strip("|")))


def ragged_table_rows(text: str) -> list[int]:
    """Line numbers of the table rows in the Markdown ``text`` whose cell
    count differs from their table's header row (the first line of a run
    of lines that start with ``|``).  Fenced code blocks are skipped."""
    ragged, header, fenced = [], None, False
    for number, line in enumerate(text.splitlines(), 1):
        fenced ^= line.startswith("```")
        if fenced or not line.startswith("|"):
            header = None
        elif header is None:
            header = _cells(line)
        elif _cells(line) != header:
            ragged.append(number)
    return ragged


def test_the_check_sees_a_ragged_table_row():
    text = ("| a | b |\n| --- | --- |\n| `x|y` | z |\n| `x\\|y` | z |\n"
            "\n| c |\n| --- |\n| d | e |\n```\n| f |\n| g | h |\n```\n")
    assert ragged_table_rows(text) == [3, 8]


def test_readme_table_rows_match_their_headers():
    assert ragged_table_rows(README.read_text()) == []
