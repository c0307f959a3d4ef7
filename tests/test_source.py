"""Static checks on the package source, with the standard library's ``ast``."""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fracvar"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__``'s names count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {imported[name]})" for name in sorted(set(imported) - read)]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert _unused_imports(ast.parse((SRC / module).read_text())) == []


def test_unused_import_check_sees_imports_and_reexports():
    tree = ast.parse("import math\nimport os.path\nfrom .a import b, c as d\n__all__ = ['d']\nos.sep\n")
    assert _unused_imports(tree) == ["b (line 3)", "math (line 1)"]


# Public names that no command, check or benchmark runs, kept because tests
# use them as references.
ORACLES = {
    "sharp_constant_reference": "closed-form Ss, the test reference for bubble_constants",
    "mc_reference_ks": "Monte Carlo Ks, the independent route for the unit bubble's seminorm",
    "ps_diagnostics": "critical-point identity, the tests' reference for the Nehari level",
    "refinement_check": "the M against 2M energy change of the grid size",
}


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes read anywhere in ``tree``, outside the subtree ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _bench_words() -> set[str]:
    """Identifiers, imported names and the words of string constants in ``perfbench/*.py``."""
    words = set()
    for path in (SRC.parents[1] / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.alias):
                words.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words |= set(node.value.replace(".", " ").split())
    return words


def _unreached(trees: dict[str, ast.Module], bench: set[str]) -> list[str]:
    """Public top-level functions and classes that nothing in ``src``, ``perfbench`` or ORACLES reads."""
    found = []
    for mod, tree in sorted(trees.items()):
        if mod == "__init__":
            continue
        elsewhere = set().union(*(_reads(t) for m, t in trees.items() if m not in (mod, "__init__")))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in elsewhere | bench | ORACLES.keys() or node.name in _reads(tree, skip=node):
                continue
            found.append(f"{mod}.{node.name}")
    return found


def test_every_public_name_is_reached():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert _unreached(trees, _bench_words()) == []


def test_unreached_check_sees_reads():
    trees = {
        "a": ast.parse("def used():\n    pass\ndef self_read():\n    pass\nX = self_read\n"
                       "def recursive():\n    return recursive()\ndef benched():\n    pass\n"),
        "b": ast.parse("from . import a\na.used()\n"),
        "__init__": ast.parse("from .a import recursive\n"),
    }
    assert _unreached(trees, {"benched"}) == ["a.recursive"]


# Defaulted parameters of public functions that no call in ``src`` or
# ``perfbench`` passes, kept because tests set them.
TEST_OPTIONS = {
    "mc_reference_ks.N": "tests draw more pairs than the default to tighten the Ks oracle",
    "mc_reference_ks.seed": "tests draw the Ks oracle at a seed of their own",
    "refinement_check.M": "tests refine from a coarser grid than the default",
    "seminorm_radial.r_breaks": "the test seam that puts a profile on chosen panels",
    "sweep_A.eps_grid": "tests sweep other windows than DEFAULT_EPS_GRID",
    "sweep_bubble_norms.eps_grid": "tests sweep other windows than DEFAULT_EPS_GRID",
    "sweep_energy.eps_grid": "tests sweep other windows than DEFAULT_EPS_GRID",
}


def _unpassed_options(trees: dict[str, ast.Module], callers: list[ast.AST]) -> list[str]:
    """``function.parameter`` for each defaulted parameter of a public top-level function in
    ``trees`` that no call in ``callers`` passes, by position or by keyword.

    Calls are matched by the bare or attribute name of the callee; ``*args`` passes every
    positional parameter and ``**kwargs`` every keyword.
    """
    n_pos, keywords = {}, {}
    for call in (node for tree in callers for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        n_pos[name] = max(n_pos.get(name, 0), math.inf if starred else len(call.args))
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords)  # None for **kwargs
    found = []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            defaulted = [(i, p.arg) for i, p in enumerate(params[first:], first)]
            defaulted += [(math.inf, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            kws = keywords.get(node.name, set())
            found += [f"{node.name}.{arg}" for i, arg in defaulted
                      if i >= n_pos.get(node.name, 0) and arg not in kws and None not in kws]
    return found


def test_every_option_is_passed_by_a_caller():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    bench = [ast.parse(p.read_text()) for p in (SRC.parents[1] / "perfbench").glob("*.py")]
    assert sorted(_unpassed_options(trees, [*trees.values(), *bench])) == sorted(TEST_OPTIONS)


def test_unpassed_option_check_sees_calls():
    tree = ast.parse("def f(a, b=1, *, c=2):\n    pass\ndef g(x=0, y=1):\n    pass\n"
                     "def h(z=0):\n    pass\ndef k(*, w=0):\n    pass\ndef _private(v=0):\n    pass\n")
    caller = ast.parse("f(0, 1)\nm.g(y=3)\nh(*args)\nk(**opts)\n")
    assert _unpassed_options({"a": tree}, [caller]) == ["f.c", "g.x"]
