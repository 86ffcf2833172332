"""Tests that the hand-kept export list names only what exists, that
the package holds no unused imports, nested functions, private names or
private methods, that only the solver constructs a ``StrategyProfile``,
that every name the benchmark's layer hooks wrap exists and each file
hook takes the path first, that neither importing it nor a regression
fit loads a scipy module, and that the README's layout names every
module."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["contestlab"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from contestlab import *", namespace)
    import contestlab
    assert set(contestlab.__all__) <= set(namespace)


# imported but unused in cli.py and hacking.py: the benchmark's layer
# hooks wrap these two names as those modules' attributes, and a hook
# whose target is gone nulls its whole layer
UNUSED_ALLOWED = {("cli.py", "hacking_threshold"), ("hacking.py", "baseline_grid")}


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names a module reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unused_names(tree: ast.Module, package_loads: set[str]) -> list[str]:
    """Module-level imports and nested functions that nothing in the module
    refers to, and module-level private names (``_X = ...``, ``def _f``,
    ``class _C``) and private methods (``def _m`` in a class body, reported
    as ``C._m``) that nothing in the package (``package_loads``) reads."""
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            referenced |= {elt.value for elt in ast.walk(node.value)
                           if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in referenced:
                    unused.append(bound)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for outer in ast.walk(tree):
        if not isinstance(outer, functions):
            continue
        used = {node.id for node in ast.walk(outer) if isinstance(node, ast.Name)}
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, functions) \
                    and inner.name not in used:
                unused.append(inner.name)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [name.id for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name)]
        else:
            continue
        unused += [name for name in defined if name.startswith("_")
                   and not name.startswith("__") and name not in package_loads]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            unused += [f"{cls.name}.{node.name}" for node in cls.body
                       if isinstance(node, functions) and node.name.startswith("_")
                       and not node.name.startswith("__")
                       and node.name not in package_loads]
    return unused


def test_no_unused_imports_or_nested_functions():
    package = Path(importlib.import_module("contestlab").__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    package_loads = set().union(*map(_loaded_names, trees.values()))
    found = {(name, unused) for name, tree in trees.items()
             for unused in _unused_names(tree, package_loads)}
    assert found - UNUSED_ALLOWED == set()


def _callers(tree: ast.Module, name: str) -> list[str]:
    """The innermost function around each call of ``name`` (a bare name or
    an attribute) in a module, ``<module>`` for a call outside any."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_solver_makes_profiles():
    # a profile's convergence is computed from its residual and tol, and
    # only a solve measures a residual, so the solver's return is the one
    # place in the package that constructs a profile
    package = Path(importlib.import_module("contestlab").__file__).parent
    makers = [(path.name, owner) for path in sorted(package.glob("*.py"))
              for owner in _callers(ast.parse(path.read_text(), str(path)),
                                    "StrategyProfile")]
    assert makers == [("equilibrium.py", "solve_equilibrium")]


# hook targets of perfbench/layers.py that name nothing: `cli.py` no
# longer calls `run_contests`; ROADMAP item 4 drops it from the hooks
HOOKS_MISSING_ALLOWED = {"contestlab.cli:run_contests"}


def _lookup(target: str):
    """What ``module:attr`` (or ``module:Class.attr``) names, looked up as
    the benchmark's tracer looks it up; None if it names nothing."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return owner


def _benchmark_hooks(monkeypatch) -> dict:
    """``HOOKS`` of perfbench/layers.py: layer name -> (span, targets)."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    return runpy.run_path(str(perfbench / "layers.py"))["HOOKS"]


def test_benchmark_hook_targets_resolve(monkeypatch):
    # the tracer reads a whole layer as missing when one of its targets
    # is gone, so a renamed name in src/ would null that layer silently
    hooks = _benchmark_hooks(monkeypatch)
    targets = {target for _, names in hooks.values() for target in names}
    assert len(targets) > 20
    missing = {target for target in targets if _lookup(target) is None}
    assert missing - HOOKS_MISSING_ALLOWED == set()


@pytest.mark.parametrize("layer", ["tables.write", "tables.read"])
def test_file_hook_targets_take_the_path_first(monkeypatch, layer):
    # the benchmark's observer for these layers reads the size of the file
    # named by the call's first argument, and its error fails the op
    _, targets = _benchmark_hooks(monkeypatch)[layer]
    assert targets
    for target in targets:
        first = next(iter(inspect.signature(_lookup(target)).parameters.values()))
        assert first.name == "path", target
        assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, target


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has imported scipy itself.
    # numpy is the one runtime dependency, fits included
    src = Path(importlib.import_module("contestlab").__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import contestlab, contestlab.cli
        from contestlab import fe_ols, panel_regressions
        rng = np.random.default_rng(28)
        cid = np.repeat(np.arange(40), 12)
        panel = {"contest_id": cid, "type": rng.uniform(0.5, 1.5, cid.size),
                 "prize_value": np.array([2.0, 10.0])[cid % 2],
                 "prize_skew": cid // 2 % 2, "mu": rng.normal(size=cid.size),
                 "mk_Z": rng.normal(size=cid.size)}
        fe_ols(panel, "mu", ["type"])
        panel_regressions(panel, np.array([0.7, 0.9, 1.1, 1.3]))
        print(*(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_readme_layout_names_every_module():
    package = Path(importlib.import_module("contestlab").__file__).parent
    readme = (package.parent.parent / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    listed = {words[0] for words in map(str.split, layout.splitlines())
              if words and words[0].endswith(".py")}
    public = {path.name for path in package.glob("*.py") if not path.name.startswith("_")}
    assert public - listed == set(), "README's Layout block misses modules"
