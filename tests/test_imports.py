"""Every import in the package is used by the module that makes it, every
top-level function and class and every method is named outside its own
definition, every parameter default is overridden by some call, every
config field is set by some program caller, and every installed script
names a function that exists."""

import ast
import dataclasses
import importlib
import pathlib

import pytest

from symvo.pipeline import PipelineConfig
from symvo.synth import SceneSpec

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "symvo").glob("*.py"))
BENCHMARK = sorted((ROOT / "vobench").glob("*.py"))

# top-level names that only callers outside the package and its benchmark
# reach, each with the reason it stays
ENTRY_POINTS = {
    "ablation_grid": "the study's leave-one-out grid, the paper's headline table",
    "evaluate_cost": "the per-row cost report the solver's results are checked by",
    "export": "writes a synthetic sequence to disk for load_frames to read",
    "load_frames": "reads a sequence directory, the input of a run from disk",
    "load_ground_truth": "reads the ground truth that load_frames' frames pair with",
}
# methods that only callers outside the package and its benchmark reach
ENTRY_METHODS = {
    "to_dict": "a run's or a study's report as JSON-ready values, for its writer",
}


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def mentions(tree: ast.Module):
    """(top-level statement index, line, name) of every name a module
    mentions: identifiers, attribute names and the dotted parts of string
    constants, such as the benchmark tracer's target names."""
    for i, stmt in enumerate(tree.body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield i, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield i, node.lineno, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for part in node.value.split("."):
                    yield i, node.lineno, part


TREES = {path: ast.parse(path.read_text()) for path in SOURCES + BENCHMARK}


def test_every_top_level_name_is_used():
    where = {}
    for path, tree in TREES.items():
        for i, _, name in mentions(tree):
            where.setdefault(name, set()).add((path, i))
    defined, dead = set(), []
    for path in SOURCES:
        for i, node in enumerate(TREES[path].body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if (node.name not in ENTRY_POINTS
                        and not where.get(node.name, set()) - {(path, i)}):
                    dead.append(f"{path.name}:{node.name}")
    assert dead == []
    assert set(ENTRY_POINTS) <= defined


def package_defs():
    """(path, class name or None, def) of every top-level function and
    every method of a top-level class in the package."""
    for path in SOURCES:
        for node in TREES[path].body:
            if isinstance(node, ast.FunctionDef):
                yield path, None, node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        yield path, node.name, member


def test_every_method_is_named_outside_its_definition():
    """A method or property that no code of the package or its benchmark
    names (dunder methods aside, which Python calls) is reached only by
    tests."""
    where = {}
    for path, tree in TREES.items():
        for _, line, name in mentions(tree):
            where.setdefault(name, []).append((path, line))
    methods, dead = set(), []
    for path, cls, fn in package_defs():
        if cls is None or fn.name.startswith("__"):
            continue
        methods.add(fn.name)
        first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
        if fn.name not in ENTRY_METHODS and all(
                p == path and first <= line <= fn.end_lineno
                for p, line in where.get(fn.name, [])):
            dead.append(f"{path.name}:{cls}.{fn.name}")
    assert dead == []
    assert set(ENTRY_METHODS) <= methods


def passes(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``position`` among
    the call's positional arguments (None for keyword-only); a starred
    argument may pass any parameter of its kind."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (position < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_parameter_default_is_overridden_by_a_call():
    """A parameter that every call leaves at its default is a constant."""
    calls = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    constant = []
    for path, cls, fn in package_defs():
        args = fn.args
        positional = args.posonlyargs + args.args
        # a call to a method or class passes no ``self`` or ``cls``
        shift = int(cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
        defaulted = [(i - shift, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        callee = cls if fn.name == "__init__" else fn.name
        for position, name in defaulted:
            if not any(passes(c, position, name) for c in calls.get(callee, [])):
                owner = f"{cls}." if cls else ""
                constant.append(f"{path.name}:{owner}{fn.name}({name})")
    assert constant == []


CONFIGS = (SceneSpec, PipelineConfig)


def names_set(tree: ast.Module) -> set:
    """Names a module sets as fields: keyword arguments of calls to a
    config class, ``replace`` or ``dict``, and string keys of dict literals."""
    setters = {cls.__name__ for cls in CONFIGS} | {"replace", "dict"}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in setters:
                out |= {kw.arg for kw in node.keywords if kw.arg}
        elif isinstance(node, ast.Dict):
            out |= {k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    return out


def test_every_config_field_is_set_by_a_program_caller():
    """A field that only its default sets is a constant: the program and
    its benchmark run one value of it."""
    set_names = set().union(*(names_set(ast.parse(path.read_text()))
                              for path in SOURCES + BENCHMARK))
    unset = [f"{cls.__name__}.{f.name}" for cls in CONFIGS
             for f in dataclasses.fields(cls) if f.name not in set_names]
    assert unset == []


def test_declared_scripts_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function)), name

