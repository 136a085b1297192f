"""Checks over the package source: every export has a caller, every defaulted
parameter of an export is passed somewhere, every member of an exported class
is read somewhere, every module-level function and class is used, no import
is unused, one function starts worker processes, and text files are split
into lines in one place."""

import ast
import dataclasses
import inspect
import re
from collections import defaultdict
from pathlib import Path

import mfid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(mfid.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# Exported names with no caller in the package or the acceptance suite, and why
# they stay.
UNCALLED_EXPORTS = {
    "save_split": "the only writer of the train --split / eval --split-file format",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(tree):
    """Names a module reads as code: variables and attributes, not strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def module_imports(tree):
    """(bound name, line) of each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_exports_are_documented_and_called():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"`([A-Za-z_]\w*)`", section)
    assert "draw_pairs" in documented
    assert [name for name in documented if not hasattr(mfid, name)] == []

    exports = [name for name, _ in module_imports(parse(PACKAGE / "__init__.py"))]
    assert "draw_pairs" in exports
    called = set().union(*(referenced_names(parse(path)) for path in MODULES),
                         referenced_names(parse(ROOT / "tests" / "test_acceptance.py")))
    uncalled = {name for name in exports if name not in called}
    assert uncalled == set(UNCALLED_EXPORTS)


# Defaulted parameters of exports (dataclass fields included) that no package
# module or acceptance check passes, and why they stay.
UNPASSED_DEFAULTS = {
    "logreg_fit.max_iter": "tests pass it to force a fit that does not converge",
    "logreg_fit.tol": "tests pass it to force a fit that does not converge",
    "detection_report.iou_threshold": "mirrors match_detections' iou_threshold",
}


def passed_arguments(trees):
    """For each called name, the keywords it is passed and the most positional
    arguments one call passes.  A ``cls(...)`` call inside a class body counts
    as a call of that class."""
    keywords, positions = defaultdict(set), defaultdict(int)
    for tree in trees:
        owner = {call: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for call in ast.walk(cls)
                 if isinstance(call, ast.Call) and call_name(call) == "cls"}
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = owner.get(call, call_name(call))
                keywords[name].update(keyword.arg for keyword in call.keywords)
                positions[name] = max(positions[name], len(call.args))
    return keywords, positions


def test_defaulted_parameters_have_a_caller():
    # A default that no caller overrides is a knob with one value: a constant.
    keywords, positions = passed_arguments(
        [parse(path) for path in MODULES] + [parse(ROOT / "tests" / "test_acceptance.py")])
    unpassed = set()
    for name, _ in module_imports(parse(PACKAGE / "__init__.py")):
        params = inspect.signature(getattr(mfid, name)).parameters.values()
        for position, param in enumerate(params):
            by_position = (param.kind is param.POSITIONAL_OR_KEYWORD
                           and position < positions[name])
            if (param.default is not param.empty and param.name not in keywords[name]
                    and not by_position):
                unpassed.add(f"{name}.{param.name}")
    assert unpassed == set(UNPASSED_DEFAULTS)


# Members of exported classes that no package module or acceptance check reads,
# and why they stay: each is a computed result the caller asked for.
UNREAD_MEMBERS = {
    "LogRegModel.c_value": "the chosen C",
    "LogRegModel.validation_accuracy": "the C-selection record",
    "LogRegModel.objective_history": "the solver trace that tests check",
    "PCAModel.explained_variance": "PCA's kept variance",
    "PCAModel.total_variance": "PCA's total variance",
    "DetectionReport.mean_ap": "the report's result",
    "DetectionReport.per_image": "the report's result",
}


def class_members(cls, node):
    """Dataclass fields, non-dunder methods and properties, and the public
    attributes ``__init__`` assigns on ``self``, of class ``cls`` defined by
    ``node``."""
    members = ({f.name for f in dataclasses.fields(cls)}
               if dataclasses.is_dataclass(cls) else set())
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
            members.add(item.name)
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            members.update(target.attr for target in ast.walk(item)
                           if isinstance(target, ast.Attribute)
                           and isinstance(target.ctx, ast.Store)
                           and isinstance(target.value, ast.Name)
                           and target.value.id == "self"
                           and not target.attr.startswith("_"))
    return members


def test_class_members_have_a_reader():
    # A member that nothing reads only echoes an argument or re-derives other
    # fields; a computed result stays only if listed above.  Reads match by
    # name, so a member is seen as read when any attribute of its name is:
    # args.config in cli.py would have hidden an unread TrainedModel.config.
    trees = [parse(path) for path in MODULES]
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    read = {node.attr for tree in trees + [parse(ROOT / "tests" / "test_acceptance.py")]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for name, _ in module_imports(parse(PACKAGE / "__init__.py")):
        cls = getattr(mfid, name)
        if inspect.isclass(cls):
            unread.update(f"{name}.{member}" for member in class_members(cls, classes[name])
                          if member not in read)
    assert unread == set(UNREAD_MEMBERS)


def test_no_unused_module_imports():
    # __init__.py imports only to re-export; the test above checks those names.
    unused = []
    for path in MODULES:
        tree = parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in module_imports(tree) if name not in read]
    assert unused == []


def test_module_level_definitions_are_used():
    # A function or class that no package module reads and __init__ does not
    # export is an orphan: its last caller went away and it stayed behind.
    exports = {name for name, _ in module_imports(parse(PACKAGE / "__init__.py"))}
    trees = {path.name: parse(path) for path in MODULES}
    read = set().union(*(referenced_names(tree) for tree in trees.values()))
    orphans = [f"{module}:{node.lineno}: {node.name}"
               for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name not in read and node.name not in exports]
    assert orphans == []


# Calls that start processes or threads, or choose how processes start.
PARALLEL_CALLS = {"get_context", "set_start_method", "ProcessPoolExecutor",
                  "ThreadPoolExecutor", "Pool", "Process", "Thread", "fork"}


def call_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_parallel_mechanism():
    # Everything that runs in parallel goes through one forked-worker map
    # (ROADMAP aim 2); a second pool or start method is a second mechanism.
    sites = [(path.name, node.lineno, call_name(node)) for path in MODULES
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Call) and call_name(node) in PARALLEL_CALLS]
    assert sorted(name for _, _, name in sites) == ["ProcessPoolExecutor", "get_context"]
    (map_indexed,) = [node for node in parse(PACKAGE / "dataset.py").body
                      if isinstance(node, ast.FunctionDef) and node.name == "_map_indexed"]
    assert all(module == "dataset.py"
               and map_indexed.lineno <= line <= map_indexed.end_lineno
               for module, line, _ in sites)


def test_one_line_reader():
    # Text inputs are split into lines by dataset._range_lines alone (ROADMAP
    # aim 2), so every format ends lines at LF, CRLF or a lone CR and nowhere
    # else; str.splitlines also ends them at \x0c, \x1c and others.
    calls = [f"{path.name}:{node.lineno}: {call_name(node)}"
             for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and call_name(node) in ("splitlines", "readlines", "read_text")]
    assert calls == []
