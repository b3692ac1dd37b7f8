"""Tests of the package as a whole: its exception classes, its public names, its import graph,
which module owns the certificate, the config and the output files, and the
README's library example.
"""

import ast
import builtins
import re
import types
from pathlib import Path

import hkbnet
from hkbnet import bounds, config, runner

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "hkbnet"

BUILTIN_EXCEPTIONS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _names(nodes) -> set[str]:
    """Every name and attribute name in the given expressions (e.g. Error, mod.Error)."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def test_every_exception_class_is_caught():
    # a class that no except clause names adds code but no behavior: raise a builtin instead
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    defined: set[str] = set()
    grew = True
    while grew:  # a subclass of an exception class is one too
        known = BUILTIN_EXCEPTIONS | defined
        new = {c.name for c in classes if c.name not in defined and _names(c.bases) & known}
        defined |= new
        grew = bool(new)
    caught = _names(node.type for node in nodes if isinstance(node, ast.ExceptHandler) and node.type)
    assert defined, "no exception class found; the scan is broken"
    assert sorted(defined - caught) == []


def test_every_public_definition_is_named_outside_the_tests():
    # an interface that only unit tests reach is one more path to keep equal to the one that runs;
    # the acceptance tests count, as the paper's criteria, and so does the benchmark.  Public
    # methods count in private classes too, such as _Protocol.add_coupling
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    defined = set()
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")}
    readers = modules + sorted((REPO_ROOT / "perfbench").rglob("*.py")) + [REPO_ROOT / "tests" / "test_acceptance.py"]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in readers]
    named = _names(trees) | {node.name.split(".")[-1] for tree in trees for node in ast.walk(tree)
                             if isinstance(node, ast.alias)}
    assert {"integrate", "Entrainment.active", "_Protocol.add_coupling"} <= defined, "the scan is broken"
    assert "integrate" in named, "the scan is broken"
    assert sorted(name for name in defined if name.split(".")[-1] not in named) == []


def _package_imports() -> dict[str, set[str]]:
    """Each submodule's name mapped to the submodules it imports, relatively or as hkbnet.<name>."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for name in modules:
        imported = set()
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # from .graph import x names a module; from . import graph names one per alias
                imported |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hkbnet"):
                parts = node.module.split(".")
                imported |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                imported |= {a.name.split(".")[1] for a in node.names if a.name.startswith("hkbnet.")}
        graph[name] = imported & modules - {name}
    return graph


def test_import_graph_has_no_cycle_and_config_stays_below_execution():
    graph = _package_imports()
    assert {"config", "runner"} <= graph["cli"], "cli's imports not found; the scan is broken"
    # the config layer builds and checks a run; it may not reach what runs or analyses one
    assert sorted(graph["config"] & {"runner", "cli", "metrics", "phase"}) == []
    state = {}  # module -> "open" while on the depth-first path, "done" after

    def visit(name, path):
        if state.get(name) == "open":
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if state.get(name) is None:
            state[name] = "open"
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            state[name] = "done"

    for name in sorted(graph):
        visit(name, [])


def test_runner_leaves_the_certificates_to_bounds():
    # hkbnet.bounds alone evaluates the certificates: runner re-exports bounds_rows
    # and BoundsOptions, and names nothing else of bounds
    defined = {node.name for node in ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    tree = ast.parse((PACKAGE / "runner.py").read_text(encoding="utf-8"))
    names = _names([tree]) | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert sorted(names & defined) == ["BoundsOptions", "bounds_rows"]
    assert runner.bounds_rows is bounds.bounds_rows
    # bounds.quad_hypotheses alone decides where the Lyapunov certificate applies,
    # for bounds.csv and for config's validate diagnostics
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    names = _names([tree])
    assert "quad_hypotheses" in names, "quad_hypotheses not found in config.py; the scan is broken"
    assert sorted(names & {"common_gamma", "has_spectral_gap", "neighbor_lambda2"}) == []


def test_runner_leaves_the_config_to_config():
    # hkbnet.config alone parses config text and defines the run contract
    tree = ast.parse((PACKAGE / "runner.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert "run" in defined and "contextlib" in imported, "runner's names not found; the scan is broken"
    assert "configparser" not in imported
    assert sorted(defined & {"RunConfig", "load_config", "_section", "_take"}) == []
    # the names callers look up on runner are the config module's own
    assert (runner.load_config, runner.preset_config, runner.SweepSpec, runner.RunConfig) == (
        config.load_config, config.preset_config, config.SweepSpec, config.RunConfig)


def test_cli_leaves_the_output_files_to_runner():
    # runner alone names, creates and opens a verb's output files, before the verb integrates
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = _names(node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    assert "print" in called, "no call found; the scan is broken"
    assert sorted(called & {"mkdir", "open"}) == []
    # a file name, not help text that mentions one
    texts = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [text for text in texts if re.fullmatch(r"\S+\.csv", text)] == []


def test_cli_leaves_swept_fields_to_config():
    # config.apply_overrides alone decides which flags a swept field forbids
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    texts = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert any("--duration" in text for text in texts), "cli's strings not found; the scan is broken"
    assert [text for text in texts if re.search(r"\b(protocol|entrainment|simulation)\.", text)] == []


def _readme_library_example() -> str:
    """The code block of the README's "Library use" section."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_package_exports_only_the_readme_example_names():
    # every other public name has one import path, its own module's
    imported = {alias.name for node in ast.walk(ast.parse(_readme_library_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "hkbnet" for alias in node.names}
    assert "integrate" in imported, "the README example's import not found; the scan is broken"
    exported = {name for name, value in vars(hkbnet).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(exported) == sorted(imported)


def test_readme_library_use_runs(capsys):
    exec(_readme_library_example(), {})
    rho_g_mean, rho_k = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(rho_g_mean) <= 1.0
    assert rho_k.startswith("[")
