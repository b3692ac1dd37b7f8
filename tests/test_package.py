"""Tests of the package as a whole: its exception classes, the runner's
use of the certificate, the cli's hands-off output files, and the README's
library example.
"""

import ast
import builtins
import re
from pathlib import Path

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


def test_runner_leaves_the_certificate_hypotheses_to_bounds():
    # bounds.quad_hypotheses alone decides where the Lyapunov certificate applies
    tree = ast.parse((PACKAGE / "runner.py").read_text(encoding="utf-8"))
    names = _names([tree]) | {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
    assert "quad_hypotheses" in names, "quad_hypotheses not found; the scan is broken"
    assert sorted(names & {"common_gamma", "has_spectral_gap", "neighbor_lambda2"}) == []


def test_cli_leaves_the_output_files_to_runner():
    # runner alone names, creates and opens a verb's output files, before the verb integrates
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = _names(node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    assert "print" in called, "no call found; the scan is broken"
    assert sorted(called & {"mkdir", "open"}) == []
    # a file name, not help text that mentions one
    texts = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [text for text in texts if re.fullmatch(r"\S+\.csv", text)] == []


def test_readme_library_use_runs(capsys):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    rho_g_mean, rho_k = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(rho_g_mean) <= 1.0
    assert rho_k.startswith("[")
