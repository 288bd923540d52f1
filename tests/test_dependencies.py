"""Dependency hygiene: what the code imports is declared, and CI installs it.

A third-party import that ``pyproject.toml`` does not declare works on a
developer's machine and breaks on a clean one; a CI job that installs less
than the package declares cannot even import it.  Both are checked from
the source text: imports by walking the AST of every module (stdlib names
come from ``sys.stdlib_module_names``), CI installs by reading the
``pip install`` lines of each job in ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(spec_list: str) -> set[str]:
    """Distribution names from the body of a TOML string list."""
    return {_norm(re.split(r"[<>=!~\[;\s]", s, maxsplit=1)[0])
            for s in re.findall(r'"([^"]+)"', spec_list)}


def _norm(name: str) -> str:
    return name.lower().replace("-", "_")


def _pyproject_list(key: str) -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, f"pyproject.toml has no {key} list"
    return _names(match.group(1))


def _third_party_imports(root: Path, local: set[str]) -> dict[str, set[str]]:
    """Top-level third-party module name -> files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in sys.stdlib_module_names or top in local or top == "__future__":
                    continue
                found.setdefault(_norm(top), set()).add(str(path.relative_to(ROOT)))
    return found


def _ci_installs() -> dict[str, set[str]]:
    """CI job name -> every package its ``pip install`` lines name."""
    jobs: dict[str, set[str]] = {}
    job = None
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for line in text.split("\njobs:\n", 1)[1].splitlines():
        header = re.match(r"^  ([\w-]+):\s*$", line)
        if header:
            job = header.group(1)
            jobs[job] = set()
        elif job and "pip install" in line:
            args = line.split("pip install", 1)[1].split()
            jobs[job] |= {_norm(re.split(r"[<>=!~\[]", a, maxsplit=1)[0].strip("\"'"))
                          for a in args if not a.startswith("-")}
    return jobs


def test_package_imports_are_declared():
    runtime = _pyproject_list("dependencies")
    imports = _third_party_imports(ROOT / "src" / "repro", {"repro"})
    undeclared = {name: files for name, files in imports.items() if name not in runtime}
    assert not undeclared, f"imported but not in [project].dependencies: {undeclared}"


def test_test_imports_are_declared():
    declared = _pyproject_list("dependencies") | _pyproject_list("test")
    local = {"repro", "tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    imports = _third_party_imports(ROOT / "tests", local)
    undeclared = {name: files for name, files in imports.items() if name not in declared}
    assert not undeclared, f"imported by tests but not declared: {undeclared}"


def test_ci_jobs_install_declared_dependencies():
    runtime = _pyproject_list("dependencies")
    jobs = _ci_installs()
    assert "tests" in jobs
    for job, installed in jobs.items():
        if job == "lint":  # runs ruff only; never imports the package
            continue
        missing = runtime - installed
        assert not missing, f"CI job {job!r} does not install {sorted(missing)}"
    local = {"repro", "tests"} | {p.stem for p in (ROOT / "tests").glob("*.py")}
    needed = set(_third_party_imports(ROOT / "tests", local)) | {"pytest"}
    missing = needed - jobs["tests"]
    assert not missing, f"the tier-1 job does not install {sorted(missing)}"
