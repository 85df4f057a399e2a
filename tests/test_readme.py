"""The README's Library section is the package's documented surface: its
example runs as written, and the top-level exports are the names it uses."""

import os
import re
import subprocess
import sys

import easerl

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def library_section() -> str:
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_library_example_runs_from_the_repo_root():
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2].split()[0] == "True"  # the ease_barrier run converged
    assert lines[-1] == "False"  # and its mean path changed class


def test_every_export_is_named_in_the_library_section():
    section = library_section()
    assert [n for n in easerl.__all__ if not re.search(rf"\b{n}\b", section)] == []
