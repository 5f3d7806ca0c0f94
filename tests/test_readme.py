"""README's library examples run as written, and its call forms match the code.

Each ```python block of README.md runs in a fresh interpreter, with the
package's source on the import path and an empty working directory, and
must exit with status 0.  Each backticked call form `name(args)` of the
Library section names a public callable: an `eccsim` export, an
`eccsim.cli` name or a method of an exported class (`traj.upto(t_end)`),
and its plain positional names and its keywords are the signature's
parameters, in order, up to a `...`.  A `dataclasses.` head and a
builtin (an exception raised) are not the package's and are skipped.
"""

import builtins
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eccsim
import eccsim.cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README,
                    re.MULTILINE | re.DOTALL)
LIBRARY = re.sub(r"^```.*?^```", "",
                 README[README.index("## Library"):README.index("## Tests")],
                 flags=re.MULTILINE | re.DOTALL)
FORMS = [form for span in re.findall(r"`([^`]+)`", LIBRARY)
         if re.fullmatch(r"[A-Za-z_][\w.]*\(.*\)",
                         form := " ".join(span.split()))]
CLASSES = [obj for name in eccsim.__all__
           if inspect.isclass(obj := getattr(eccsim, name))]


def test_python_blocks_run(tmp_path):
    assert BLOCKS
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for code in BLOCKS:
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr


def resolve(head: str):
    """The callable a call form's head names, or None."""
    if "." not in head:
        for space in (eccsim, eccsim.cli):
            if callable(found := getattr(space, head, None)):
                return found
    methods = [m for cls in CLASSES
               if inspect.isfunction(m := getattr(cls, head.split(".")[-1],
                                                  None))]
    return methods[0] if len(methods) == 1 else None


def call_form_problem(form: str) -> str | None:
    """Why `form` does not match the code, or None if it does."""
    head, args = re.fullmatch(r"([\w.]+)\((.*)\)", form).groups()
    if head.startswith("dataclasses.") or hasattr(builtins, head):
        return None
    target = resolve(head)
    if target is None:
        return f"{head}: no such public callable"
    params = [p for p in inspect.signature(target).parameters.values()
              if p.name != "self"]
    names = {p.name for p in params if p.kind != p.POSITIONAL_ONLY}
    slots = [p.name for p in params
             if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    positional = True
    for i, arg in enumerate(a.strip() for a in args.split(",") if a.strip()):
        if arg == "...":
            positional = False
        elif "=" in arg:
            if arg.split("=")[0].strip() not in names:
                return f"{head}: no parameter {arg.split('=')[0]!r}"
        elif positional and i >= len(slots):
            return f"{head}: takes {len(slots)} positional arguments"
        elif positional and arg.isidentifier() and arg != slots[i]:
            return f"{head}: argument {i + 1} is {slots[i]!r}, not {arg!r}"
    return None


def test_library_call_forms_match_the_code():
    assert len(FORMS) > 10
    assert [(f, call_form_problem(f)) for f in FORMS
            if call_form_problem(f)] == []


@pytest.mark.parametrize("form", [
    "replay_forward(cfg, traj)",
    'integral_utility(traj, "ccp", rho)',
    "solve_ssec(cfg, x0, dt, t_span)",
    "integrate_ode(field, x0, t_span, dt, projected=True)",
    "rate(x)",
])
def test_stale_call_forms_are_caught(form):
    assert call_form_problem(form) is not None
