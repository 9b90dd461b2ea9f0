"""Which function-body lines of ``src/fishercap`` no test runs: a pytest plugin.

Run the suite with it loaded (``tests`` on the path):

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

A ``sys.settrace`` hook records every line that a frame of a
``src/fishercap`` function runs (a call counts for the function's first
line).  At the end of the session every line that can start an
instruction in a function, a method, a lambda or a comprehension inside
one is compared with what ran; module and class bodies run at import
and are not counted.  An un-run line must be listed in
``tests/data/unrun_lines.json``, keyed by its function's qualified name
and its stripped text (not its number, which moves with every edit),
with the reason no test runs it (an entry covers every line of its
function with that text).  Any other un-run line fails the
session, and is printed as an entry to add.  A listed line that did run
is reported, so that its entry can go.
"""

import inspect
import json
import linecache
import os
import sys
import threading
import types

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src", "fishercap") + os.sep
_LIST = os.path.join(_TESTS, "data", "unrun_lines.json")
_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")

_ran = set()  # (file name, line number)
_traced = {}  # code object -> whether it is from src/fishercap


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    ours = _traced.get(code)
    if ours is None:
        ours = _traced[code] = code.co_filename.startswith(_SRC)
    if not ours:
        return None
    _ran.add((code.co_filename, frame.f_lineno))
    return _local


def _function_lines(path):
    """(qualified name, line number) of every line that starts an instruction in a function of path."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    name = os.path.splitext(os.path.basename(path))[0]
    out = []

    def walk(code, in_function):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            function = bool(const.co_flags & inspect.CO_OPTIMIZED)  # not a module or class body
            counted = function and (in_function or const.co_name not in _COMPREHENSIONS)
            if counted:
                lines = {line for _, _, line in const.co_lines() if line is not None}
                out.extend((f"{name}.{const.co_qualname}", line) for line in sorted(lines))
            walk(const, counted)

    walk(module, False)
    return out


def unrun_lines():
    """[function, line text, file, line number] of every function line that did not run."""
    out = []
    for file in sorted(os.listdir(_SRC)):
        if file.endswith(".py"):
            path = _SRC + file
            out.extend([function, linecache.getline(path, line).strip(), file, line]
                       for function, line in _function_lines(path) if (path, line) not in _ran)
    return out


# installed on import, which ``-p linetrace`` does before any conftest imports fishercap,
# so that the functions run while fishercap is imported are seen too
threading.settrace(_global)
sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    with open(_LIST, encoding="utf-8") as fh:
        listed = {(e["function"], e["line"]): e for e in json.load(fh)}
    unrun = unrun_lines()
    new = [u for u in unrun if (u[0], u[1]) not in listed]
    ran = sorted(set(listed) - {(u[0], u[1]) for u in unrun})
    report = [f"linetrace: {len(unrun)} function lines of src/fishercap did not run, "
              f"{len(unrun) - len(new)} of them listed in tests/data/unrun_lines.json"]
    for function, text in ran:
        report.append(f"  listed but ran, drop its entry: {function}: {text}")
    if new:
        report.append("  not listed (give each a test, or delete it, or list it with its reason):")
        report.extend(f"  {file}:{line}  " + json.dumps({"function": function, "line": text, "reason": ""})
                      for function, text, file, line in new)
        session.exitstatus = 1
    print("\n" + "\n".join(report), file=sys.stderr)
