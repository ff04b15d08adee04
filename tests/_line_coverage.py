"""Lines of src/mplkit that compile to bytecode and that a test run never ran.

Run from the repository root, with any pytest arguments:

    PYTHONPATH=src python tests/_line_coverage.py [pytest args]

It installs a line tracer (sys.settrace and threading.settrace) that records
only frames whose code lives under src/mplkit, runs pytest.main with the
given arguments, and prints one `path:line` for every line that carries
bytecode in the compiled module and never ran, then a count per file.  The
package must not be imported before the tracer is in place, so the module
level of each file is traced too.  Lines run only in a subprocess (the CLI
tests that start a fresh interpreter) are not seen and count as never run.

Tracing makes the suite several times slower, so the test suite does not
run this tool; it stands in for a coverage package, which the project does
not depend on.
"""

import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "mplkit")

ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(SRC):
        return None
    ran.setdefault(path, set()).add(frame.f_lineno)
    return _local


def code_lines(code) -> set[int]:
    """Every line that some instruction of a code object, or of one nested
    in it, is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main(args: list[str]) -> int:
    assert "mplkit" not in sys.modules, "mplkit imported before the tracer"
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as handle:
            compiled = compile(handle.read(), path, "exec")
        missed = sorted(code_lines(compiled) - ran.get(path, set()))
        rel = os.path.relpath(path, ROOT)
        for line in missed:
            print(f"{rel}:{line}")
        print(f"{rel}: {len(missed)} lines never ran")
        total += len(missed)
    print(f"total: {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
