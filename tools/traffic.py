"""List the lines of ``src/hesim`` that none of the reference runs reaches.

    python3 tools/traffic.py

The runs are those of ``tools/trajectory_diff.py`` (``runs()``: the
benchmark's argument lists, the north-star runs and the twobus method
comparison).  Each runs in this interpreter, one after the other, through
``hesim.cli.main`` under ``sys.settrace``, restricted to the code of
``src/hesim`` (traced from its import on).  For each module it prints the
executable lines (from every code object's ``co_lines``) that no run
reached, as ranges: ``a-b`` when no executable line between a and b was
reached.  Line tracing makes the runs several times slower than untraced.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from trajectory_diff import HERE, runs

SRC = HERE / "src" / "hesim"


def executable_lines(path: Path) -> set:
    """Every line some instruction of the module's code maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def ranges(missed: list, executable: list) -> list:
    """Runs of consecutive missed lines in the executable-line order."""
    out, pos = [], {line: k for k, line in enumerate(executable)}
    for line in missed:
        if out and pos[line] == pos[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return [f"{a}" if a == b else f"{a}-{b}" for a, b in out]


def main() -> int:
    prefix = str(SRC) + os.sep
    reached: dict = {}  # file -> set of lines

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    os.environ["HESIM_LOG"] = "warning"
    with tempfile.TemporaryDirectory(prefix="traffic_") as tmp:
        tmp = Path(tmp)
        sys.settrace(on_call)
        try:
            argvs = runs(HERE, tmp)  # puts this tree's src on sys.path
            from hesim.cli import main as hesim

            for k, (label, argv, files) in enumerate(argvs):
                extra = ["--out", str(tmp / f"traj{k}.csv"), "--summary",
                         str(tmp / f"run{k}.sum")] if files else []
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = hesim(argv + extra)
                print(f"# {label}: exit {rc}", file=sys.stderr, flush=True)
        finally:
            sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        executable = sorted(executable_lines(path))
        hit = reached.get(str(path), set())
        missed = [line for line in executable if line not in hit]
        print(f"{path.name}: {len(missed)} of {len(executable)} unreached"
              + (": " + ", ".join(ranges(missed, executable))
                 if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
