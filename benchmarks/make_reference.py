"""Regenerate the full-dynamic references the hybrid workloads are checked
against.

Run from the repository root:

    python3 benchmarks/make_reference.py

For each hybrid workload this runs the same study in ``--mode dynamic``
through the command line, keeps the channels its acceptance criterion
compares (frequency and four bus voltages for fourbus, thirteen bus
voltages for ne39) at every REF_DT seconds, and writes them to
``benchmarks/reference/<case>-dynamic.csv``.  It takes about a minute.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

from workloads import (  # noqa: E402
    REF_DT,
    REFERENCE_DIR,
    WORKLOADS,
    on_ref_grid,
    read_trajectory,
)


def main() -> int:
    from hesim.cli import main as hesim_main

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("fourbus-hybrid", "ne39-hybrid"):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            out = Path(tmp) / "dynamic.csv"
            rc = hesim_main(["simulate", f"builtin:{w.case}", "--mode",
                             "dynamic", "--dt-out", "0.1", "--t-end",
                             repr(w.t_end), "--out", str(out)])
            if rc != 0:
                print(f"error: {name}: dynamic run failed", file=sys.stderr)
                return 1
            names, rows, _ = read_trajectory(out.read_text())
        col = [names.index(c) for c in w.channels]
        lines = [f"# full-dynamic reference for {name}: "
                 f"hesim simulate builtin:{w.case} --mode dynamic "
                 f"--dt-out 0.1 --t-end {w.t_end!r}, every {REF_DT} s",
                 ",".join(["time", *w.channels])]
        for row in rows:
            if on_ref_grid(row[0]):
                t = round(row[0] / REF_DT) * REF_DT
                lines.append(",".join([repr(t)] + [repr(row[i]) for i in col]))
        path = REFERENCE_DIR / w.reference
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path} ({len(lines) - 2} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
