"""Child processes, set-up probes and the reference work, shared by run.py and worker.py."""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

SETUP_CODE = "import cdmetrics.cli; print(cdmetrics.cli.__file__)"
# What the reference interpreter for CLI calls imports: standard-library
# modules and numpy, none of them part of cdmetrics.
REFERENCE_IMPORTS = "import decimal, email.parser, http.client, json, statistics, unittest, numpy"


def spawn(argv, env, stdout_path: Path, stderr_path: Path):
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch cdmetrics.

    It builds a graph of 10 000 named nodes with 3 edges each and walks it
    depth-first, with string-keyed dict and set lookups as the program's
    graph core does, and takes about 0.02 s on a 2-vCPU x86_64 VM.  Timed
    before and after each operation, it tells how fast the host ran while
    the operation did.  The collector is off meanwhile: a collection would
    walk the caller's heap, whose size has nothing to do with the host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        names = [f"C{i}" for i in range(10_000)]
        edges = {name: [names[(i * 7 + k * 1361) % 10_000] for k in range(1, 4)]
                 for i, name in enumerate(names)}
        seen = set()
        for root in names:
            stack = [root]
            while stack:
                name = stack.pop()
                if name not in seen:
                    seen.add(name)
                    stack.extend(edges[name])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def reference_spawn_seconds(env, out_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports REFERENCE_IMPORTS.

    The reference for CLI calls, which are mostly a fresh interpreter
    loading modules: the host slows that down less than it slows the graph
    walk of reference_seconds, so a CLI call is divided by work of its kind.
    """
    err = out_dir / "reference.err"
    code, wall, _ = spawn(["-c", REFERENCE_IMPORTS], env, out_dir / "reference.out", err)
    if code != 0:
        raise RuntimeError(f"the reference interpreter failed:\n{err.read_text()[-2000:]}")
    return wall


class SetupProbes:
    """Times `import cdmetrics.cli` in fresh interpreters, spread over a run.

    `due(elapsed)` runs the probes whose turn has come, so that `count` of
    them fall evenly over `seconds` of the run's own work (time spent in
    probes is not counted); `finish()` runs any left.  Each child
    prints where it imported cdmetrics from, which must be `src`.
    """

    def __init__(self, count: int, seconds: float, env, out_dir: Path, src: Path):
        self.count, self.seconds, self.env = count, seconds, env
        self.out, self.err = out_dir / "setup.out", out_dir / "setup.err"
        self.expected = (src / "cdmetrics" / "cli.py").resolve()
        self.times: list[float] = []
        self.spent = 0.0  # seconds spent in probes, checks included

    def run_one(self):
        start = time.perf_counter()
        code, wall, _ = spawn(["-c", SETUP_CODE], self.env, self.out, self.err)
        if code != 0:
            raise RuntimeError(f"`import cdmetrics.cli` failed:\n{self.err.read_text()[-2000:]}")
        imported = Path(self.out.read_text().strip()).resolve()
        if imported != self.expected:
            raise RuntimeError(f"cdmetrics was imported from {imported}, not {self.expected}")
        self.times.append(wall)
        self.spent += time.perf_counter() - start

    def due(self, elapsed: float):
        while len(self.times) < self.count and len(self.times) <= self.count * elapsed / self.seconds:
            self.run_one()

    def finish(self):
        while len(self.times) < self.count:
            self.run_one()


def pair_references(ops: list, final_reference: float):
    """Give each operation the mean of the reference times taken just before and after it.

    Each operation holds, under "ref", the reference time taken just before
    it; the one after it is that of the next operation, or final_reference.
    """
    after = [op["ref"] for op in ops[1:]] + [final_reference]
    for op, ref_after in zip(ops, after):
        op["ref"] = (op["ref"] + ref_after) / 2
