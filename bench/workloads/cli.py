"""cli_verbs: ``python -m repro <verb>`` from process start to exit.

One subprocess at a time with stdout captured; work is counted in verbs.
Nothing of ``repro`` is imported here — every op is its own interpreter,
which is the point: the latency is dominated by ``repro.cli`` /
``repro.registry`` import and catalog load.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys

from . import Op, Outcome, Workload

#: The only wall-clock text in the pinned verbs' stdout.
_WALL = re.compile(r"\d+\.\d+s wall")


def verb_argv(verb: dict, seed: int) -> list:
    argv = list(verb["argv"])
    if verb.get("seeded"):
        argv += ["--seed", str(seed)]
    return argv


def run_verb(argv: list, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          capture_output=True, text=True)


class CliOp(Op):
    def __init__(self, workload: "CliVerbs", verb: dict):
        self.name = verb["name"]
        self.verb = verb
        self.workload = workload
        self.argv = verb_argv(verb, workload.ctx.seed)

    def run(self, rec):
        with rec.span("python -m repro " + " ".join(self.argv), "repro.cli"):
            return run_verb(self.argv, self.workload.ctx.tmp)

    def check(self, proc) -> Outcome:
        failures = []
        if proc.returncode != 0:
            failures.append(f"exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-200:]}")
        elif self.verb["marker"] not in proc.stdout:
            failures.append(f"stdout lacks {self.verb['marker']!r}")
        stdout = _WALL.sub("<wall>", proc.stdout)
        # The two executors must print the same table.
        self.workload.stdout[self.name] = stdout
        if self.name == "run-compiled":
            threaded = self.workload.stdout.get("run")
            table = stdout.split("\n\nsimulation backend:")[0]
            if threaded is not None and table.strip() != threaded.strip():
                failures.append("compiled stdout differs from threaded")
        return Outcome(
            work=1, failures=failures,
            facts={f"stdout.{self.name}":
                   hashlib.sha256(stdout.encode()).hexdigest()})


class CliVerbs(Workload):
    work_unit = "verbs"

    def setup(self) -> None:
        self.stdout = {}
        self.ops = [CliOp(self, verb) for verb in self.ctx.cfg["cli_verbs"]]
