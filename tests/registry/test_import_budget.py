"""Import budget: what a verb may load, asserted on ``sys.modules``.

``python -m repro <verb>`` is dominated by imports, so the budget is
stated as *which modules a verb must not load* — deterministic, unlike
a wall-clock threshold.  Each case runs in a fresh interpreter (the
test process itself has long since imported everything).
"""

import json
import os
import subprocess
import sys

import pytest

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Nothing that prints catalog metadata or an analytic table needs the
#: simulator, the sweep engine, a process pool, or the verifier.
_NO_SIMULATOR = (
    "repro.kernel.simulator", "repro.connections.channel", "repro.soc",
    "repro.noc", "repro.sweep.engine", "repro.faults.campaign",
    "repro.verify.runner", "concurrent.futures", "multiprocessing",
    "hypothesis",
)


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, json, sys\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    {code}\n"
         "print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _modules_after_verb(*argv: str) -> set:
    return _modules_after(
        f"import repro.cli; assert repro.cli.main({list(argv)!r}) == 0")


@pytest.mark.parametrize("argv", [
    ("list",), ("describe", "stalls"), ("backend",), ("productivity",),
], ids=" ".join)
def test_metadata_and_analytic_verbs_load_no_simulator(argv):
    loaded = _modules_after_verb(*argv)
    assert not loaded & set(_NO_SIMULATOR)


def test_running_one_experiment_loads_only_that_experiment():
    loaded = _modules_after_verb("run", "li-latency")
    assert "repro.experiments.li_latency" in loaded
    assert not loaded & {"repro.soc", "repro.noc", "repro.hls",
                         "repro.faults.campaign", "concurrent.futures"}
    others = {m for m in loaded
              if m.startswith("repro.experiments.")} \
        - {"repro.experiments.li_latency"}
    assert not others


def test_loading_the_catalog_imports_nothing_but_the_manifest():
    loaded = _modules_after("from repro import registry; registry.load()")
    assert {m for m in loaded if m.split(".")[0] == "repro"} == {
        "repro", "repro.registry", "repro.catalog"}
