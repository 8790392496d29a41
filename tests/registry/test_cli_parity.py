"""Parity tests: ``repro run <name>`` vs each legacy verb.

The dedicated experiment verbs and the generic ``run`` verb are two
argv spellings of one code path: both parse to a
:class:`repro.jobs.JobRequest` and hand it to :func:`repro.jobs.execute`
(whose determinism — equal requests, equal canonical payloads —
``test_jobs.py`` pins).  So parity is checked where the spellings can
differ, at the request each one builds, and every experiment is
executed once, through ``run``.
"""

import json

import pytest

from repro import jobs, registry
from repro.cli import main

#: Per-experiment shrunken arguments: (legacy verb flags, run -p form).
#: Both spellings must describe the same parameter values.
FAST_ARGS = {
    "fig3": (["--ports", "2", "--txns", "5"],
             ["-p", "ports=2", "-p", "txns=5"]),
    "verify": (["--max-examples", "4", "--checks", "differential,li"],
               ["-p", "max_examples=4", "-p", "checks=differential,li"]),
}


@pytest.fixture
def tiny_fig6(monkeypatch):
    """Shrink fig6 to one tiny workload (the default takes minutes)."""
    from repro.workloads.soc_workloads import vector_scale_workload

    monkeypatch.setattr(
        "repro.experiments.fig6_soc.fig6_workloads_small",
        lambda: [vector_scale_workload(n_pes=2, n_per_pe=4)])


@pytest.mark.parametrize("name", registry.names(runnable=True))
def test_run_verb_matches_legacy_verb(name, tmp_path, capsys, request,
                                      monkeypatch):
    if name == "fig6":
        request.getfixturevalue("tiny_fig6")
    legacy_flags, run_params = FAST_ARGS.get(name, ([], []))
    seed = ["--seed", "3"] if registry.get(name).seedable else []
    out = tmp_path / "run.json"
    execute, requests = jobs.execute, []

    class Parsed(Exception):
        """The legacy spelling stops once its request is built."""

    def parse_only(req, **kwargs):
        requests.append((req, kwargs))
        raise Parsed

    def record_and_execute(req, **kwargs):
        requests.append((req, kwargs))
        return execute(req, **kwargs)

    monkeypatch.setattr(jobs, "execute", parse_only)
    with pytest.raises(Parsed):
        main([name, *legacy_flags, *seed, "--json", str(out)])
    monkeypatch.setattr(jobs, "execute", record_and_execute)
    assert main(["run", name, *run_params, *seed, "--json", str(out)]) == 0

    legacy, run = requests
    assert legacy == run
    assert f"wrote {out}" in capsys.readouterr().out
    assert json.loads(out.read_text())


def test_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "frobnicate"])


def test_run_rejects_unknown_parameter(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig3", "-p", "bogus=1"])
    err = capsys.readouterr().err
    assert "no parameter 'bogus'" in err
    assert "ports" in err  # the error names the known parameters


def test_run_rejects_malformed_parameter():
    with pytest.raises(SystemExit):
        main(["run", "fig3", "-p", "ports"])


def test_run_param_values_go_through_declared_types(tmp_path, capsys):
    # txns is declared type=int: "5" must parse, "x" must not.
    assert main(["run", "fig3", "-p", "ports=2", "-p", "txns=5",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["run", "fig3", "-p", "txns=x"])


def test_describe_covers_every_runnable_experiment(capsys):
    for name in registry.names(runnable=True):
        assert main(["describe", name]) == 0
        out = capsys.readouterr().out
        spec = registry.get(name)
        assert spec.summary in out
        assert f"{spec.schema}/v{spec.schema_version}" in out
        for param in spec.params:
            assert param.flag in out


def test_list_shows_capability_tags(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "available experiments" in out
    assert "sweep:fig3_crossbar" in out
    assert "faults:stall_verification" in out
    assert "replay:trace" in out
    assert "run <experiment>" in out and "describe <experiment>" in out
