"""Unit tests for the job-oriented execution core (:mod:`repro.jobs`)."""

import dataclasses
import json

import pytest

from repro import registry
from repro.jobs import KINDS, JobRequest, JobResult, execute
from repro.sweep.point import SweepPoint


def test_request_is_frozen_plain_data():
    req = JobRequest(experiment="backend")
    with pytest.raises(dataclasses.FrozenInstanceError):
        req.experiment = "other"
    assert req.kind == "experiment"
    assert req.backend == "threaded"
    assert req.params == {}


def test_request_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        JobRequest(experiment="backend", kind="nope")
    assert KINDS == ("experiment", "point")


def test_point_requests_require_a_seed():
    with pytest.raises(ValueError, match="seed"):
        JobRequest(experiment="li_latency", kind="point")


def test_identity_omits_default_backend():
    default = JobRequest(experiment="backend").identity()
    assert "backend" not in default
    compiled = JobRequest(experiment="backend",
                          backend="compiled").identity()
    assert compiled["backend"] == "compiled"


def test_from_point_round_trips_the_sweep_point():
    point = SweepPoint(experiment="li_latency",
                       params={"depth": 2, "payload": 3}, seed=11)
    req = JobRequest.from_point(point)
    assert req.kind == "point"
    assert req.experiment == "li_latency"
    assert req.params == {"depth": 2, "payload": 3}
    assert req.seed == 11


def test_execute_analytic_experiment_matches_direct_runner():
    spec = registry.get("backend")
    result = execute(JobRequest(experiment="backend"))
    assert isinstance(result, JobResult)
    assert result.payload == spec.runner({}, None)
    assert result.text == spec.formatter(result.payload)
    assert result.schema == "backend"
    assert result.schema_version == 1
    assert result.wall_seconds >= 0.0
    assert result.session is None  # no telemetry, no trace requested


def test_execute_point_kind_uses_the_sweep_runner():
    sweep = registry.get_sweep("gals_overhead")
    point = sweep.space()[0]
    job = execute(JobRequest.from_point(point))
    direct = sweep.runner(dict(point.params), point.seed)
    assert job.payload == direct
    assert job.text is None  # points have no CLI formatter


def test_execute_unknown_experiment_raises_registry_error():
    with pytest.raises(KeyError, match="unknown experiment"):
        execute(JobRequest(experiment="nope"))


def test_provenance_line_formats_backend_and_fallback():
    base = execute(JobRequest(experiment="backend"))
    assert base.provenance().startswith("simulation backend: ")
    forced = dataclasses.replace(base, backend="threaded",
                                 fallback_reason="demo reason")
    assert forced.provenance() == ("simulation backend: threaded "
                                   "(fallback: demo reason)")


def test_telemetry_flag_yields_a_report_session():
    job = execute(JobRequest(experiment="fig3",
                             params={"ports": "2", "txns": 3},
                             seed=1, telemetry=True),
                  telemetry_label="fig3")
    assert job.session is not None
    report = job.session.report(label="fig3")
    assert report.label == "fig3"


def test_canonical_payload_and_write_json_agree(tmp_path):
    job = execute(JobRequest(experiment="productivity"))
    path = tmp_path / "job.json"
    job.write_json(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == job.canonical_payload()


def test_write_json_is_deterministic_across_runs(tmp_path):
    a, b = (execute(JobRequest(experiment="backend")) for _ in range(2))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write_json(str(pa))
    b.write_json(str(pb))
    assert pa.read_bytes() == pb.read_bytes()


# ----------------------------------------------------------------------
# backend provenance is per job, not whatever ran last in the process
# ----------------------------------------------------------------------
def test_backend_provenance_is_per_job():
    compiled = execute(JobRequest("li-latency", backend="compiled"))
    threaded = execute(JobRequest("li-latency"))
    analytic = execute(JobRequest("backend"))
    assert compiled.backend == "compiled"
    # Neither a threaded-requested nor an analytic run records a
    # backend of its own; both used to inherit "compiled" from the job
    # before them.
    assert (threaded.backend, threaded.fallback_reason) == ("threaded", None)
    assert (analytic.backend, analytic.fallback_reason) == ("threaded", None)
    assert compiled.payload == threaded.payload


def test_serial_mixed_backend_sweep_reports_each_points_own_backend(
        monkeypatch):
    """``jobs=1`` runs every point in this process, back to back.

    A ``PointOutcome`` keeps the point (with the backend it asked for)
    but not the job's provenance, so the jobs are observed on their way
    through the engine.
    """
    import repro.jobs
    from repro.sweep import run_sweep

    seen = {}

    def recording_execute(request, **kwargs):
        job = execute(request, **kwargs)
        seen[kwargs["telemetry_label"]] = job
        return job

    monkeypatch.setattr(repro.jobs, "execute", recording_execute)
    space = registry.get_sweep("li_latency").space()[:4]
    points = [dataclasses.replace(p, backend=b) for p, b in
              zip(space, ("compiled", "threaded", "compiled", "threaded"))]
    result = run_sweep(points, jobs=1, telemetry=False)
    assert not result.errors
    for outcome in result.outcomes:
        job = seen[f"li_latency[{outcome.index}]"]
        assert job.backend == outcome.point.backend
        assert job.fallback_reason is None
