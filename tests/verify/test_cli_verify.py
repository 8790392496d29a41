"""The ``repro verify`` verb: exit codes, JSON, and failure replay."""

import json

import pytest

from repro.cli import main
from repro.verify.profiles import active_profile


def test_verify_verb_reports_and_exits_zero(capsys):
    assert main(["verify", "--max-examples", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "verification campaign: profile=dev" in out
    for family in ("differential", "li", "classification", "stateful"):
        assert family in out
    assert "all oracles held" in out


def test_verify_json_payload(tmp_path, capsys):
    path = tmp_path / "verify.json"
    assert main(["verify", "--max-examples", "2", "--seed", "0",
                 "--checks", "differential", "--json", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["ok"] is True
    assert payload["checks"] == ["differential"]
    assert payload["families"][0]["family"] == "differential"
    assert payload["families"][0]["lint_clean"] == \
        payload["families"][0]["examples"]
    # Wall time lives only under the serializer's documented
    # nondeterministic key, so canonical payloads stay comparable.
    assert "wall_seconds" in payload


def test_verify_validates_parameters(capsys):
    with pytest.raises(ValueError, match="unknown verify check"):
        main(["verify", "--checks", "vibes"])
    with pytest.raises(ValueError, match="unknown hypothesis profile"):
        main(["verify", "--profile", "nope"])
    with pytest.raises(ValueError, match="unknown inject mode"):
        main(["verify", "--inject", "chaos"])


def test_verify_exits_two_without_hypothesis(monkeypatch, capsys):
    from repro import verify

    monkeypatch.setattr(verify, "hypothesis_available", lambda: False)
    assert main(["verify", "--max-examples", "2"]) == 2
    out = capsys.readouterr().out
    assert "pip install 'repro[test]'" in out


def test_seeded_bug_shrinks_and_replays_byte_identically(tmp_path,
                                                          capsys):
    """The acceptance loop: --inject corrupt fails, shrinks to a
    minimal counterexample, persists it, and replays it exactly.

    Nearly all of the time is Hypothesis shrinking, twice, and how much
    there is to shrink depends on the draw the seed starts from.  Every
    tier makes every assertion below; ``dev`` starts from a draw whose
    first counterexample is already small (~60 shrink executions per
    run), ``ci`` / ``thorough`` from the larger one this test always
    used (~140).
    """
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    seed = "3" if active_profile() == "dev" else "0"
    args = ["verify", "--max-examples", "2", "--seed", seed,
            "--checks", "li", "--inject", "corrupt"]
    assert main([*args, "--json", str(first)]) == 1
    out = capsys.readouterr().out
    assert "ORACLE VIOLATED" in out
    assert "counterexample:" in out
    # Second run replays the persisted failure (example database) and
    # lands on the byte-identical minimal counterexample.
    assert main([*args, "--json", str(second)]) == 1
    capsys.readouterr()
    a = json.loads(first.read_text())["families"][0]
    b = json.loads(second.read_text())["families"][0]
    assert a["ok"] is False and b["ok"] is False
    assert "diverge from the golden" in a["error"]
    assert json.dumps(a["counterexample"], sort_keys=True) \
        == json.dumps(b["counterexample"], sort_keys=True)
    # The shrunk reproducer is minimal: one message through one sink.
    topo = a["counterexample"]["topology"]
    assert sum(len(s) for s in topo["streams"]) == 1
