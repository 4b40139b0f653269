import json
import math

import numpy as np
import pytest

from convexcert import cli
from convexcert.problemio import validate_report_payload

from conftest import (
    BOX,
    DISK,
    HALFSPACE,
    INTERVAL,
    PARABOLA,
    TWO_INTERVAL,
)


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


def test_interval_certify(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    assert code == 0
    assert payload["verdict"] == "convex"
    certs = [c["certificate"] for c in payload["constraints"] if c["certificate"]]
    assert len(certs) == 1
    assert certs[0]["residual"] <= 1e-6
    assert validate_report_payload(payload) == []


def test_parabola_certify_only_inconclusive(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(
        capsys, [path, "--mode", "certify", "-d", "1", "--max-degree", "2", "--epsilon", "0"]
    )
    assert code == 2
    assert payload["verdict"] == "inconclusive"
    g1 = payload["constraints"][0]
    assert g1["verdict"] == "inconclusive"
    assert all(a["status"] == "infeasible" for a in g1["attempts"])


def test_parabola_refute(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "refute", "--max-order", "3"])
    assert code == 0
    assert payload["verdict"] == "not convex"
    witness = payload["constraints"][0]["witness"]
    assert witness is not None
    for atom in witness["atoms"]:
        assert math.dist(atom["midpoint"], (0.0, 1.0)) <= 1e-2
        assert atom["violation"] <= -0.9
    assert validate_report_payload(payload) == []


def test_interval_refute_finds_nothing(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 2
    assert payload["verdict"] == "inconclusive"
    rhos = [r["rho"] for c in payload["constraints"] for r in c["relaxations"]]
    assert all(r >= -1e-6 for r in rhos)


def test_two_interval_refute_unproven_signal(tmp_path, capsys):
    path = write_problem(tmp_path, TWO_INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 3
    assert payload["verdict"] == "inconclusive"
    assert "unproven-nonconvexity-signal" in payload["flags"]
    g1 = payload["constraints"][0]
    assert any(r["rho"] is not None and r["rho"] <= -0.95 for r in g1["relaxations"])


def test_malformed_file_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x1\ng: x1^^2\n")
    code = cli.main([path])
    err = capsys.readouterr().err
    assert code == 64
    assert "line" in err


def test_missing_file_exits_64(tmp_path, capsys):
    code = cli.main([str(tmp_path / "missing.txt")])
    assert code == 64


def test_halfspace_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, HALFSPACE)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    assert payload["verdict"] == "convex"
    assert payload["constraints"][0]["certificate"] is not None


def test_parabola_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "analyze", "--jobs", "2"])
    assert code == 0
    assert payload["verdict"] == "not convex"


def test_interval_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    assert payload["verdict"] == "convex"


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if not k.endswith("_seconds")}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def test_report_deterministic_under_rerun(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    args = [path, "--mode", "refute", "--seed", "7"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    assert _strip_timings(first) == _strip_timings(second)


def test_report_independent_of_worker_count(tmp_path, capsys):
    path = write_problem(tmp_path, BOX)
    _, serial = run_cli(capsys, [path, "--mode", "analyze", "--jobs", "1"])
    _, parallel = run_cli(capsys, [path, "--mode", "analyze", "--jobs", "3"])
    a, b = _strip_timings(serial), _strip_timings(parallel)
    a["parameters"].pop("jobs")
    b["parameters"].pop("jobs")
    assert a == b


def test_out_flag_writes_file(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    out = tmp_path / "report.json"
    code = cli.main([path, "--mode", "certify", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "convex"
    assert capsys.readouterr().out == ""


def test_dump_sdp_writes_instances(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    dump_dir = tmp_path / "dumps"
    code, _ = run_cli(capsys, [path, "--mode", "certify", "--dump-sdp", str(dump_dir)])
    assert code == 0
    files = list(dump_dir.glob("*.sdp"))
    assert files
    head = files[0].read_text().splitlines()[0]
    assert head == "sdp 1"
    code, _ = run_cli(capsys, [path, "--mode", "refute", "--dump-sdp", str(dump_dir)])
    assert code == 2  # convex, so nothing to refute
    refute_files = sorted(dump_dir.glob("refute_g*_s*.sdp"))
    assert [f.name for f in refute_files] == ["refute_g1_s1.sdp"]
    for f in refute_files:
        lines = f.read_text().splitlines()
        assert lines[0] == "sdp 1"
        # the Gram form that is solved: one row per non-constant monomial
        assert lines[1:3] == ["blocks 3 1 1", "nconstraints 5"]


def test_ball_option_bounds_halfspace(tmp_path, capsys):
    path = write_problem(tmp_path, HALFSPACE)
    code, payload = run_cli(capsys, [path, "--mode", "refute", "--ball", "2"])
    assert code == 2  # bounded now; still convex, so nothing to refute
    assert payload["problem"]["m"] == 2
    assert payload["parameters"]["ball"] == 2.0


def test_archimedean_flag(tmp_path, capsys):
    path = write_problem(tmp_path, DISK)
    code, payload = run_cli(capsys, [path, "--mode", "certify", "--archimedean", "1"])
    assert code == 0
    assert payload["archimedean"]["holds"] is True


def test_stengle_mode(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify", "--stengle", "-d", "2"])
    assert code == 0
    cert = payload["constraints"][0]["certificate"]
    assert cert["kind"] == "preordering"


def test_stengle_guard_surfaces_in_report(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x1\ng: x1\ng: 1 - x1\ng: 2 - x1\ng: 3 - x1\n")
    code, payload = run_cli(capsys, [path, "--mode", "certify", "--stengle"])
    assert code == 2
    notes = " ".join(payload["constraints"][0]["notes"])
    assert "certify_sufficient" in notes


def test_box_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, BOX)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    assert payload["verdict"] == "convex"


def test_cubic_halfline_unbounded_advice(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x1\ng: x1^3\n")
    code, payload = run_cli(capsys, [path, "--mode", "refute", "--max-order", "2"])
    assert code == 2
    g1 = payload["constraints"][0]
    assert any(r["status"] == "inconclusive-unbounded" for r in g1["relaxations"])
    assert any("--ball" in note for note in g1["notes"])


def test_epsilon_flag_repeatable(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(
        capsys,
        [path, "--mode", "certify", "--epsilon", "0", "--epsilon", "1e-4"],
    )
    assert code == 0
    assert payload["parameters"]["epsilon_schedule"] == [0.0, 1e-4]


def test_attempts_carry_solver_diagnostics(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    attempt = payload["constraints"][0]["attempts"][0]
    assert attempt["solver"]["iterations"] >= 1
    assert attempt["solver"]["relative_gap"] <= 1e-8


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(mode="nope")
    with pytest.raises(ValueError):
        cli.RunConfig(d=3, d_max=2)
    with pytest.raises(ValueError):
        cli.RunConfig(tol_feas=0.0)
    with pytest.raises(ValueError):
        cli.RunConfig(jobs=0)
    with pytest.raises(ValueError):
        cli.RunConfig(epsilons=(-1e-3,))
