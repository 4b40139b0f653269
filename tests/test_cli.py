import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexcert
from convexcert import certify, cli, refute, sdp
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
    code, payload = run_cli(capsys, [path, "--mode", "certify", "-d", "1", "--max-degree", "2"])
    assert code == 2
    assert payload["verdict"] == "inconclusive"
    assert (payload["parameters"]["order"], payload["parameters"]["max_order"]) == (1, 2)
    g1 = payload["constraints"][0]
    assert g1["verdict"] == "inconclusive"
    # a negative bound leaves no certificate to check; the true bound is -1
    assert g1["attempts"] == []
    assert [r["order"] for r in g1["relaxations"]] == [1, 2]
    assert all(r["status"] == "optimal" and r["rho"] <= -0.5 for r in g1["relaxations"])


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
    # rho = -1 at order 1 is exact, and a sampled member pair attains it, so the
    # negative bound is proven and no signal is left unproven
    path = write_problem(tmp_path, TWO_INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 0
    assert payload["verdict"] == "not convex"
    assert "unproven-nonconvexity-signal" not in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    (record,) = g1["relaxations"]
    assert record["order"] == 1 and record["rho"] <= -0.95
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", 1, record["rho"])
    (atom,) = witness["atoms"]
    assert atom["violation"] <= -0.9
    assert atom["violation"] == record["sampled_violation"]
    assert refute.attains_bound(atom["violation"], record["rho"])
    assert atom["feasibility_margin"] >= 0.0
    assert validate_report_payload(payload) == []


THIN = "vars: x1 x2\ng: x1^2 - 1\ng: 1 - x1^2\ng: 1 - x2^2\n"  # two segments x1 = +-1


def test_thin_set_keeps_unproven_signal(tmp_path, capsys):
    # a uniform sample holds no member of a set with empty interior, so the
    # negative bound stays unproven when the moments are not flat either
    path = write_problem(tmp_path, THIN)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 3
    assert payload["verdict"] == "inconclusive"
    assert "unproven-nonconvexity-signal" in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is True and g1["witness"] is None
    negative = [r for r in g1["relaxations"] if r["rho"] is not None and r["rho"] < -1e-6]
    assert negative and all(r["sampled_violation"] is None for r in negative)


def test_unattained_sampled_pair_is_the_fallback_witness(tmp_path, capsys, monkeypatch):
    # with the stop disabled, two_interval is flat at no order, so the kept pair
    # refutes the constraint at the end of the ladder, named by the last order
    monkeypatch.setattr(refute, "attains_bound", lambda violation, rho: False)
    path = write_problem(tmp_path, TWO_INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 0
    assert payload["verdict"] == "not convex"
    assert payload["flags"] == []
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    assert [r["order"] for r in g1["relaxations"]] == [1, 2, 3]
    assert len({r["sampled_violation"] for r in g1["relaxations"]}) == 1  # one draw
    last = g1["relaxations"][-1]
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", 3, last["rho"])
    assert witness["atoms"][0]["violation"] == last["sampled_violation"] <= -0.9


def test_moment_witness_clears_earlier_unproven_signal(capsys, monkeypatch):
    # without sampling, hyperbola fails the flatness gate at orders 1 and 2 and
    # is refuted by extracted atoms at order 3; the earlier signal is then proven
    monkeypatch.setattr(refute, "sample_witness", lambda *args, **kwargs: None)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt")])
    assert (payload["verdict"], code) == ("not convex", 0)
    assert "unproven-nonconvexity-signal" not in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    assert [r["flatness"]["flat"] for r in g1["relaxations"]] == [False, False, True]
    witness = g1["witness"]
    assert (witness["source"], witness["order"], len(witness["atoms"])) == ("moments", 3, 4)


def test_hyperbola_report_has_no_stale_unproven_signal(capsys):
    # order 1 fails the flatness gate, order 2 is attained by the sampled pair
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt")])
    assert (payload["verdict"], code) == ("not convex", 0)
    assert payload["flags"] == []
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    first, second = g1["relaxations"]
    assert first["flatness"]["flat"] is False and "flatness" not in second
    assert first["sampled_violation"] == second["sampled_violation"]
    assert not refute.attains_bound(first["sampled_violation"], first["rho"])
    assert (g1["witness"]["source"], g1["witness"]["order"]) == ("sampled", 2)


def test_negative_seed_exits_64(tmp_path, capsys):
    # numpy's generators take non-negative seeds only
    with pytest.raises(ValueError, match="seed"):
        cli.RunConfig(seed=-1)
    code = cli.main([write_problem(tmp_path, TWO_INTERVAL), "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == "" and captured.err.startswith("convexcert: ")


def test_sampled_report_deterministic_under_rerun(tmp_path, capsys):
    path = str(PROBLEMS / "hyperbola.txt")
    args = [path, "--mode", "analyze", "--seed", "3"]
    _, first = run_cli(capsys, args)
    _, second = run_cli(capsys, args)
    assert json.dumps(_strip_timings(first)) == json.dumps(_strip_timings(second))
    assert first["constraints"][0]["witness"]["source"] == "sampled"


def test_redundant_constraint_certified(tmp_path, capsys):
    # g2 = 2 - x1^2 stays positive on [-1, 1], so its order-1 bound is rho = 1 > 0
    path = write_problem(tmp_path, "vars: x1\ng: 1 - x1^2\ng: 2 - x1^2\n")
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    assert code == 0
    g2 = payload["constraints"][1]
    assert g2["relaxations"][0]["rho"] == pytest.approx(1.0, abs=1e-6)
    assert g2["certificate"]["epsilon"] == 0.0
    assert g2["certificate"]["verification"]["passed"] is True


def test_malformed_file_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x1\ng: x1^^2\n")
    code = cli.main([path])
    err = capsys.readouterr().err
    assert code == 64
    assert "line" in err


def test_non_finite_coefficient_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x\ng: (1e200*x)^2 - 1\n")
    code = cli.main([path])
    err = capsys.readouterr().err
    assert code == 64
    assert "non-finite coefficient (line 2, column 3)" in err


def test_overflowing_coefficient_gives_a_sound_verdict(tmp_path, capsys):
    # an interval, so convex; any verdict but "nonconvex" is sound
    path = write_problem(tmp_path, "vars: x\ng: 1e300 - x^2\n")
    with np.errstate(all="ignore"):
        code, payload = run_cli(capsys, [path])
    assert code in (0, 2)
    assert payload["verdict"] != "nonconvex"


def test_missing_file_exits_64(tmp_path, capsys):
    code = cli.main([str(tmp_path / "missing.txt")])
    assert code == 64


def test_unwritable_out_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    out = tmp_path / "missing" / "report.json"
    code = cli.main([path, "--mode", "certify", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith("convexcert: cannot write: ") and str(out) in captured.err
    assert captured.out == "" and not out.exists()


def test_unwritable_dump_dir_exits_64_before_any_solve(tmp_path, capsys, monkeypatch):
    path = write_problem(tmp_path, INTERVAL)
    blocker = tmp_path / "file"
    blocker.write_text("")
    solves = []
    monkeypatch.setattr(refute, "solve_relaxation", lambda *args: solves.append(args))
    code = cli.main([path, "--dump-sdp", str(blocker / "dump")])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith("convexcert: cannot write: ") and str(blocker / "dump") in captured.err
    assert captured.out == "" and solves == []


def test_halfspace_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, HALFSPACE)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    assert payload["verdict"] == "convex"
    assert payload["constraints"][0]["certificate"] is not None


def test_parabola_analyze(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    assert payload["verdict"] == "not convex"


def test_parabola_analyze_one_solve_per_order(tmp_path, capsys, monkeypatch):
    calls = 0
    original = sdp.solve

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counted)
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    # g1: order 1, where a sampled member pair attains rho; g2 and g3: certified
    # from their order-1 solve
    assert calls == 3
    assert sum(len(c["relaxations"]) for c in payload["constraints"]) == 3
    g1 = payload["constraints"][0]
    (record,) = g1["relaxations"]
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", 1, record["rho"])
    (atom,) = witness["atoms"]
    assert refute.attains_bound(atom["violation"], record["rho"])
    assert atom["violation"] <= -0.99 and math.dist(atom["midpoint"], (0.0, 1.0)) <= 1e-2


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


def test_analyze_report_deterministic_under_rerun(tmp_path, capsys):
    path = write_problem(tmp_path, BOX)
    _, first = run_cli(capsys, [path, "--mode", "analyze"])
    _, second = run_cli(capsys, [path, "--mode", "analyze"])
    assert _strip_timings(first) == _strip_timings(second)


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
    for mode, expected_code in (("certify", 0), ("refute", 2), ("analyze", 0)):
        dump_dir = tmp_path / mode
        code, payload = run_cli(capsys, [path, "--mode", mode, "--dump-sdp", str(dump_dir)])
        assert code == expected_code  # refute: convex, so nothing to refute
        # one file per Gram solve, and it is the instance that was solved
        solves = [f"qmodule_g{c['index']}_d{r['order']}.sdp"
                  for c in payload["constraints"] for r in c["relaxations"]]
        assert sorted(f.name for f in dump_dir.glob("*.sdp")) == solves == ["qmodule_g1_d1.sdp"]
        lines = (dump_dir / solves[0]).read_text().splitlines()
        assert lines[0] == "sdp 1"
        # the Gram form: one row per non-constant monomial, the constant one as objective
        assert lines[1:3] == ["blocks 2 1 1", "nconstraints 3"]
        assert any(line.startswith("c ") for line in lines)


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
    g1 = payload["constraints"][0]
    assert "the quadratic-module certificate has no such limit" in " ".join(g1["notes"])
    # refused once for the constraint, not once per order; and in certify mode
    # under --stengle the Gram solve could conclude nothing, so none is run
    assert len(g1["notes"]) == 1
    assert g1["relaxations"] == []


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


def test_attempts_carry_solver_diagnostics(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    attempt = payload["constraints"][0]["attempts"][0]
    assert attempt["solver"]["iterations"] >= 1
    assert attempt["solver"]["relative_gap"] <= 1e-8


def test_relaxations_record_sdp_sizes(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    solver = payload["constraints"][0]["relaxations"][0]["solver"]
    # sigma_0 even and odd, then the block shared by sigma_1 and psi_1; one row
    # per non-constant swap orbit {x, y}, {x^2, y^2}, xy
    assert (solver["blocks"], solver["p"]) == ([2, 1, 1], 3)
    assert solver["reduced_blocks"] == [2, 1, 1]


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(mode="nope")
    with pytest.raises(ValueError):
        cli.RunConfig(order=3, max_order=2)
    with pytest.raises(ValueError):
        cli.RunConfig(order=0)
    with pytest.raises(ValueError):
        cli.RunConfig(tol_feas=0.0)
    with pytest.raises(ValueError):
        cli.RunConfig(max_order=0)
    for name in ("ball", "archimedean", "tol_feas", "tol_residual"):
        for value in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                cli.RunConfig(**{name: value})
    with pytest.raises(ValueError, match="stengle"):
        cli.RunConfig(stengle_p=0)
    cli.RunConfig(ball=2.0, archimedean=4.0, max_order=1)


def test_parameters_are_the_documented_ones(tmp_path):
    path = write_problem(tmp_path, INTERVAL)
    out = tmp_path / "report.json"
    args = [path, "--out", str(out), "--dump-sdp", str(tmp_path / "dump"), "--mode", "refute",
            "--stengle-p", "2", "--seed", "3", "--tol-feas", "1e-7", "--max-order", "2"]
    assert cli.main(args) == 2  # a refute run on a convex set proves nothing
    # the run's output paths are no run parameter
    assert json.loads(out.read_text())["parameters"] == {
        "mode": "refute", "order": 1, "max_order": 2, "ball": None, "stengle": False, "stengle_p": 2,
        "archimedean": None, "seed": 3, "tol_feas": 1e-7, "tol_residual": 1e-6,
        "solver_tol": sdp.DEFAULT_TOL,
    }


@pytest.mark.parametrize("flag, value", [
    ("--archimedean", "-1"), ("--archimedean", "0"), ("--archimedean", "inf"),
    ("--archimedean", "nan"), ("--ball", "inf"), ("--ball", "nan"), ("--ball", "-2"),
    ("--tol-feas", "nan"), ("--tol-residual", "-1"), ("--max-order", "0"), ("--stengle-p", "0"),
])
def test_malformed_run_parameter_exits_64(tmp_path, capsys, flag, value):
    path = write_problem(tmp_path, DISK)
    code = cli.main([path, flag, value])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("convexcert: ")


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# the analyze column of the README table: (verdict, exit code)
README_OUTCOMES = {
    "interval": ("convex", 0),
    "disk": ("convex", 0),
    "halfspace": ("convex", 0),
    "box": ("convex", 0),
    "parabola": ("not convex", 0),
    "hyperbola": ("not convex", 0),
    "two_interval": ("not convex", 0),
    "cubic_halfline": ("inconclusive", 2),
}
# (source, order, atom count) of the first witness, as the README table states it
README_WITNESSES = {
    "parabola": ("sampled", 1, 1),
    "hyperbola": ("sampled", 2, 1),
    "two_interval": ("sampled", 1, 1),
}
# least value of g1 at the midpoint of two members (hyperbola: (2, 1/2) and (-1/2, -2))
MIDPOINT_MINIMA = {"parabola": -1.0, "hyperbola": -1.5625, "two_interval": -1.0}


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.txt")), ids=lambda path: path.stem)
def test_bundled_problem_analyze_outcome(path, capsys):
    code, payload = run_cli(capsys, [str(path)])
    assert (payload["verdict"], code) == README_OUTCOMES[path.stem]
    witnesses = [c["witness"] for c in payload["constraints"] if c["witness"] is not None]
    if path.stem not in README_WITNESSES:
        assert witnesses == []
        return
    witness = witnesses[0]
    assert (witness["source"], witness["order"], len(witness["atoms"])) == README_WITNESSES[path.stem]
    (record,) = [r for r in payload["constraints"][0]["relaxations"] if r["order"] == witness["order"]]
    assert witness["rho"] == record["rho"]
    # the pair attains its order's bound, which lies below the true minimum
    atom = witness["atoms"][0]
    assert refute.attains_bound(atom["violation"], witness["rho"])
    assert witness["rho"] <= MIDPOINT_MINIMA[path.stem] + 1e-6
    assert atom["violation"] <= MIDPOINT_MINIMA[path.stem] * (1.0 - refute.SAMPLE_ATTAIN_RTOL)
    assert atom["feasibility_margin"] >= 0.0
    assert "unproven-nonconvexity-signal" not in payload["flags"]


# analyze verdict of each constraint, with or without --archimedean
ANALYZE_CONSTRAINT_VERDICTS = {
    "box": ["certified", "certified"],
    "cubic_halfline": ["inconclusive"],
    "disk": ["certified"],
    "halfspace": ["certified"],
    "hyperbola": ["refuted", "certified", "certified"],
    "interval": ["certified"],
    "parabola": ["refuted", "certified", "certified"],
    "two_interval": ["refuted", "certified"],
}
# --mode certify --stengle: (verdict, exit code, verdict of each constraint)
STENGLE_OUTCOMES = {
    "box": ("convex", 0, ["certified", "certified"]),
    "cubic_halfline": ("convex", 0, ["certified"]),
    "disk": ("convex", 0, ["certified"]),
    "halfspace": ("convex", 0, ["certified"]),
    "hyperbola": ("inconclusive", 2, ["inconclusive", "certified", "certified"]),
    "interval": ("convex", 0, ["certified"]),
    "parabola": ("inconclusive", 2, ["inconclusive", "certified", "certified"]),
    "two_interval": ("inconclusive", 2, ["inconclusive", "certified"]),
}
# whether 2 - |x|^2 lies in the quadratic module at the first order
ARCHIMEDEAN_HOLDS = {
    "box": True,
    "cubic_halfline": False,
    "disk": True,
    "halfspace": False,
    "hyperbola": False,
    "interval": True,
    "parabola": True,
    "two_interval": False,
}


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.txt")), ids=lambda path: path.stem)
def test_bundled_problem_stengle_outcome(path, capsys):
    code, payload = run_cli(capsys, [str(path), "--mode", "certify", "--stengle"])
    verdicts = [c["verdict"] for c in payload["constraints"]]
    assert (payload["verdict"], code, verdicts) == STENGLE_OUTCOMES[path.stem]
    assert payload["archimedean"] is None


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.txt")), ids=lambda path: path.stem)
def test_bundled_problem_archimedean_outcome(path, capsys):
    code, payload = run_cli(capsys, [str(path), "--mode", "analyze", "--archimedean", "2"])
    assert (payload["verdict"], code) == README_OUTCOMES[path.stem]
    assert [c["verdict"] for c in payload["constraints"]] == ANALYZE_CONSTRAINT_VERDICTS[path.stem]
    assert payload["archimedean"]["holds"] is ARCHIMEDEAN_HOLDS[path.stem]
    witness = payload["constraints"][0]["witness"]
    if witness is not None:
        for atom in witness["atoms"]:
            assert atom["violation"] <= MIDPOINT_MINIMA[path.stem] * (1.0 - refute.SAMPLE_ATTAIN_RTOL)


def test_archimedean_failed_recheck_is_not_affirmed(capsys):
    # the bounding identity is found, but its residual misses a 1e-12 recheck
    path = str(PROBLEMS / "disk.txt")
    code, payload = run_cli(capsys, [path, "--archimedean", "2", "--tol-residual", "1e-12"])
    arch = payload["archimedean"]
    assert arch["holds"] is False
    assert arch["residual"] > 1e-12
    assert "archimedean" not in arch["note"]
    assert "failed verification" in arch["note"]
    assert f"{arch['residual']:.3e}" in arch["note"]


def test_each_accepted_certificate_is_expanded_once(monkeypatch, capsys):
    # the builder's recheck is the only expansion: the CLI judges the check
    # it kept, so each term of each certificate is expanded exactly once
    expanded = []
    contribution = certify.SosTerm.contribution

    def counting(term, space):
        expanded.append(term.label)
        return contribution(term, space)

    monkeypatch.setattr(certify.SosTerm, "contribution", counting)
    code, payload = run_cli(capsys, [str(PROBLEMS / "disk.txt"), "--mode", "certify", "--archimedean", "2"])
    assert code == 0 and payload["archimedean"]["holds"] is True
    assert payload["archimedean"]["residual"] <= 1e-6
    (entry,) = payload["constraints"]
    assert [a["verified"] for a in entry["attempts"]] == [True]
    cert = entry["certificate"]
    assert cert["kind"] == "quadratic-module"
    assert cert["residual"] == cert["verification"]["residual"]
    # the quadratic-module certificate's sigma_0, sigma_1 and psi_1, then the
    # archimedean identity's sigma_0 and sigma_1
    assert sorted(expanded) == sorted([t["label"] for t in cert["terms"]] + ["sigma_0", "sigma_1"])

    expanded.clear()
    code, payload = run_cli(capsys, [str(PROBLEMS / "interval.txt"), "--mode", "certify", "--stengle"])
    assert code == 0
    (entry,) = payload["constraints"]
    assert [a["verified"] for a in entry["attempts"]] == [True]
    cert = entry["certificate"]
    assert cert["kind"] == "preordering"
    assert cert["residual"] == cert["verification"]["residual"] == entry["attempts"][0]["residual"]
    assert sorted(expanded) == sorted(t["label"] for t in cert["sigma_terms"] + cert["h_terms"])


@pytest.mark.parametrize("name", [n for n, (verdict, _code) in README_OUTCOMES.items() if verdict == "convex"])
def test_certificates_are_swap_symmetric(name, capsys):
    code, payload = run_cli(capsys, [str(PROBLEMS / f"{name}.txt")])
    assert code == 0
    n = payload["problem"]["n"]
    for entry in payload["constraints"]:
        cert = entry["certificate"]
        assert cert["verification"]["passed"] and cert["residual"] <= 1e-6
        terms = {t["label"]: t for t in cert["terms"]}
        for label, term in terms.items():
            basis = [tuple(e) for e in term["basis"]]
            perm = [basis.index(e[n:] + e[:n]) for e in basis]
            gram = np.array(term["gram"])
            if label == "sigma_0":
                assert np.allclose(gram[np.ix_(perm, perm)], gram, rtol=0.0, atol=1e-12)
            elif label.startswith("sigma_"):
                psi = np.array(terms["psi_" + label[len("sigma_"):]]["gram"])
                assert np.array_equal(psi[np.ix_(perm, perm)], gram)


def test_module_entry_point_runs_without_warnings():
    # the package must not import cli itself, or runpy warns on `python -m convexcert.cli`
    src = str(Path(convexcert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "convexcert.cli", str(PROBLEMS / "two_interval.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["verdict"] == "not convex"
