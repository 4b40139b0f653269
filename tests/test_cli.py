import dataclasses
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
from convexcert.polynomials import Polynomial
from convexcert.problemio import parse_problem, validate_report_payload

from conftest import (
    BOX,
    DISK,
    HALFSPACE,
    INTERVAL,
    PARABOLA,
    TWO_INTERVAL,
)


# the whole line: convex, and g1 is convex, not concave, so it takes the Gram
# path; its order-1 bound is rho = 1 > 0
LINE = "vars: x1\ng: 1 + x1^2\n"


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(capsys, args):
    code = cli.main(args)
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


def count_solves(monkeypatch) -> list:
    """Patch sdp.solve to record one item per call; returns the record."""
    calls = []
    original = sdp.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sdp, "solve", counted)
    return calls


def count_draws(monkeypatch) -> list:
    """Patch refute.sample_witness to record (j, number of radii) per call; returns the record."""
    draws = []
    original = refute.sample_witness

    def counted(spec, j, radii=refute.SAMPLE_RADII, **kwargs):
        draws.append((j, len(radii)))
        return original(spec, j, radii, **kwargs)

    monkeypatch.setattr(refute, "sample_witness", counted)
    return draws


def test_interval_certify(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    assert code == 0
    assert payload["verdict"] == "convex"
    certs = [c["certificate"] for c in payload["constraints"] if c["certificate"]]
    assert len(certs) == 1
    assert certs[0]["verification"]["residual"] <= 1e-6
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
    # a --max-order below v = ceil(deg g / 2) is raised to v, as the first order is
    path = write_problem(tmp_path, "vars: x\ng: 1 - x^4\n", name="quartic.txt")
    code, payload = run_cli(capsys, [path, "--mode", "certify", "--max-order", "1"])
    assert (payload["parameters"]["order"], payload["parameters"]["max_order"]) == (2, 2)
    assert [r["order"] for r in payload["constraints"][0]["relaxations"]] == [2]


def test_parabola_refute(tmp_path, capsys):
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "refute", "--max-order", "3"])
    assert code == 0
    assert payload["verdict"] == "not convex"
    witness = payload["constraints"][0]["witness"]
    assert witness is not None
    for atom in witness["atoms"]:
        assert MIDPOINT_MINIMA["parabola"] <= atom["violation"] <= DRAWN_VIOLATIONS["parabola"]
        assert atom["feasibility_margin"] > 0.0
    assert validate_report_payload(payload) == []


def test_interval_refute_finds_nothing(tmp_path, capsys):
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 2
    assert payload["verdict"] == "inconclusive"
    rhos = [r["rho"] for c in payload["constraints"] for r in c["relaxations"]]
    assert all(r >= -1e-6 for r in rhos)


def test_two_interval_refute_unproven_signal(tmp_path, capsys):
    # a validated sampled member pair refutes g1 before any relaxation, so no
    # negative bound is computed and no signal is left unproven
    path = write_problem(tmp_path, TWO_INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 0
    assert payload["verdict"] == "not convex"
    assert "unproven-nonconvexity-signal" not in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    assert g1["relaxations"] == []
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", None, None)
    (atom,) = witness["atoms"]
    assert MIDPOINT_MINIMA["two_interval"] <= atom["violation"] <= DRAWN_VIOLATIONS["two_interval"]
    assert atom["feasibility_margin"] > 0.0
    assert validate_report_payload(payload) == []


THIN = "vars: x1 x2\ng: x1^2 - 1\ng: 1 - x1^2\ng: 1 - x2^2\n"  # two segments x1 = +-1


def test_thin_set_keeps_unproven_signal(tmp_path, capsys, monkeypatch):
    # a uniform sample holds no member of a set with empty interior, so the
    # negative bound stays unproven when the moments are not flat either
    draws = count_draws(monkeypatch)
    path = write_problem(tmp_path, THIN)
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert code == 3
    assert payload["verdict"] == "inconclusive"
    assert "unproven-nonconvexity-signal" in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is True and g1["witness"] is None
    negative = [r for r in g1["relaxations"] if r["rho"] is not None and r["rho"] < -1e-6]
    assert len(negative) > 1 and all("flatness" in r for r in negative)
    # g1 is drawn twice across all its orders: over the radius ladder before
    # any solve, and in one box sized from the moments of its first negative
    # bound (g2 and g3 are concave, skipped with no draw and no solve)
    assert draws == [(1, len(refute.SAMPLE_RADII)), (1, 1)]


def test_moment_witness_clears_earlier_unproven_signal(capsys, monkeypatch):
    # with both draws patched out, the one before the ladder and the one at the
    # first negative bound, hyperbola fails the flatness gate at orders 1 and 2
    # and is refuted by extracted atoms at order 3; the earlier signal is then proven
    monkeypatch.setattr(refute, "sample_witness", lambda *args, **kwargs: None)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt")])
    assert (payload["verdict"], code) == ("not convex", 0)
    assert "unproven-nonconvexity-signal" not in payload["flags"]
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    assert [r["flatness"]["flat"] for r in g1["relaxations"]] == [False, False, True]
    witness = g1["witness"]
    assert (witness["source"], witness["order"], len(witness["atoms"])) == ("moments", 3, 4)
    assert all(atom["feasibility_margin"] >= 0.0 for atom in witness["atoms"])


def test_extracted_atoms_outside_the_set_prove_nothing(tmp_path, capsys):
    # parabola as S^2 g(x/S) at S = 10^-2.3: its draws find no pair, and the
    # atoms extracted at orders 2 and 3 violate g_k by about 1e-10, within
    # tol_feas but outside the set as evaluated, so the signal stays unproven
    text = ("vars: x1 x2\ng: x1^2 - 0.005011872336272725*x2\n"
            "g: 2.511886431509582e-05 - x1^2\ng: 2.511886431509582e-05 - x2^2\n")
    code, payload = run_cli(capsys, [write_problem(tmp_path, text), "--mode", "refute"])
    assert (payload["verdict"], code) == ("inconclusive", 3)
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is True and g1["witness"] is None
    outside = [note for note in g1["notes"] if "lie outside the set as evaluated" in note]
    assert [note.split(" lie")[0] for note in outside] == ["extracted atoms at order 2", "extracted atoms at order 3"]
    assert all("least feasibility margin -" in note for note in outside)


def test_moment_witness_keeps_only_the_atoms_inside_the_set(capsys, monkeypatch):
    # as above, with the first of the four order-3 atoms pushed outside the set:
    # the other three refute g1, their weights renormalized
    monkeypatch.setattr(refute, "sample_witness", lambda *args, **kwargs: None)
    original = refute.validate_witness

    def first_outside(*args, **kwargs):
        witness = original(*args, **kwargs)
        if witness is not None:
            witness.atoms[0].feasibility_margin = -1e-12
        return witness

    monkeypatch.setattr(refute, "validate_witness", first_outside)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt")])
    assert (payload["verdict"], code) == ("not convex", 0)
    atoms = payload["constraints"][0]["witness"]["atoms"]
    assert len(atoms) == 3
    assert all(atom["feasibility_margin"] >= 0.0 for atom in atoms)
    assert math.isclose(sum(atom["weight"] for atom in atoms), 1.0)


def test_failed_extraction_keeps_the_signal(capsys, monkeypatch):
    # as above, with extraction failing at order 3, the one flat order
    monkeypatch.setattr(refute, "sample_witness", lambda *args, **kwargs: None)

    def failing(*args, **kwargs):
        raise refute.ExtractionError("no retry matched the moments")

    monkeypatch.setattr(refute, "extract_atoms", failing)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt"), "--mode", "refute"])
    assert (payload["verdict"], code) == ("inconclusive", 3)
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is True and g1["witness"] is None
    assert g1["notes"][-1] == "flat at order 3 but atom extraction failed: no retry matched the moments"


def test_atoms_that_fail_direct_evaluation_keep_the_signal(capsys, monkeypatch):
    # validate_witness refusing every pair refuses the sampled ones too, so
    # hyperbola reaches extraction at order 3 and its atoms are refused there
    monkeypatch.setattr(refute, "validate_witness", lambda *args, **kwargs: None)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt"), "--mode", "refute"])
    assert (payload["verdict"], code) == ("inconclusive", 3)
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is True and g1["witness"] is None
    assert g1["notes"][-1] == ("extracted atoms at order 3 failed direct re-evaluation; "
                               "no violation can be claimed")


def test_no_moment_radius_skips_the_second_draw(tmp_path, capsys, monkeypatch):
    # with no radius read off the moments, the thin set is drawn only before the ladder
    draws = count_draws(monkeypatch)
    monkeypatch.setattr(refute, "moment_radius", lambda result: None)
    code, payload = run_cli(capsys, [write_problem(tmp_path, THIN), "--mode", "refute"])
    assert (payload["verdict"], code) == ("inconclusive", 3)
    assert draws == [(1, len(refute.SAMPLE_RADII))]
    assert "flatness gate failed" in payload["constraints"][0]["notes"][0]


def test_hyperbola_report_has_no_stale_unproven_signal(capsys):
    # order 1 is not flat, but its validated sampled pair ends the ladder
    # before the flatness test runs, so no signal is raised at all
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt")])
    assert (payload["verdict"], code) == ("not convex", 0)
    assert payload["flags"] == []
    g1 = payload["constraints"][0]
    assert g1["unproven_signal"] is False
    assert g1["notes"] == []
    assert g1["witness"]["source"] == "sampled"


def test_hyperbola_analyze_stops_at_the_drawing_order(capsys, monkeypatch):
    # the draw before the ladder validates a pair, so g1's ladder is never
    # walked (g2 and g3 are concave, certified in closed form): no solve, and
    # the witness names no order and no bound
    calls = count_solves(monkeypatch)
    code, payload = run_cli(capsys, [str(PROBLEMS / "hyperbola.txt"), "--mode", "analyze"])
    assert (payload["verdict"], code) == ("not convex", 0)
    assert calls == []
    g1 = payload["constraints"][0]
    assert g1["relaxations"] == []
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", None, None)
    (atom,) = witness["atoms"]
    assert MIDPOINT_MINIMA["hyperbola"] <= atom["violation"] <= DRAWN_VIOLATIONS["hyperbola"]
    assert atom["feasibility_margin"] > 0.0


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
    # g2 = 1 + x1^2 stays positive everywhere, so its order-1 bound is rho = 1 > 0;
    # it is not concave, so the certificate comes off the Gram solve
    path = write_problem(tmp_path, "vars: x1\ng: 1 - x1^2\ng: 1 + x1^2\n")
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    assert code == 0
    g2 = payload["constraints"][1]
    assert g2["relaxations"][0]["rho"] == pytest.approx(1.0, abs=1e-6)
    assert g2["certificate"]["epsilon"] == 0.0
    assert g2["certificate"]["verification"]["passed"] is True
    assert "source" not in g2["certificate"]


def test_malformed_file_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x1\ng: x1^^2\n")
    code = cli.main([path])
    err = capsys.readouterr().err
    assert code == 64
    assert "line" in err
    # a misplaced token and a repeated variable name, each named by its position
    for text, position in (("vars: x\ng: 2 x\n", "(line 2, column 6)"), ("vars: x x\ng: x\n", "(line 1, column 9)")):
        code = cli.main([write_problem(tmp_path, text)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (64, "")
        assert captured.err.count("\n") == 1 and position in captured.err


def test_non_finite_coefficient_exits_64(tmp_path, capsys):
    path = write_problem(tmp_path, "vars: x\ng: (1e200*x)^2 - 1\n")
    code = cli.main([path])
    err = capsys.readouterr().err
    assert code == 64
    assert "non-finite coefficient (line 2, column 3)" in err


def test_overflowing_coefficient_gives_a_sound_verdict(tmp_path, capsys):
    # an interval, so convex: its concave g takes the closed form, which
    # overflows nowhere (warnings are errors here, and numpy raises on overflow)
    path = write_problem(tmp_path, "vars: x\ng: 1e300 - x^2\n")
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, payload = run_cli(capsys, [path])
    assert (payload["verdict"], code) == ("convex", 0)
    (entry,) = payload["constraints"]
    assert entry["certificate"]["source"] == "closed-form"
    assert entry["certificate"]["verification"]["residual"] == 0.0


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


def test_unwritable_out_exits_64_before_any_solve(tmp_path, capsys, monkeypatch):
    # a missing directory, a file in the place of one, and an existing
    # directory in the place of the report, named with and without a slash
    path = write_problem(tmp_path, INTERVAL)
    blocker = tmp_path / "file"
    blocker.write_text("")
    directory = tmp_path / "dir"
    directory.mkdir()
    solves = []
    monkeypatch.setattr(refute, "solve_relaxation", lambda *args: solves.append(args))
    for out in (tmp_path / "missing" / "report.json", blocker / "report.json", directory, f"{directory}/"):
        code = cli.main([path, "--mode", "certify", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith("convexcert: cannot write: ") and str(out) in captured.err
        assert captured.out == "" and solves == []
    assert not (tmp_path / "missing").exists() and blocker.read_text() == ""
    assert list(directory.iterdir()) == []


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
    calls = count_solves(monkeypatch)
    path = write_problem(tmp_path, PARABOLA)
    code, payload = run_cli(capsys, [path, "--mode", "analyze"])
    assert code == 0
    # g1: a member pair sampled before any solve is validated; g2 and g3:
    # concave, certified in closed form with no solve
    assert calls == []
    assert sum(len(c["relaxations"]) for c in payload["constraints"]) == 0
    g1, g2, g3 = payload["constraints"]
    assert [(g["certificate"]["source"], g["relaxations"]) for g in (g2, g3)] == [("closed-form", [])] * 2
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", None, None)
    (atom,) = witness["atoms"]
    assert MIDPOINT_MINIMA["parabola"] <= atom["violation"] <= DRAWN_VIOLATIONS["parabola"]
    assert atom["feasibility_margin"] > 0.0


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
    path = write_problem(tmp_path, LINE)
    for mode, expected in (("certify", ("convex", 0)), ("refute", ("inconclusive", 2)), ("analyze", ("convex", 0))):
        dump_dir = tmp_path / mode
        code, payload = run_cli(capsys, [path, "--mode", mode, "--dump-sdp", str(dump_dir)])
        assert (payload["verdict"], code) == expected  # refute: convex, so nothing to refute
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


def test_stengle_power_two(capsys):
    # p = 2 in sigma * g_mid = g_mid^4 + h: no identity at degrees 1 and 2, one at 3
    code, payload = run_cli(capsys, [str(PROBLEMS / "interval.txt"), "--mode", "certify", "--stengle",
                                     "--stengle-p", "2"])
    assert (payload["verdict"], code) == ("convex", 0)
    (g1,) = payload["constraints"]
    assert [(a["kind"], a["degree"], a["status"]) for a in g1["attempts"]] == [
        ("preordering", 1, "infeasible"), ("preordering", 2, "infeasible"), ("preordering", 3, "optimal")]
    cert = g1["certificate"]
    assert (cert["kind"], cert["degree"], cert["power"]) == ("preordering", 3, 2)
    assert cert["verification"]["passed"] and cert["verification"]["residual"] <= 1e-8
    assert g1["attempts"][-1]["residual"] == cert["verification"]["residual"]


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


def test_relaxation_neither_optimal_nor_unbounded_is_noted(tmp_path, capsys, monkeypatch):
    def stalled(spec, j, k):
        solver = {"solver_status": "stalled", "solver_tol": 1e-9, "blocks": [2, 1, 1], "reduced_blocks": [2, 1, 1],
                  "p": 3, "iterations": 100, "primal_residual": 1e-3, "dual_residual": 1e-3, "relative_gap": 1e-3}
        return refute.RelaxationResult(j=j, s=k, status="stalled", rho=None, z=None, diagnostics=solver)

    monkeypatch.setattr(refute, "solve_relaxation", stalled)
    code, payload = run_cli(capsys, [write_problem(tmp_path, LINE)])
    assert (payload["verdict"], code) == ("inconclusive", 2)
    (g1,) = payload["constraints"]
    assert [(r["order"], r["status"]) for r in g1["relaxations"]] == [(k, "stalled") for k in (1, 2, 3)]
    assert g1["attempts"] == []
    assert g1["notes"] == [f"relaxation at order {k} returned status stalled" for k in (1, 2, 3)]


BRANCH = "vars: x1 x2\ng: x1*x2 - 1\ng: x1\ng: x2\ng: 4 - x1\ng: 4 - x2\n"  # convex: x1*x2 >= 1 in the box


def test_nonnegative_last_bound_withdraws_the_signal(tmp_path, capsys):
    # the bounds of branch g1 climb from -0.571 and -4.41e-5 (orders 2 and 3,
    # neither flat) to +8.85e-11 at order 4, where refute stops: that last
    # bound leaves no room for a violation, so no signal is left and the exit is 2
    code, payload = run_cli(capsys, [write_problem(tmp_path, BRANCH), "--mode", "refute", "--max-order", "4"])
    assert (payload["verdict"], code, payload["flags"]) == ("inconclusive", 2, [])
    g1 = payload["constraints"][0]
    rhos = [r["rho"] for r in g1["relaxations"]]
    assert rhos[0] is None and rhos[1] < rhos[2] < -1e-6 <= rhos[3]
    assert g1["unproven_signal"] is False and g1["witness"] is None
    assert "flatness gate failed" in g1["notes"][2]
    assert g1["notes"][-1].startswith("lower bound rho=8.85")
    # the report as it read while an earlier negative bound kept the signal
    g1["unproven_signal"] = True
    payload["flags"] = ["unproven-nonconvexity-signal"]
    assert any("unproven_signal True" in issue for issue in validate_report_payload(payload))


def test_nonnegative_bound_withdraws_the_signal_in_analyze(tmp_path, capsys, monkeypatch):
    # 1 + x1^2 with its order-1 bound pushed to -0.5: that order raises the
    # signal (no pair can violate a convex g1), order 2 reads the true bound
    # 1 and withdraws it, though no certificate passes a 1e-300 recheck
    original = refute.solve_relaxation

    def first_negative(spec, j, k):
        result = original(spec, j, k)
        return dataclasses.replace(result, rho=-0.5) if k == 1 else result

    monkeypatch.setattr(refute, "solve_relaxation", first_negative)
    code, payload = run_cli(capsys, [write_problem(tmp_path, LINE), "--tol-residual", "1e-300"])
    assert (payload["verdict"], code, payload["flags"]) == ("inconclusive", 2, [])
    (g1,) = payload["constraints"]
    assert [r["rho"] for r in g1["relaxations"]] == [-0.5, pytest.approx(1.0), pytest.approx(1.0)]
    assert g1["unproven_signal"] is False
    assert g1["notes"][0].startswith("relaxation suggests non-convexity at order 1 (rho=-5.000e-01) "
                                     "but the flatness gate failed")
    assert [note.split(" (")[0] for note in g1["notes"][1:]] == [
        f"certificate at order {k} failed verification" for k in (2, 3)]


def test_attempts_carry_solver_diagnostics(tmp_path, capsys):
    # a preordering attempt records its own solve
    path = write_problem(tmp_path, INTERVAL)
    code, payload = run_cli(capsys, [path, "--mode", "certify", "--stengle"])
    attempt = payload["constraints"][0]["attempts"][0]
    assert attempt["kind"] == "preordering"
    assert attempt["solver"]["iterations"] >= 1
    assert attempt["solver"]["relative_gap"] <= 1e-8


def test_relaxations_record_sdp_sizes(tmp_path, capsys):
    path = write_problem(tmp_path, LINE)
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
    ("--ball", "1e200"), ("--ball", "1e-200"),  # R^2 overflows to inf, underflows to 0
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
# (source, order, g1's relaxation count) of the one-atom first witness, as the
# README table states it: a pair sampled before any relaxation
README_WITNESSES = {
    "parabola": ("sampled", None, 0),
    "hyperbola": ("sampled", None, 0),
    "two_interval": ("sampled", None, 0),
}
# least value of g1 at the midpoint of two members (hyperbola: (2, 1/2) and (-1/2, -2))
MIDPOINT_MINIMA = {"parabola": -1.0, "hyperbola": -1.5625, "two_interval": -1.0}
# a value of g1 that the midpoint of the best pair of the seed-0 draw, as drawn,
# reaches: within 1% of the minimum on the line, within about 25% in the plane
DRAWN_VIOLATIONS = {"parabola": -0.75, "hyperbola": -1.2, "two_interval": -0.99}


def test_readme_outcomes_name_exactly_the_bundled_problems():
    # a documented problem with no file has no parametrized run to fail
    assert set(README_OUTCOMES) == {path.stem for path in PROBLEMS.glob("*.txt")}


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.txt")), ids=lambda path: path.stem)
def test_bundled_problem_analyze_outcome(path, capsys):
    code, payload = run_cli(capsys, [str(path)])
    assert (payload["verdict"], code) == README_OUTCOMES[path.stem]
    witnesses = [c["witness"] for c in payload["constraints"] if c["witness"] is not None]
    if path.stem not in README_WITNESSES:
        assert witnesses == []
        return
    witness = witnesses[0]
    relaxations = payload["constraints"][0]["relaxations"]
    assert (witness["source"], witness["order"], len(relaxations)) == README_WITNESSES[path.stem]
    # no relaxation, so no bound
    assert witness["rho"] is None
    (atom,) = witness["atoms"]
    assert MIDPOINT_MINIMA[path.stem] <= atom["violation"] <= DRAWN_VIOLATIONS[path.stem]
    assert atom["feasibility_margin"] > 0.0
    assert "unproven-nonconvexity-signal" not in payload["flags"]


@pytest.mark.parametrize("name", sorted(README_WITNESSES))
def test_refute_examines_no_constraint_after_the_first_witness(name, capsys, monkeypatch):
    # sdp.solve runs for g1's orders only, since g1's witness settles the verdict
    calls = count_solves(monkeypatch)
    code, payload = run_cli(capsys, [str(PROBLEMS / f"{name}.txt"), "--mode", "refute"])
    assert (payload["verdict"], code, payload["flags"]) == ("not convex", 0, [])
    first, *rest = payload["constraints"]
    assert len(first["relaxations"]) == len(calls)
    witness = first["witness"]
    assert (witness["source"], witness["order"], len(calls)) == README_WITNESSES[name]
    assert len(witness["atoms"]) == 1
    assert rest == [
        {
            "index": j,
            "verdict": "inconclusive",
            "certificate": None,
            "witness": None,
            "relaxations": [],
            "attempts": [],
            "notes": ["not examined: the witness of g1 already refutes convexity"],
            "unproven_signal": False,
        }
        for j in range(2, payload["problem"]["m"] + 1)
    ]
    assert validate_report_payload(payload) == []


@pytest.mark.parametrize("mode", ["refute", "analyze"])
@pytest.mark.parametrize("name", sorted(README_WITNESSES))
def test_bundled_nonconvex_problems_need_no_solve(name, mode, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("sdp.solve called")

    monkeypatch.setattr(sdp, "solve", no_solve)
    code, payload = run_cli(capsys, [str(PROBLEMS / f"{name}.txt"), "--mode", mode])
    assert (payload["verdict"], code, payload["flags"]) == ("not convex", 0, [])
    witness = payload["constraints"][0]["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", None, None)
    assert validate_report_payload(payload) == []


# hyperbola scaled to S^2 g(x/S) at S = 1e2: no member lies in a box of refute.SAMPLE_RADII
FAR_HYPERBOLA = "vars: x1 x2\ng: x1*x2 - 10000.0\ng: 40000.0 - x1^2\ng: 40000.0 - x2^2\n"


def test_far_set_is_refuted_by_the_draw_at_the_first_negative_bound(tmp_path, capsys, monkeypatch):
    calls = count_solves(monkeypatch)
    draws = count_draws(monkeypatch)
    code, payload = run_cli(capsys, [write_problem(tmp_path, FAR_HYPERBOLA), "--mode", "refute"])
    assert (payload["verdict"], code, payload["flags"]) == ("not convex", 0, [])
    assert draws == [(1, len(refute.SAMPLE_RADII)), (1, 1)] and len(calls) == 1
    assert [len(c["relaxations"]) for c in payload["constraints"]] == [1, 0, 0]
    g1 = payload["constraints"][0]
    (record,) = g1["relaxations"]
    assert record["order"] == 1 and "flatness" not in record
    witness = g1["witness"]
    assert (witness["source"], witness["order"], witness["rho"]) == ("sampled", 1, record["rho"])
    (atom,) = witness["atoms"]
    assert record["rho"] <= atom["violation"] <= -10 * witness["tol_feas"]
    assert atom["feasibility_margin"] > 0.0


def test_both_draws_of_a_constraint_share_one_generator(tmp_path, capsys, monkeypatch):
    # the draw at the first negative bound continues the stream of the one
    # before the ladder, so it never repeats that draw's points
    seeds = []
    original = refute.sample_witness

    def recorded(spec, j, radii=refute.SAMPLE_RADII, seed=0, **kwargs):
        seeds.append(seed)
        return original(spec, j, radii, seed=seed, **kwargs)

    monkeypatch.setattr(refute, "sample_witness", recorded)
    code, payload = run_cli(capsys, [write_problem(tmp_path, FAR_HYPERBOLA), "--mode", "refute"])
    assert (payload["verdict"], code) == ("not convex", 0)
    first, second = seeds
    assert isinstance(first, np.random.Generator) and second is first


def test_convex_constraint_keeps_its_ladder_after_a_failed_draw(capsys, monkeypatch):
    # x1^3 >= 0 is convex, so no radius yields a violating pair, and with no
    # negative bound there is no second draw; every order still runs
    calls = count_solves(monkeypatch)
    draws = count_draws(monkeypatch)
    code, payload = run_cli(capsys, [str(PROBLEMS / "cubic_halfline.txt"), "--mode", "analyze"])
    assert (payload["verdict"], code) == ("inconclusive", 2)
    (g1,) = payload["constraints"]
    assert [(r["order"], r["status"]) for r in g1["relaxations"]] == [
        (k, "inconclusive-unbounded") for k in (2, 3, 4)
    ]
    assert len(calls) == 3 and draws == [(1, len(refute.SAMPLE_RADII))]


def test_refute_walks_every_ladder_up_to_the_refuted_constraint(tmp_path, capsys):
    # the interval g1 leaves no room for a violation; g2 cuts it into two pieces.
    # g1 is a quartic, so its ladder is walked, not skipped as a concave quadratic's
    path = write_problem(tmp_path, "vars: x1\ng: 5 - x1^4\ng: x1^2 - 1\n")
    code, payload = run_cli(capsys, [path, "--mode", "refute"])
    assert (payload["verdict"], code) == ("not convex", 0)
    g1, g2 = payload["constraints"]
    assert g1["verdict"] == "inconclusive" and g1["relaxations"]
    # g2's pair is sampled before its ladder, so g2 runs no relaxation
    assert g2["verdict"] == "refuted" and g2["relaxations"] == []
    assert (g2["witness"]["source"], g2["witness"]["order"]) == ("sampled", None)


def test_certify_walks_every_ladder_after_an_inconclusive_constraint(tmp_path, capsys, monkeypatch):
    # two intervals, as in two_interval, but with a quartic g2, which takes the Gram path
    calls = count_solves(monkeypatch)
    path = write_problem(tmp_path, "vars: x1\ng: x1^2 - 1\ng: 5 - x1^4\n")
    code, payload = run_cli(capsys, [path, "--mode", "certify"])
    assert (payload["verdict"], code) == ("inconclusive", 2)
    constraints = payload["constraints"]
    assert [c["verdict"] for c in constraints] == ["inconclusive", "certified"]
    assert all(c["relaxations"] for c in constraints)
    assert len(calls) == sum(len(c["relaxations"]) for c in constraints)


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
            assert MIDPOINT_MINIMA[path.stem] <= atom["violation"] <= DRAWN_VIOLATIONS[path.stem]


def test_runs_check_no_keys_of_their_own_polynomials(monkeypatch):
    # keys are checked where they come from outside; parsing and every mode
    # build their polynomials from keys valid by construction
    checked = []

    def record(self, space, terms):
        checked.append(dict(terms))
        raise AssertionError("Polynomial.__init__ called")

    monkeypatch.setattr(Polynomial, "__init__", record)
    configs = [cli.RunConfig(), cli.RunConfig(mode="certify", stengle=True), cli.RunConfig(archimedean=2.0)]
    for path in sorted(PROBLEMS.glob("*.txt")):
        spec = parse_problem(path.read_text())
        for config in configs:
            assert cli.run(config, spec)["verdict"] in ("convex", "not convex", "inconclusive")
    assert checked == []


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


def test_certificate_failed_recheck_is_noted_at_each_order(tmp_path, capsys):
    # each Gram certificate of 1 + x1^2 has a residual near 2e-10, above a 1e-300 recheck
    code, payload = run_cli(capsys, [write_problem(tmp_path, LINE), "--tol-residual", "1e-300"])
    assert (payload["verdict"], code) == ("inconclusive", 2)
    (g1,) = payload["constraints"]
    assert g1["certificate"] is None
    attempts = g1["attempts"]
    assert [(a["degree"], a["verified"]) for a in attempts] == [(k, False) for k in (1, 2, 3)]
    assert [note.split(" (")[0] for note in g1["notes"]] == [
        f"certificate at order {k} failed verification" for k in (1, 2, 3)
    ]
    assert all(f"(residual {a['residual']:.3e}, " in note for a, note in zip(attempts, g1["notes"]))


def test_each_fact_is_reported_once(tmp_path, capsys):
    # a certificate payload is its identity plus its one check; the solve
    # behind it is recorded once, by its relaxation or, for the preordering,
    # by its attempt, in the one solver record every solve shares. A
    # closed-form certificate ran no solve: its attempt names its source
    # instead of a solver status, and its entry has no relaxation
    _code, stengle = run_cli(capsys, [str(PROBLEMS / "interval.txt"), "--mode", "certify", "--stengle"])
    _code, line = run_cli(capsys, [write_problem(tmp_path, LINE), "--archimedean", "2"])
    _code, disk = run_cli(capsys, [str(PROBLEMS / "disk.txt"), "--archimedean", "2"])
    (preordering,), (qmodule,), (closed,) = stengle["constraints"], line["constraints"], disk["constraints"]
    assert set(preordering["certificate"]) == {"kind", "constraint", "degree", "power", "sigma_terms", "h_terms",
                                               "verification"}
    assert set(qmodule["certificate"]) == {"kind", "constraint", "degree", "epsilon", "terms", "verification"}
    assert [set(a) for a in qmodule["attempts"]] == [{"kind", "degree", "status", "residual", "verified"}]
    (record_keys,) = {frozenset(r["solver"]) for r in qmodule["relaxations"]}
    assert [frozenset(a["solver"]) for a in preordering["attempts"]] == [record_keys]
    assert set(closed["certificate"]) == {"kind", "constraint", "degree", "epsilon", "terms", "source",
                                          "verification"}
    assert closed["attempts"] == [{"kind": "quadratic-module", "degree": 1, "source": "closed-form",
                                   "residual": 0.0, "verified": True}]
    assert closed["relaxations"] == []


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
    assert (payload["verdict"], cert["kind"], cert["source"]) == ("convex", "quadratic-module", "closed-form")
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
    assert cert["verification"]["residual"] == entry["attempts"][0]["residual"]
    assert sorted(expanded) == sorted(t["label"] for t in cert["sigma_terms"] + cert["h_terms"])


@pytest.mark.parametrize("name", [n for n, (verdict, _code) in README_OUTCOMES.items() if verdict == "convex"])
def test_certificates_are_swap_symmetric(name, capsys):
    code, payload = run_cli(capsys, [str(PROBLEMS / f"{name}.txt")])
    assert code == 0
    n = payload["problem"]["n"]
    for entry in payload["constraints"]:
        cert = entry["certificate"]
        assert cert["verification"]["passed"] and cert["verification"]["residual"] <= 1e-6
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


# In one fresh interpreter: import the package, then run three problems; after
# each step, record whether scipy is loaded and what the run concluded.
SCIPY_PROBE = """
import json, sys
from pathlib import Path
import convexcert, convexcert.cli
steps = [["import", None, None, "scipy" in sys.modules]]
for name, args in json.loads(sys.argv[1]):
    out = sys.argv[2] + "/" + name + ".json"
    code = convexcert.cli.main([sys.argv[3] + "/" + name + ".txt", *args, "--out", out])
    report = json.loads(Path(out).read_text())
    first = report["constraints"][0]
    evidence = first["witness"]["source"] if first["witness"] else first["certificate"].get("source", "gram")
    steps.append([name, code, [report["verdict"], evidence], "scipy" in sys.modules])
print(json.dumps(steps))
"""


def test_scipy_is_loaded_only_by_a_solve_that_factors(tmp_path):
    # a sampled witness and a closed-form certificate solve nothing; the
    # preordering certificate of interval runs a Gram program, which does
    src = str(Path(convexcert.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [["hyperbola", ["--mode", "refute"]], ["disk", ["--mode", "certify"]],
            ["interval", ["--mode", "certify", "--stengle"]]]
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCIPY_PROBE, json.dumps(runs), str(tmp_path), str(PROBLEMS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == [
        ["import", None, None, False],
        ["hyperbola", 0, ["not convex", "sampled"], False],
        ["disk", 0, ["convex", "closed-form"], False],
        ["interval", 0, ["convex", "gram"], True],
    ]


# an ellipsoid cut by two half-spaces, shaped as the certify-convex instances
ELLIPSOID = """vars: x1 x2 x3
g: 1 - (0.8*x1 + 0.3*x2 - 0.1)^2 - (x2 - 0.2*x3 + 0.1)^2 - (0.5*x3 + 0.2*x1)^2
g: 0.6*x1 - 0.8*x2 + 0.3
g: x3 + 0.4
"""


def test_concave_quadratics_are_certified_with_no_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("sdp.solve called")

    monkeypatch.setattr(sdp, "solve", no_solve)
    for path, mode in ((str(PROBLEMS / "disk.txt"), "analyze"), (write_problem(tmp_path, ELLIPSOID), "certify")):
        code, payload = run_cli(capsys, [path, "--mode", mode, "--max-degree", "3"])
        assert (payload["verdict"], code) == ("convex", 0)
        for entry in payload["constraints"]:
            assert entry["relaxations"] == []
            assert entry["certificate"]["source"] == "closed-form"
            assert entry["certificate"]["verification"]["passed"] is True
            assert [a["verified"] for a in entry["attempts"]] == [True]
        assert validate_report_payload(payload) == []


def test_refute_skips_the_ladder_of_a_concave_quadratic(capsys, monkeypatch):
    calls = count_solves(monkeypatch)
    code, payload = run_cli(capsys, [str(PROBLEMS / "box.txt"), "--mode", "refute"])
    assert (payload["verdict"], code) == ("inconclusive", 2)
    assert calls == []
    for j, entry in enumerate(payload["constraints"], start=1):
        assert (entry["verdict"], entry["certificate"], entry["relaxations"], entry["attempts"]) == (
            "inconclusive", None, [], [])
        assert entry["notes"] == [f"g{j} is concave: its closed-form certificate gives rho >= 0 at every order, "
                                  "which leaves no room for a midpoint violation"]


@pytest.mark.parametrize("mode", ["certify", "refute", "analyze"])
def test_stengle_never_takes_the_closed_form(mode, capsys, monkeypatch):
    path = str(PROBLEMS / "interval.txt")
    if mode == "refute":  # --stengle has no part in refute mode: the closed form skips g1, with no solve
        calls = count_solves(monkeypatch)
        code, payload = run_cli(capsys, [path, "--mode", mode, "--stengle"])
        assert calls == []
        plain_code, plain = run_cli(capsys, [path, "--mode", mode])
        assert (code, payload["constraints"]) == (plain_code, plain["constraints"])
        assert code == 2 and payload["constraints"][0]["relaxations"] == []
        return

    def no_closed_form(*args):
        raise AssertionError("closed form tried")

    monkeypatch.setattr(certify, "closed_form_certificate", no_closed_form)
    code, payload = run_cli(capsys, [path, "--mode", mode, "--stengle"])
    (entry,) = payload["constraints"]
    assert (code, entry["certificate"]["kind"]) == (0, "preordering")
