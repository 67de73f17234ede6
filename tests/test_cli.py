"""Command line interface, exercised through real subprocesses."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from treeipm import ipm, model


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "treeipm", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def flow_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("flow")
    problem = base / "problem.json"
    res = run_cli("gen-flow", "--height", 1, "--branching", 2, "--seed", 3, "--out", problem)
    assert res.returncode == 0, res.stderr
    return base, problem, problem.with_suffix(".x0.json")


def test_gen_flow_writes_instance_and_start(flow_files):
    base, problem, x0_path = flow_files
    p = model.load_problem(problem)
    assert p.n == 6 and p.m_total == 9 and p.p_total == 3
    doc = json.loads(x0_path.read_text())
    x0 = np.array(doc["x0"])
    assert x0.shape == (6,)
    assert p.max_inequality(x0) < 0


def test_gen_flow_is_deterministic(tmp_path, flow_files):
    _, problem, _ = flow_files
    again = tmp_path / "again.json"
    res = run_cli("gen-flow", "--height", 1, "--branching", 2, "--seed", 3, "--out", again)
    assert res.returncode == 0
    assert json.loads(again.read_text()) == json.loads(problem.read_text())


def test_gen_flow_tree_file_overrides_shape(tmp_path):
    shape = [-1, 0, 0, 1, 2]
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps({"parents": shape}))
    out = tmp_path / "custom.json"
    res = run_cli("gen-flow", "--tree", tree_path, "--seed", 1, "--out", out)
    assert res.returncode == 0, res.stderr
    assert f"{len(shape)} agents" in res.stdout
    p = model.load_problem(out)
    assert p.n == 2 * len(shape)
    # agent 1's scope includes child 3's feed variable
    assert 5 + 3 in p.subproblems[1].J


def test_solve_writes_artifacts(tmp_path, flow_files):
    _, problem, x0_path = flow_files
    outdir = tmp_path / "run"
    res = run_cli("solve", problem, "--x0", x0_path, "--out", outdir,
                  "--dump-tree", outdir / "tree.json")
    assert res.returncode == 0, res.stderr
    assert "converged" in res.stdout
    sol = json.loads((outdir / "solution.json").read_text())
    assert sol["converged"] is True
    p = model.load_problem(problem)
    x = np.array(sol["x"])
    assert np.isclose(sol["objective"], p.objective_value(x))
    assert p.max_inequality(x) < 0
    assert np.linalg.norm(p.equality_residual(x)) < 1e-6
    trace = ipm.ConvergenceTrace.from_csv(outdir / "trace.csv")
    assert len(trace) == sol["components"][0]["iterations"]
    acct = json.loads((outdir / "accounting.json").read_text())
    assert acct["identity_ok"] is True
    assert acct["mp_steps"] == acct["expected_mp_steps"]
    assert sol["components"][0]["privacy_ok"] is True
    tree_doc = json.loads((outdir / "tree.json").read_text())
    assert "cliques" in tree_doc


def test_solve_without_start_uses_phase_one(tmp_path, flow_files):
    _, problem, _ = flow_files
    outdir = tmp_path / "auto"
    res = run_cli("solve", problem, "--out", outdir)
    assert res.returncode == 0, res.stderr
    sol = json.loads((outdir / "solution.json").read_text())
    assert sol["converged"] is True
    # the origin violates the flow positivity constraints only weakly;
    # phase one reports how the start was obtained
    comp = sol["components"][0]
    assert "phase_one" in comp


def test_solve_central_agrees_with_distributed(tmp_path, flow_files):
    _, problem, x0_path = flow_files
    d_out = tmp_path / "dist"
    c_out = tmp_path / "cent"
    r1 = run_cli("solve", problem, "--x0", x0_path, "--out", d_out)
    r2 = run_cli("solve-central", problem, "--x0", x0_path, "--out", c_out)
    assert r1.returncode == 0 and r2.returncode == 0
    x_d = np.array(json.loads((d_out / "solution.json").read_text())["x"])
    x_c = np.array(json.loads((c_out / "solution.json").read_text())["x"])
    assert np.abs(x_d - x_c).max() <= 1e-6 * (1 + np.abs(x_c).max())


def test_compare_reports_step_agreement(tmp_path, flow_files):
    _, problem, _ = flow_files
    outdir = tmp_path / "cmp"
    res = run_cli("compare", problem, "--out", outdir)
    assert res.returncode == 0, res.stderr
    report = json.loads((outdir / "compare.json").read_text())
    assert len(report) == 1
    comp = report[0]
    assert comp["distributed_iterations"] == comp["centralized_iterations"]
    # compare starts from phase one, so late iterations run at huge barrier
    # weight; step sizes may differ in the last digits while the final
    # iterates still agree to machine precision
    assert comp["max_alpha_gap"] <= 1e-6
    # from the same iterate the two solvers take the same step
    assert comp["max_alpha_gap_same_iterate"] <= 1e-12
    assert comp["max_x_gap"] <= 1e-8


def test_dump_tree_describes_structure(tmp_path, flow_files):
    _, problem, _ = flow_files
    out = tmp_path / "tree.json"
    res = run_cli("dump-tree", problem, "--out", out)
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    assert len(doc["components"]) == 1
    tree = doc["components"][0]["tree"]
    assert len(tree["cliques"]) >= 1


# ---------------- exit codes ----------------


def test_usage_error_is_64():
    res = run_cli("unknown-command")
    assert res.returncode == 64
    res = run_cli("solve")  # missing positional
    assert res.returncode == 64


def test_missing_file_is_bad_input(tmp_path):
    res = run_cli("solve", tmp_path / "nope.json", "--out", tmp_path)
    assert res.returncode == 4
    assert "error" in res.stderr


def test_malformed_problem_is_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2}))
    res = run_cli("solve", bad, "--out", tmp_path)
    assert res.returncode == 4
    assert "malformed" in res.stderr


def test_infeasible_problem_is_exit_2(tmp_path):
    # x <= -1 and x >= 1 cannot hold
    sp = model.Subproblem(
        (0,),
        model.QuadraticForm(np.eye(1), np.zeros(1)),
        [
            model.Constraint("affine", np.array([1.0]), 1.0),
            model.Constraint("affine", np.array([-1.0]), 1.0),
        ],
    )
    p = model.CoupledProblem(1, [sp]).validate()
    path = tmp_path / "infeasible.json"
    model.save_problem(p, path)
    res = run_cli("solve", path, "--out", tmp_path)
    assert res.returncode == 2
    assert "infeasible" in res.stderr


def test_iteration_cap_is_exit_3(tmp_path, flow_files):
    _, problem, x0_path = flow_files
    res = run_cli(
        "solve", problem, "--x0", x0_path, "--out", tmp_path, "--max-iters", 2
    )
    assert res.returncode == 3
    sol = json.loads((tmp_path / "solution.json").read_text())
    assert sol["converged"] is False


def test_bad_solver_flag_is_bad_input(tmp_path, flow_files):
    _, problem, x0_path = flow_files
    res = run_cli(
        "solve", problem, "--x0", x0_path, "--out", tmp_path, "--gamma", 0.5
    )
    assert res.returncode == 4
