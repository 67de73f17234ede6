"""Command line interface, exercised through real subprocesses."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from treeipm import cli, ipm, model, oracle
from treeipm.errors import ProblemFormatError


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


def test_solver_flags_default_to_solver_params():
    args = cli.build_parser().parse_args(["solve", "problem.json"])
    assert cli._params(args) == ipm.SolverParams()


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


def _x0_file(text):
    def argv(tmp_path, problem):
        (tmp_path / "x0.json").write_text(text)
        return ["solve", problem, "--x0", tmp_path / "x0.json", "--out", tmp_path]

    return argv


def _tree_file(text):
    def argv(tmp_path, problem):
        (tmp_path / "tree.json").write_text(text)
        return ["gen-flow", "--tree", tmp_path / "tree.json", "--out", tmp_path / "p.json"]

    return argv


def _solver_flag(flag, value):
    def argv(tmp_path, problem):
        return ["solve", problem, flag, value, "--out", tmp_path]

    return argv


def _problem_bytes(data):
    def argv(tmp_path, problem):
        (tmp_path / "bad.json").write_bytes(data)
        return ["solve", tmp_path / "bad.json", "--out", tmp_path]

    return argv


def _problem_file(edit):
    def argv(tmp_path, problem):
        doc = json.loads(problem.read_text())
        edit(doc)
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        return ["solve", tmp_path / "bad.json", "--out", tmp_path]

    return argv


@pytest.mark.parametrize(
    "make_argv",
    [
        _x0_file(json.dumps({"start": [0.5] * 6})),
        _x0_file("not json"),
        _x0_file(json.dumps({"x0": ["a"] * 6})),
        _tree_file(json.dumps({"shape": [-1, 0, 0]})),
        _tree_file(json.dumps({"parents": [-1, "a"]})),
        _problem_file(lambda doc: doc.update(subproblems=5)),
        _problem_file(lambda doc: doc.update(subproblems=[5])),
        _problem_file(lambda doc: doc["subproblems"][0]["objective"].update(q=["a"])),
        _problem_file(lambda doc: doc["subproblems"][0].update(J=[0, 3.2, 4.2, 5.2])),
        _tree_file(json.dumps({"parents": [-1, 0.6, 0.4]})),
        _solver_flag("--eps", "nan"),
        _problem_file(lambda doc: doc.update(n=10**12)),
        _problem_bytes(b"\xff\xfe"),
        lambda tmp_path, problem: ["gen-flow", "--seed", -1, "--out", tmp_path / "p.json"],
    ],
    ids=[
        "x0-missing-key",
        "x0-not-json",
        "x0-not-numeric",
        "tree-missing-parents",
        "tree-not-numeric",
        "subproblems-not-list",
        "subproblem-not-object",
        "objective-not-numeric",
        "scope-fractional",
        "tree-fractional",
        "eps-nan",
        "n-huge",
        "not-utf8",
        "seed-negative",
    ],
)
def test_malformed_input_files_exit_4(tmp_path, flow_files, capsys, make_argv):
    _, problem, _ = flow_files
    argv = [str(a) for a in make_argv(tmp_path, problem)]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert "malformed input" in capsys.readouterr().err


@pytest.mark.parametrize("unusable", ["out-is-file", "problem-is-dir"])
def test_unusable_paths_exit_4(tmp_path, flow_files, capsys, unusable):
    _, problem, _ = flow_files
    where = {"out-is-file": (problem, problem), "problem-is-dir": (tmp_path, tmp_path)}
    src, out = where[unusable]
    assert cli.main(["solve", str(src), "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "where, value",
    [
        (("objective", "q", 0), math.nan),
        (("objective", "P", 0, 0), math.inf),
        (("inequalities", 0, "b"), math.nan),
    ],
    ids=["q-nan", "P-inf", "b-nan"],
)
def test_non_finite_input_is_malformed(tmp_path, flow_files, capsys, where, value):
    _, problem, x0_path = flow_files
    doc = json.loads(problem.read_text())
    entry = doc["subproblems"][0]
    for key in where[:-1]:
        entry = entry[key]
    entry[where[-1]] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    x0 = np.array(json.loads(x0_path.read_text())["x0"])
    bad_x0 = x0.copy()
    bad_x0[0] = value
    (tmp_path / "x0.json").write_text(json.dumps({"x0": bad_x0.tolist()}))
    for args in ([tmp_path / "bad.json"], [problem, "--x0", tmp_path / "x0.json"]):
        assert cli.main([str(a) for a in ("solve", *args, "--out", tmp_path)]) == 4
        assert "finite" in capsys.readouterr().err
    p = model.load_problem(problem)
    for solver in (ipm.solve, oracle.centralized_ipm, ipm.solve_auto):
        with pytest.raises(ProblemFormatError, match="finite"):
            solver(p, x0=bad_x0)
    lam0 = {k: np.full(sp.m, value) for k, sp in enumerate(p.subproblems)}
    with pytest.raises(ProblemFormatError, match="finite"):
        ipm.start(ipm.prepare(p), x0, lam0)


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
