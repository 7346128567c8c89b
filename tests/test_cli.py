"""Command-line driver: subcommand smoke runs, config merging, exit codes
and deterministic outputs."""

import os
import re
import shlex
from pathlib import Path

import pytest

from poromech import cli
from poromech.cli import build_parser, main
from poromech.mesh import read_mesh
from poromech.problems import cantilever, studies

README = Path(__file__).resolve().parents[1] / "README.md"

REPORT_HEADER = "step,time,iterations,residual_reduction"
CONVERGENCE_HEADER = ("level,cells,unknowns,h,dt,steps,"
                      "e_p,e_u,e_s,rate_e_p,rate_e_u,rate_e_s")
INDICATOR_HEADER = "family,cells,dt,unstabilized,stabilized,ratio"
SOLVER_HEADER = ("level,family,cells,unknowns,dt,stabilized,"
                 "iterations,residual_reduction")


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return lines[0], [dict(zip(header, line.split(",")))
                      for line in lines[1:]]


# ----- mesh ------------------------------------------------------------------------

def test_mesh_command_writes_readable_file(tmp_path, capsys):
    out = tmp_path / "m.txt"
    vtk = tmp_path / "m.vtk"
    assert main(["mesh", "--n", "3", "--out", str(out),
                 "--vtk", str(vtk)]) == 0
    mesh = read_mesh(out)
    assert mesh.num_vertices == 16 and mesh.num_cells == 9
    assert vtk.read_text().startswith("# vtk DataFile Version 3.0")
    assert "wrote" in capsys.readouterr().out


def test_mesh_file_feeds_simulation(tmp_path):
    out = tmp_path / "v.txt"
    assert main(["mesh", "--family", "voronoi", "--n", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    assert main(["run", "--mesh-file", str(out), "--steps", "1",
                 "--outdir", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "report.csv").is_file()


# ----- run -------------------------------------------------------------------------

def test_run_cantilever_stabilized(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--n", "3", "--steps", "2", "--stabilize",
                 "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "report.csv")
    assert header == REPORT_HEADER
    assert len(rows) == 2
    assert rows[1]["time"] == repr(2e-5)
    assert (outdir / "state_final.vtk").is_file()
    header, rows = read_table(outdir / "partition.csv")
    assert header == "cell,macro" and len(rows) == 9


def test_run_step_count_from_t_end(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--n", "2", "--dt", "1e-5", "--t-end", "3e-5",
                 "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "report.csv")
    assert len(rows) == 3


def test_run_steps_take_precedence_over_t_end(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["run", "--n", "2", "--dt", "1e-5", "--t-end", "3e-5",
                 "--steps", "2", "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "report.csv")
    assert len(rows) == 2
    # a --t-end that --steps overrides is still checked
    assert main(["run", "--n", "2", "--t-end", "-1", "--steps", "2",
                 "--outdir", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err.startswith("error: t_end = -1.0 and dt")
    assert not (tmp_path / "bad").exists()


def test_run_manufactured_gmres_reports_iterations(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--problem", "manufactured", "--n", "3",
                 "--dt", "0.25", "--steps", "1", "--solver", "gmres",
                 "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "report.csv")
    assert int(rows[0]["iterations"]) >= 1
    assert float(rows[0]["residual_reduction"]) <= 1e-6


@pytest.mark.parametrize("problem", ["cantilever", "manufactured", "mandel"])
def test_run_gmres_settings_reach_every_problem(tmp_path, monkeypatch,
                                                problem):
    systems = []
    setup = cli.PROBLEMS[problem]

    def spy(*args, **kwargs):
        out = setup(*args, **kwargs)
        systems.append(out[0])
        return out

    monkeypatch.setitem(cli.PROBLEMS, problem, spy)
    assert main(["run", "--problem", problem, "--n", "3", "--steps", "1",
                 "--solver", "gmres", "--rtol", "1e-3", "--maxit", "321",
                 "--outdir", str(tmp_path / "out")]) == 0
    assert [(s.rtol, s.maxiter) for s in systems] == [(1e-3, 321)]


def test_run_rtol_sets_the_gmres_reduction(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--problem", "manufactured", "--n", "6",
                 "--dt", "0.1", "--steps", "1", "--solver", "gmres",
                 "--rtol", "1e-12", "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "report.csv")
    assert float(rows[0]["residual_reduction"]) <= 1e-12


def test_run_mandel_writes_report_and_snapshot(tmp_path):
    outdir = tmp_path / "out"
    assert main(["run", "--problem", "mandel", "--n", "3", "--steps", "2",
                 "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "report.csv")
    assert header == REPORT_HEADER
    assert [row["step"] for row in rows] == ["1", "2"]
    assert (outdir / "state_final.vtk").is_file()


def test_run_outputs_are_deterministic(tmp_path):
    args = ["run", "--n", "3", "--steps", "2", "--stabilize"]
    for name in ("a", "b"):
        assert main(args + ["--outdir", str(tmp_path / name)]) == 0
    for name in ("report.csv", "state_final.vtk", "partition.csv"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()


# ----- exit codes and config --------------------------------------------------------

def test_missing_mesh_file_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "--mesh-file", str(tmp_path / "absent.txt")])
    assert err.value.code == 2


def test_malformed_mesh_file_exits_with_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertices 1\n0.0 zero\ncells 0\n")
    with pytest.raises(SystemExit) as err:
        main(["run", "--mesh-file", str(bad)])
    assert err.value.code == 2


def test_invalid_choice_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["run", "--problem", "beam"])
    assert err.value.code == 2


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 3}')
    assert main(["mesh", "--config", str(cfg),
                 "--out", str(tmp_path / "m.txt")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_missing_or_malformed(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["mesh", "--config", str(tmp_path / "absent.json")])
    assert err.value.code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        main(["mesh", "--config", str(broken)])
    assert err.value.code == 2


def test_flags_override_config_values(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 4}')
    out = tmp_path / "m.txt"
    assert main(["mesh", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 16
    assert main(["mesh", "--config", str(cfg), "--n", "3",
                 "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 9


def test_config_boolean_overridden_by_negated_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stabilize": true}')
    for extra, partition in (([], True), (["--no-stabilize"], False)):
        outdir = tmp_path / str(len(extra))
        assert main(["run", "--n", "2", "--config", str(cfg),
                     "--outdir", str(outdir)] + extra) == 0
        # only a stabilized run has macro elements to write
        assert (outdir / "partition.csv").is_file() == partition


def test_config_unknown_problem_fails_cleanly(tmp_path, capsys):
    """argparse checks choices only on the command line, so a config value
    reaches the problem dispatch in cmd_run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": "beam"}')
    assert main(["run", "--n", "2", "--config", str(cfg),
                 "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: unknown problem 'beam'")
    assert not (tmp_path / "out").exists()


def test_config_not_an_object_exits_with_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("3")
    with pytest.raises(SystemExit) as err:
        main(["mesh", "--config", str(cfg)])
    assert err.value.code == 2


def test_config_switch_rejects_non_boolean(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"stabilize": "false"}')
    assert main(["run", "--n", "2", "--config", str(cfg),
                 "--outdir", str(tmp_path)]) == 1
    assert "take true or false" in capsys.readouterr().err


def test_config_strings_converted_by_option_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": "3"}')
    out = tmp_path / "m.txt"
    assert main(["mesh", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 9


def test_readme_examples_parse():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"`(poromech [^`]*)`", section)
    assert len(examples) >= 6
    parser = build_parser()
    for example in examples:
        parser.parse_args(shlex.split(example)[1:])


# ----- studies ---------------------------------------------------------------------

def test_converge_command_writes_rate_table(tmp_path):
    outdir = tmp_path / "out"
    assert main(["converge", "--levels", "2", "--base", "3",
                 "--dt0", "0.5", "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "convergence_cartesian.csv")
    assert header == CONVERGENCE_HEADER
    assert len(rows) == 2
    assert rows[0]["rate_e_p"] == ""
    assert float(rows[1]["rate_e_p"]) > 0.0
    assert int(rows[1]["cells"]) == 36


def test_converge_time_refinement_table(tmp_path):
    outdir = tmp_path / "out"
    assert main(["converge", "--time-refinement", "--n-fixed", "3",
                 "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "time_refinement_cartesian.csv")
    assert len(rows) == 5
    assert int(rows[0]["cells"]) == 9
    ladder = [float(row["dt"]) for row in rows]
    assert ladder == [0.1 / 2**k for k in range(5)]


def test_mandel_command_profiles(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["mandel", "--n", "5", "--dt-frac", "0.01",
                 "--times", "0.02,0.04", "--n-terms", "50",
                 "--outdir", str(outdir)]) == 0
    for frac in ("0.02", "0.04"):
        header, rows = read_table(outdir / f"profile_{frac}Tc.csv")
        assert header == "x,p_norm,p_exact_norm"
        assert len(rows) == 5
    _, rows = read_table(outdir / "history.csv")
    assert len(rows) == 5
    assert float(rows[0]["p_norm"]) == pytest.approx(1.0)
    assert "peak sealed-edge pressure" in capsys.readouterr().out


@pytest.mark.parametrize("option, value, error", [
    # a t = 0 sample is refused, not written as a mislabelled 0 T_c profile
    ("--times", "0,0.05", "error: sample times must be finite and positive"),
    ("--n-terms", "0", "error: n_terms must be at least 1"),
    ("--times", "", "error: at least one sample time"),
], ids=["time-zero", "no-series-terms", "no-sample-time"])
def test_mandel_command_rejects_bad_series_input(tmp_path, capsys, option,
                                                 value, error):
    outdir = tmp_path / "out"
    assert main(["mandel", "--n", "5", "--dt-frac", "0.01", option, value,
                 "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not list(outdir.glob("profile_*"))


@pytest.mark.parametrize("args, error", [
    (["converge", "--levels", "0"], "error: at least one level"),
    (["cantilever", "--families", ""], "error: at least one mesh family"),
    (["solver-bench", "--levels", ""],
     "error: at least one refinement level"),
    (["solver-bench", "--levels", "-1"],
     "error: refinement levels must be non-negative, got [-1]"),
    (["run", "--n", "2", "--steps", "-2"],
     "error: steps must be at least 1, got -2"),
    (["run", "--n", "2", "--t-end", "-5"],
     "error: t_end = -5.0 and dt = 1e-05 must be finite and positive"),
    (["run", "--n", "2", "--t-end", "nan"],
     "error: t_end = nan and dt = 1e-05 must be finite and positive"),
    (["run", "--n", "2", "--dt", "1e-5", "--t-end", "1e-6"],
     "error: t_end = 1e-06 and dt = 1e-05 must be finite and positive with "
     "round(t_end / dt) >= 1"),
    (["converge", "--t-end", "-1"],
     "error: t_end = -1.0 and dt = 0.1 must be finite and positive"),
    (["converge", "--t-end", "inf"],
     "error: t_end = inf and dt = 0.1 must be finite and positive"),
    (["converge", "--t-end", "0.01", "--dt0", "0.1"],
     "error: t_end = 0.01 and dt = 0.1 must be finite and positive with "
     "round(t_end / dt) >= 1"),
], ids=["converge", "cantilever", "solver-bench", "solver-bench-negative",
        "run-steps", "run-t-end", "run-t-end-nan", "run-t-end-below-dt",
        "converge-t-end", "converge-t-end-inf", "converge-t-end-below-dt"])
def test_empty_study_command_is_rejected(tmp_path, capsys, monkeypatch,
                                         args, error):
    """A command left with nothing to compute (no level, family or time
    step) exits 1 before it writes any output or starts a worker process,
    also where the ladder would run in a pool."""
    pools = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(studies, "ProcessPoolExecutor",
                        lambda **kwargs: pools.append(kwargs))
    outdir = tmp_path / "out"
    assert main(args + ["--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err.startswith(error)
    assert not outdir.exists()
    assert pools == []


@pytest.mark.parametrize("args", [
    ["converge", "--levels", "1", "--base", "2"],
    ["converge", "--time-refinement", "--n-fixed", "2"],
    ["cantilever", "--families", "voronoi", "--n", "3"],
    ["solver-bench", "--levels", "0", "--base", "3"],
], ids=["converge", "converge-time-refinement", "cantilever", "solver-bench"])
def test_study_commands_pass_voronoi_settings(tmp_path, monkeypatch, args):
    """--seed and --lloyd-iters reach every mesh that a study builds; one
    usable CPU keeps the ladders in this process, where the spy sees them."""
    calls = []
    build = studies.family_mesh

    def spy(family, n, **mesh):
        calls.append(mesh)
        return build(family, n, **mesh)

    monkeypatch.setattr(studies, "family_mesh", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert main(args + ["--seed", "3", "--lloyd-iters", "2",
                        "--outdir", str(tmp_path)]) == 0
    assert calls
    assert all(mesh == {"seed": 3, "lloyd_iters": 2} for mesh in calls)


def test_cantilever_command_indicator_table(tmp_path):
    outdir = tmp_path / "out"
    assert main(["cantilever", "--families", "cartesian", "--n", "4",
                 "--vtk", "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "indicator.csv")
    assert header == INDICATOR_HEADER
    assert float(rows[0]["ratio"]) < 1.0
    assert (outdir / "cantilever_cartesian_stab.vtk").is_file()
    assert (outdir / "cantilever_cartesian_unstab.vtk").is_file()
    assert (outdir / "partition_cartesian.csv").is_file()


def test_solver_bench_command(tmp_path):
    outdir = tmp_path / "out"
    assert main(["solver-bench", "--levels", "0", "--base", "4",
                 "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "solver_report.csv")
    assert header == SOLVER_HEADER
    assert len(rows) == 1
    assert int(rows[0]["iterations"]) >= 1
    assert rows[0]["stabilized"] == "true"


def test_cantilever_vtk_reuses_study_runs(tmp_path, monkeypatch):
    calls = []
    setup = cantilever.setup

    def counted(*args, **kwargs):
        calls.append(kwargs.get("stabilize"))
        return setup(*args, **kwargs)

    monkeypatch.setattr(cantilever, "setup", counted)
    assert main(["cantilever", "--families", "cartesian", "--n", "4",
                 "--vtk", "--outdir", str(tmp_path)]) == 0
    assert calls == [False, True]
    assert (tmp_path / "cantilever_cartesian_unstab.vtk").is_file()
