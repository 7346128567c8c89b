"""Command-line driver: subcommand smoke runs, config merging, exit codes
and deterministic outputs."""

import functools
import inspect
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from poromech import cli
from poromech.assembly import SOLVER_KEYWORDS, DiscreteSystem
from poromech.cli import build_parser, main
from poromech.mesh import read_mesh
from poromech.problems import cantilever, mandel, studies

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


def declared(owner, param):
    """The default that owner's signature declares for param."""
    return inspect.signature(owner).parameters[param].default


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

def usage_error(args):
    """main(args) exits 2, as argparse does on a usage error."""
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2


def config(tmp_path, text):
    """The path, as an argument, of a config file holding text."""
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return str(path)


def test_missing_mesh_file_exits_with_usage_error(tmp_path):
    usage_error(["run", "--mesh-file", str(tmp_path / "absent.txt")])


def test_malformed_mesh_file_exits_with_usage_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("vertices 1\n0.0 zero\ncells 0\n")
    usage_error(["run", "--mesh-file", str(bad)])


def test_invalid_choice_exits_with_usage_error():
    usage_error(["run", "--problem", "beam"])


@pytest.mark.parametrize("args, error", [
    (["mesh", "--n", "2", "--out", "{tmp}/absent/m.txt"],
     "No such file or directory: '{tmp}/absent/m.txt'"),
    (["run", "--n", "2", "--steps", "1", "--outdir", "{tmp}/file"],
     "File exists: '{tmp}/file'"),
], ids=["mesh-out-in-missing-directory", "run-outdir-is-a-file"])
def test_unwritable_output_path_fails_cleanly(tmp_path, capsys, args, error):
    """An output path that cannot be written exits 1 with one error line
    naming it, not a traceback."""
    (tmp_path / "file").write_text("")
    args = [arg.format(tmp=tmp_path) for arg in args]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert error.format(tmp=tmp_path) in err


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    assert main(["mesh", "--config", config(tmp_path, '{"bogus": 3}'),
                 "--out", str(tmp_path / "m.txt")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_missing_or_malformed(tmp_path):
    usage_error(["mesh", "--config", str(tmp_path / "absent.json")])
    usage_error(["mesh", "--config", config(tmp_path, "{not json")])


def test_flags_override_config_values(tmp_path):
    cfg = config(tmp_path, '{"n": 4}')
    out = tmp_path / "m.txt"
    assert main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 16
    assert main(["mesh", "--config", cfg, "--n", "3",
                 "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 9


def test_config_boolean_overridden_by_negated_flag(tmp_path):
    cfg = config(tmp_path, '{"stabilize": true}')
    for extra, partition in (([], True), (["--no-stabilize"], False)):
        outdir = tmp_path / str(len(extra))
        assert main(["run", "--n", "2", "--config", cfg,
                     "--outdir", str(outdir)] + extra) == 0
        # only a stabilized run has macro elements to write
        assert (outdir / "partition.csv").is_file() == partition


def test_config_unknown_problem_fails_cleanly(tmp_path, capsys):
    """argparse checks choices only on the command line, so a config value
    reaches the problem dispatch in cmd_run."""
    assert main(["run", "--n", "2", "--config",
                 config(tmp_path, '{"problem": "beam"}'),
                 "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: unknown problem 'beam'")
    assert not (tmp_path / "out").exists()


def test_config_not_an_object_exits_with_usage_error(tmp_path):
    usage_error(["mesh", "--config", config(tmp_path, "3")])


def test_config_switch_rejects_non_boolean(tmp_path, capsys):
    assert main(["run", "--n", "2", "--config",
                 config(tmp_path, '{"stabilize": "false"}'),
                 "--outdir", str(tmp_path)]) == 1
    assert "take true or false" in capsys.readouterr().err


def test_config_strings_converted_by_option_type(tmp_path):
    out = tmp_path / "m.txt"
    assert main(["mesh", "--config", config(tmp_path, '{"n": "3"}'),
                 "--out", str(out)]) == 0
    assert read_mesh(out).num_cells == 9


@pytest.mark.parametrize("command, cfg, args, table, column, values", [
    ("cantilever", '{"families": ["cartesian"]}', ["--n", "3"],
     "indicator.csv", "family", ["cartesian"]),
    ("solver-bench", '{"levels": [0, 1]}', ["--base", "2"],
     "solver_report.csv", "level", ["0", "1"]),
    ("mandel", '{"times": [0.02]}', ["--n", "3", "--dt-frac", "0.01",
                                      "--n-terms", "20"],
     "history.csv", "t_frac", ["0.0", "0.01", "0.02"]),
], ids=["families", "levels", "times"])
def test_config_lists_are_taken_as_lists(tmp_path, command, cfg, args,
                                         table, column, values):
    """A JSON list is taken item by item where the command line takes a
    comma-separated string."""
    outdir = tmp_path / "out"
    assert main([command, "--config", config(tmp_path, cfg),
                 "--outdir", str(outdir)] + args) == 0
    _, rows = read_table(outdir / table)
    assert [row[column] for row in rows] == values


@pytest.mark.parametrize("command, cfg, error", [
    ("mesh", '{"n": true}', "argument --n: invalid int value: 'True'"),
    ("converge", '{"levels": 2.5}',
     "argument --levels: invalid int value: '2.5'"),
    ("converge", '{"levels": [1, 2]}',
     "argument --levels: invalid int value: '1,2'"),
    ("converge", '{"levels": null}', None),
], ids=["bool-for-int", "float-for-int", "list-for-int", "null"])
def test_config_values_are_parsed_like_flags(tmp_path, capsys, monkeypatch,
                                             command, cfg, error):
    """A config value other than a switch's true or false is converted by
    the option's type like command-line text, and a bad one is a usage
    error that writes nothing; null leaves the option at its default."""
    seen = []
    study = studies.convergence_study

    @functools.wraps(study)
    def spy(family, levels, **kwargs):
        seen.append(levels)
        return []

    monkeypatch.setattr(studies, "convergence_study", spy)
    out = tmp_path / "out"
    args = [command, "--config", config(tmp_path, cfg),
            "--out" if command == "mesh" else "--outdir", str(out)]
    if error is None:
        assert main(args) == 0
        assert seen == [declared(study, "levels")]
        return
    usage_error(args)
    assert error in capsys.readouterr().err
    assert not out.exists()
    assert seen == []


@pytest.mark.parametrize("command, args, cfg, error", [
    ("solver-bench", ["--levels", "a"], None,
     "argument --levels: invalid int value: 'a'"),
    ("solver-bench", ["--levels", "0,a"], None,
     "argument --levels: invalid int value: 'a'"),
    ("mandel", ["--times", "x"], None,
     "argument --times: invalid float value: 'x'"),
    ("solver-bench", [], '{"levels": ["a"]}',
     "argument --levels: invalid int value: 'a'"),
    ("mandel", [], '{"times": ["x"]}',
     "argument --times: invalid float value: 'x'"),
], ids=["levels", "levels-second-item", "times", "config-levels",
        "config-times"])
def test_list_item_that_does_not_convert_is_a_usage_error(
        tmp_path, capsys, command, args, cfg, error):
    """A comma-list option converts each item by its type, so a bad item,
    given as a flag or in a config file, exits 2 naming the option and
    the item, and writes nothing."""
    if cfg is not None:
        args = args + ["--config", config(tmp_path, cfg)]
    outdir = tmp_path / "out"
    usage_error([command, *args, "--outdir", str(outdir)])
    assert error in capsys.readouterr().err
    assert not outdir.exists()


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


def test_converge_time_refinement_takes_levels_and_dt0(tmp_path):
    outdir = tmp_path / "out"
    assert main(["converge", "--time-refinement", "--levels", "2",
                 "--dt0", "0.5", "--n-fixed", "2",
                 "--outdir", str(outdir)]) == 0
    _, rows = read_table(outdir / "time_refinement_cartesian.csv")
    assert [float(row["dt"]) for row in rows] == [0.5, 0.25]
    assert [int(row["cells"]) for row in rows] == [4, 4]


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
    # a repeated fraction gives one line and one profile per distinct
    # time, each holding the series at its own time
    assert main(["mandel", "--n", "3", "--dt-frac", "0.01",
                 "--times", "0.02,0.02,0.04", "--n-terms", "20",
                 "--outdir", str(tmp_path / "repeat")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "t = 0.02 T_c", "t = 0.04 T_c"]
    assert sorted(path.name for path in (tmp_path / "repeat").glob(
        "profile_*")) == ["profile_0.02Tc.csv", "profile_0.04Tc.csv"]
    t_char = mandel.MandelSolution(mandel.default_material()).t_char
    system, solution, state0 = mandel.setup(
        studies.family_mesh("cartesian", 3), 0.01 * t_char, n_terms=20)
    result = mandel.run_profiles(system, solution, state0,
                                 [0.02 * t_char, 0.04 * t_char])
    p0 = result["p_undrained"]
    for frac, profile, line in zip(("0.02", "0.04"), result["profiles"],
                                   lines):
        _, rows = read_table(tmp_path / "repeat" / f"profile_{frac}Tc.csv")
        for column, values in (("p_norm", profile["p"]),
                               ("p_exact_norm", profile["p_point"])):
            assert [float(row[column]) for row in rows] == pytest.approx(
                values / p0, rel=1e-12, abs=0.0)
        err = np.abs(profile["p"] - profile["p_exact"]).max() / p0
        assert line.startswith(f"t = {frac} T_c: max cell-mean error "
                               f"{err:.3e} ")


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
    (["converge", "--time-refinement", "--levels", "0"],
     "error: at least one level"),
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
], ids=["converge", "converge-time-refinement", "cantilever",
        "solver-bench", "solver-bench-negative",
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

    @functools.wraps(build)
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


COMMANDS = ("mesh", "run", "converge", "mandel", "cantilever", "solver-bench")
STABILIZE = "add the pressure-jump stabilization"

# (subcommand, option dest, owner, its parameter, the option's help) of
# every option whose default a library function declares.  converge's
# --levels, --dt0 and --t-end serve both manufactured ladders, and
# mandel.setup passes --n-terms on to MandelSolution, so two rows each
# assert that the second declaration agrees.
OWNED = [
    *((command, "seed", studies.family_mesh, "seed", "Voronoi seed")
      for command in COMMANDS),
    *((command, "lloyd_iters", studies.family_mesh, "lloyd_iters",
       "Lloyd passes of a Voronoi mesh") for command in COMMANDS),
    ("run", "stabilize", DiscreteSystem, "stabilize", STABILIZE),
    ("run", "solver", DiscreteSystem, "linear_solver", "linear solver"),
    ("run", "rtol", DiscreteSystem, "rtol", "GMRES rtol"),
    ("run", "maxit", DiscreteSystem, "maxiter", "GMRES maxit"),
    ("converge", "family", studies.convergence_study, "family",
     "mesh family"),
    ("converge", "levels", studies.convergence_study, "levels",
     "level count"),
    ("converge", "levels", studies.time_refinement_study, "levels",
     "level count"),
    ("converge", "base", studies.convergence_study, "base", "n at level 0"),
    ("converge", "dt0", studies.convergence_study, "dt0", "dt at level 0"),
    ("converge", "dt0", studies.time_refinement_study, "dt0",
     "dt at level 0"),
    ("converge", "t_end", studies.convergence_study, "t_end", "final time"),
    ("converge", "t_end", studies.time_refinement_study, "t_end",
     "final time"),
    ("converge", "n_fixed", studies.time_refinement_study, "n",
     "n of the fixed mesh"),
    ("converge", "stabilize", DiscreteSystem, "stabilize", STABILIZE),
    ("mandel", "n_terms", mandel.setup, "n_terms",
     "terms of the analytical series"),
    ("mandel", "n_terms", mandel.MandelSolution, "n_terms",
     "terms of the analytical series"),
    ("cantilever", "families", studies.stabilization_study, "families",
     "comma-separated mesh families"),
    ("cantilever", "n", studies.stabilization_study, "n", "subdivisions"),
    ("cantilever", "dt", studies.stabilization_study, "dt", "time step"),
    ("solver-bench", "levels", studies.solver_study, "levels",
     "comma-separated refinement levels"),
    ("solver-bench", "family", studies.solver_study, "family",
     "mesh family"),
    ("solver-bench", "base", studies.solver_study, "base", "n at level 0"),
    ("solver-bench", "dt", studies.solver_study, "dt", "time step"),
    ("solver-bench", "stabilize", studies.solver_study, "stabilize",
     STABILIZE),
    ("solver-bench", "rtol", studies.solver_study, "rtol", "GMRES rtol"),
]


def as_option(value):
    """A default as its option takes it: a tuple as comma-separated text."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return value


def check_owned_defaults(parser):
    """Each owned option's parsed default is its owner's declared default,
    and --help lists it."""
    for command, dest, owner, param, label in OWNED:
        sub = parser.commands[command]
        assert vars(sub.parse_args([]))[dest] == declared(owner, param), \
            (command, dest)
        value = as_option(declared(owner, param))
        text = " ".join(sub.format_help().split())
        assert f"{label} (default: {value})" in text, (command, dest)


def test_option_defaults_are_those_of_their_owners():
    parser = build_parser()
    assert tuple(parser.commands) == COMMANDS
    check_owned_defaults(parser)


def with_defaults(function):
    """The names of the parameters that function declares a default for."""
    return {name for name, param in
            inspect.signature(function).parameters.items()
            if param.default is not param.empty}


def test_every_owned_parameter_has_an_option():
    """Each parameter with a default of a subcommand's library functions
    is the dest of one of its options, after the three renames: family_mesh's
    Voronoi settings on every subcommand, run's solver keywords and each
    study's own parameters.  So a study parameter added later fails here
    until it gets its option."""
    assert SOLVER_KEYWORDS <= with_defaults(DiscreteSystem)
    owned = {
        "mesh": set(),
        "run": set(SOLVER_KEYWORDS),
        "converge": (with_defaults(studies.convergence_study)
                     | with_defaults(studies.time_refinement_study)),
        "mandel": with_defaults(mandel.setup),
        "cantilever": with_defaults(studies.stabilization_study),
        "solver-bench": with_defaults(studies.solver_study),
    }
    renamed = {"run": {"linear_solver": "solver", "maxiter": "maxit"},
               "converge": {"n": "n_fixed"}}
    parser = build_parser()
    for command, params in owned.items():
        dests = set(vars(parser.commands[command].parse_args([])))
        params |= with_defaults(studies.family_mesh)
        names = renamed.get(command, {})
        assert {names.get(name, name) for name in params} <= dests, command


def changed(value):
    """A default other than value, of its type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 2.0 * value
    if isinstance(value, tuple):
        return value[::-1]
    return {"direct": "gmres", "cartesian": "hybrid"}[value]


def test_options_follow_a_changed_owner_default(monkeypatch):
    """With every owner's default changed, the parser built afterwards
    parses and lists the new defaults."""
    before = {(owner, param): declared(owner, param)
              for _, _, owner, param, _ in OWNED}
    for (owner, param), value in before.items():
        function = owner.__init__ if inspect.isclass(owner) else owner
        value = changed(value)
        if param in (function.__kwdefaults__ or {}):
            monkeypatch.setitem(function.__kwdefaults__, param, value)
            continue
        # the last len(__defaults__) positional parameters have defaults
        positional = [name for name, par in
                      inspect.signature(function).parameters.items()
                      if par.kind is par.POSITIONAL_OR_KEYWORD]
        defaults = list(function.__defaults__)
        defaults[positional.index(param) - len(positional)] = value
        monkeypatch.setattr(function, "__defaults__", tuple(defaults))
    assert all(declared(owner, param) == changed(value)
               for (owner, param), value in before.items())
    check_owned_defaults(build_parser())


def test_cantilever_command_indicator_table(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert main(["cantilever", "--families", "cartesian", "--n", "4",
                 "--vtk", "--outdir", str(outdir)]) == 0
    header, rows = read_table(outdir / "indicator.csv")
    assert header == INDICATOR_HEADER
    assert capsys.readouterr().out.startswith("cartesian  cells=16    "
                                              "indicator unstabilized=")
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
