"""Command-line driver: mesh generation, simulation runs, refinement
studies, stabilization and solver comparisons.

build_parser declares every option once, with its default, and
`poromech <command> --help` lists the defaults.  Every subcommand accepts
--config pointing to a JSON object whose keys are the command's option
names (dashes become underscores).  An option takes its command-line
value if given, else its config value, else its default; config strings
are converted by the option's type like command-line text.  Outputs are
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .mesh import MeshError, read_mesh, write_mesh
from .mesh.io import MeshFormatError
from .output import write_csv, write_partition_csv, write_vtk
from .problems import cantilever, mandel, manufactured, studies
from .solver import MAXITER, RTOL, SolverError

BoolFlag = argparse.BooleanOptionalAction

# set-up of each `run --problem`
PROBLEMS = {"mandel": mandel.setup, "manufactured": manufactured.setup,
            "cantilever": cantilever.setup}


def _apply_config(sub: argparse.ArgumentParser, path: str) -> None:
    """Make the JSON object in the file path the defaults of sub."""
    path = Path(path)
    if not path.is_file():
        sub.error(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        sub.error(f"config file {path}: {exc}")
    if not isinstance(cfg, dict):
        sub.error(f"config file {path}: expected a JSON object")
    defaults = vars(sub.parse_args([]))
    options = set(defaults) - {"func", "config"}
    unknown = set(cfg) - options
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; "
                         f"expected a subset of {sorted(options)}")
    # a switch has no type to convert a string such as "false"
    switches = [k for k, v in cfg.items()
                if isinstance(defaults[k], bool) and not isinstance(v, bool)]
    if switches:
        raise ValueError(f"config keys {sorted(switches)} take true or false")
    sub.set_defaults(**cfg)


def _resolve_mesh(ns, parser):
    if getattr(ns, "mesh_file", None):
        path = Path(ns.mesh_file)
        if not path.is_file():
            parser.error(f"mesh file not found: {path}")
        try:
            return read_mesh(path)
        except MeshFormatError as exc:
            parser.error(f"mesh file {path}: {exc}")
    return studies.family_mesh(ns.family, ns.n, seed=ns.seed,
                               lloyd_iters=ns.lloyd_iters)


def _outdir(ns) -> Path:
    out = Path(ns.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_list(text, cast):
    if isinstance(text, (list, tuple)):
        return [cast(v) for v in text]
    return [cast(v) for v in str(text).split(",") if v]


def _write_snapshot(vtk_path, partition_path, system, state) -> None:
    """VTK snapshot of a stepped state: cell pressures and displacements,
    plus the macro-element ids and their CSV when the system has them."""
    cell_data = {"pressure": state.p}
    if system.partition is not None:
        cell_data["macro"] = system.partition.cell_macro.astype(float)
        write_partition_csv(partition_path, system.partition)
    write_vtk(vtk_path, system.mesh, cell_data=cell_data,
              point_data={"displacement": state.u.reshape(-1, 2)})


def cmd_mesh(ns, parser) -> int:
    mesh = _resolve_mesh(ns, parser)
    write_mesh(ns.out, mesh)
    if ns.vtk:
        write_vtk(ns.vtk, mesh)
    print(f"wrote {ns.out}: {mesh.num_vertices} vertices, "
          f"{mesh.num_cells} cells, {mesh.num_faces} faces, "
          f"{mesh.num_unknowns} unknowns")
    return 0


def cmd_run(ns, parser) -> int:
    if ns.problem not in PROBLEMS:
        raise ValueError(f"unknown problem '{ns.problem}'")
    if ns.steps is not None and ns.steps < 1:
        raise ValueError(f"steps must be at least 1, got {ns.steps}")
    # --steps takes precedence over --t-end, which is checked either way
    steps = 1 if ns.t_end is None else studies.step_count(ns.dt, ns.t_end)
    if ns.steps is None:
        ns.steps = steps
    mesh = _resolve_mesh(ns, parser)
    # a set-up returns (system, state), Mandel's (system, solution, state)
    system, *_, state = PROBLEMS[ns.problem](
        mesh, ns.dt, stabilize=ns.stabilize, linear_solver=ns.solver,
        rtol=ns.rtol, maxiter=ns.maxit)

    out = _outdir(ns)
    report = []
    for step in range(1, ns.steps + 1):
        state = system.step(state)
        rep = system.last_report
        report.append({"step": step, "time": state.time,
                       "iterations": 0 if rep is None else rep.iterations,
                       "residual_reduction":
                           None if rep is None else rep.reduction})
    write_csv(out / "report.csv",
              ["step", "time", "iterations", "residual_reduction"], report)
    _write_snapshot(out / "state_final.vtk", out / "partition.csv",
                    system, state)
    print(f"ran {ns.problem} on {mesh.num_cells} cells for {ns.steps} "
          f"steps to t = {state.time:g}; outputs in {out}")
    return 0


def cmd_converge(ns, parser) -> int:
    if ns.time_refinement:
        rows = studies.time_refinement_study(
            ns.family, ns.n_fixed, t_end=ns.t_end, stabilize=ns.stabilize,
            seed=ns.seed, lloyd_iters=ns.lloyd_iters)
        x_key = "dt"
    else:
        rows = studies.convergence_study(
            ns.family, ns.levels, base=ns.base, dt0=ns.dt0, t_end=ns.t_end,
            stabilize=ns.stabilize, seed=ns.seed, lloyd_iters=ns.lloyd_iters)
        x_key = "h"
    for i, row in enumerate(rows):
        row["level"] = i
        rates = (studies.observed_rates(rows[i - 1:i + 1], x_key) if i
                 else dict.fromkeys(("e_p", "e_u", "e_s")))
        row.update({f"rate_{key}": rate for key, rate in rates.items()})
    header = ["level", "cells", "unknowns", "h", "dt", "steps",
              "e_p", "e_u", "e_s", "rate_e_p", "rate_e_u", "rate_e_s"]
    name = ("time_refinement" if ns.time_refinement else "convergence")
    write_csv(_outdir(ns) / f"{name}_{ns.family}.csv", header, rows)
    for row in rows:
        rates = "  ".join(
            "rate=." if row[f"rate_{k}"] is None
            else f"{row[f'rate_{k}']:.2f}" for k in ("e_p", "e_u", "e_s"))
        print(f"cells={row['cells']:<6d} h={row['h']:.4f} dt={row['dt']:.5f}"
              f"  e_p={row['e_p']:.3e} e_u={row['e_u']:.3e}"
              f" e_s={row['e_s']:.3e}  {rates}")
    return 0


def cmd_mandel(ns, parser) -> int:
    mesh = studies.family_mesh(ns.family, ns.n, seed=ns.seed,
                               lloyd_iters=ns.lloyd_iters)
    fractions = _parse_list(ns.times, float)
    # dt and the sample times are fractions of the characteristic time
    t_char = mandel.MandelSolution(mandel.default_material(),
                                   n_terms=8).t_char
    system, solution, state0 = mandel.setup(mesh, ns.dt_frac * t_char,
                                            n_terms=ns.n_terms)
    result = mandel.run_profiles(system, solution, state0,
                                 [f * solution.t_char for f in fractions])
    out = _outdir(ns)
    p0 = result["p_undrained"]
    for frac, profile in zip(sorted(fractions), result["profiles"]):
        rows = [(x, ph / p0, pe / p0) for x, ph, pe in
                zip(profile["x"], profile["p"], profile["p_point"])]
        write_csv(out / f"profile_{frac:g}Tc.csv",
                  ["x", "p_norm", "p_exact_norm"], rows)
        err = np.max(np.abs(profile["p"] - profile["p_exact"])) / p0
        print(f"t = {frac:g} T_c: max cell-mean error {err:.3e} "
              f"(normalized by the undrained pressure)")
    write_csv(out / "history.csv", ["t_frac", "p_norm"],
              zip(result["history_t"] / solution.t_char,
                  result["history_p"]))
    overshoot = float(np.max(result["history_p"]))
    print(f"peak sealed-edge pressure {overshoot:.4f} x undrained "
          f"(early-time rise {'present' if overshoot > 1 else 'absent'})")
    return 0


def cmd_cantilever(ns, parser) -> int:
    rows = studies.stabilization_study(_parse_list(ns.families, str),
                                       n=ns.n, dt=ns.dt, seed=ns.seed,
                                       lloyd_iters=ns.lloyd_iters)
    for row in rows:
        row["ratio"] = (row["stabilized"] / row["unstabilized"]
                        if row["unstabilized"] > 0 else None)
    out = _outdir(ns)
    write_csv(out / "indicator.csv",
              ["family", "cells", "dt", "unstabilized", "stabilized",
               "ratio"], rows)
    for row in rows:
        print(f"{row['family']:<10s} cells={row['cells']:<5d} "
              f"indicator unstabilized={row['unstabilized']:.3e} "
              f"stabilized={row['stabilized']:.3e}")
        if ns.vtk:
            family = row["family"]
            for label, key in (("unstab", "unstabilized"),
                               ("stab", "stabilized")):
                _write_snapshot(out / f"cantilever_{family}_{label}.vtk",
                                out / f"partition_{family}.csv",
                                *row["runs"][key])
    return 0


def cmd_solver_bench(ns, parser) -> int:
    rows = studies.solver_study(
        _parse_list(ns.levels, int), family=ns.family, base=ns.base,
        dt=ns.dt, stabilize=ns.stabilize, rtol=ns.rtol, seed=ns.seed,
        lloyd_iters=ns.lloyd_iters)
    out = _outdir(ns)
    write_csv(out / "solver_report.csv",
              ["level", "family", "cells", "unknowns", "dt", "stabilized",
               "iterations", "residual_reduction"], rows)
    for row in rows:
        print(f"level {row['level']}: {row['unknowns']} unknowns, "
              f"{row['iterations']} iterations")
    return 0


def _subcommand(subs, name, func, help, *, family=True, outdir=True):
    """Subparser of name with the options that the subcommands share."""
    sub = subs.add_parser(
        name, help=help, description=help,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub.set_defaults(func=func)
    if family:
        sub.add_argument("--family", choices=studies.FAMILIES,
                         default="cartesian", help="mesh family")
    sub.add_argument("--seed", type=int, default=0, help="Voronoi seed")
    sub.add_argument("--lloyd-iters", type=int, default=20,
                     help="Lloyd passes of a Voronoi mesh")
    if outdir:
        sub.add_argument("--outdir", default="out", help="output directory")
    return sub


def _add_mesh_options(sub, with_file=True):
    sub.add_argument("--n", type=int, default=10, help="subdivisions per "
                     "side (Voronoi: side count, n^2 cells)")
    if with_file:
        sub.add_argument("--mesh-file",
                         help="read the mesh from a text file instead")


def build_parser() -> argparse.ArgumentParser:
    """The poromech parser; its `commands` attribute maps each
    subcommand's name to its subparser."""
    parser = argparse.ArgumentParser(
        prog="poromech",
        description="Coupled poroelasticity on polygonal meshes: "
                    "mimetic flow, virtual-element mechanics.")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    stabilize = "add the pressure-jump stabilization"

    sub = _subcommand(subs, "mesh", cmd_mesh, "generate a mesh file",
                      outdir=False)
    _add_mesh_options(sub, with_file=False)
    sub.add_argument("--out", default="mesh.txt", help="mesh file")
    sub.add_argument("--vtk", help="also write the mesh to this VTK file")

    sub = _subcommand(subs, "run", cmd_run, "run one simulation")
    sub.add_argument("--problem", default="cantilever", help="problem",
                     choices=tuple(PROBLEMS))
    _add_mesh_options(sub)
    sub.add_argument("--dt", type=float, default=1.0e-5, help="time step")
    sub.add_argument("--steps", type=int,
                     help="time steps; if unset, t_end / dt, or 1")
    sub.add_argument("--t-end", type=float, help="final time")
    sub.add_argument("--stabilize", action=BoolFlag, default=False,
                     help=stabilize)
    sub.add_argument("--solver", choices=("direct", "gmres"),
                     default="direct", help="linear solver")
    sub.add_argument("--rtol", type=float, default=RTOL, help="GMRES rtol")
    sub.add_argument("--maxit", type=int, default=MAXITER, help="GMRES maxit")

    sub = _subcommand(subs, "converge", cmd_converge,
                      "refinement ladder study")
    sub.add_argument("--levels", type=int, default=5, help="level count")
    sub.add_argument("--base", type=int, default=5, help="n at level 0")
    sub.add_argument("--dt0", type=float, default=0.1, help="dt at level 0")
    sub.add_argument("--t-end", type=float, default=1.0, help="final time")
    sub.add_argument("--stabilize", action=BoolFlag, default=False,
                     help=stabilize)
    sub.add_argument("--time-refinement", action=BoolFlag, default=False,
                     help="halve dt on one fixed mesh instead")
    sub.add_argument("--n-fixed", type=int, default=40,
                     help="n of the fixed mesh")

    sub = _subcommand(subs, "mandel", cmd_mandel,
                      "consolidation benchmark profiles")
    sub.add_argument("--n", type=int, default=20, help="subdivisions")
    sub.add_argument("--dt-frac", type=float, default=1.0e-4,
                     help="time step as a fraction of the "
                          "characteristic time")
    sub.add_argument("--times", default="0.01,0.05,0.1,0.5",
                     help="comma-separated sample times as fractions of "
                          "the characteristic time")
    sub.add_argument("--n-terms", type=int, default=200,
                     help="terms of the analytical series")

    sub = _subcommand(subs, "cantilever", cmd_cantilever,
                      "stabilization indicator study", family=False)
    sub.add_argument("--families", default=",".join(studies.FAMILIES),
                     help="comma-separated mesh families")
    sub.add_argument("--n", type=int, default=10, help="subdivisions")
    sub.add_argument("--dt", type=float, default=1.0e-5, help="time step")
    sub.add_argument("--vtk", action=BoolFlag, default=False,
                     help="write a VTK snapshot of every case")

    sub = _subcommand(subs, "solver-bench", cmd_solver_bench,
                      "GMRES iteration scaling study")
    sub.add_argument("--levels", default="0,1,2",
                     help="comma-separated refinement levels")
    sub.add_argument("--base", type=int, default=10, help="n at level 0")
    sub.add_argument("--dt", type=float, default=1.0e-5, help="time step")
    sub.add_argument("--stabilize", action=BoolFlag, default=True,
                     help=stabilize)
    sub.add_argument("--rtol", type=float, default=RTOL, help="GMRES rtol")

    for sub_parser in subs.choices.values():
        sub_parser.add_argument("--config",
                                help="JSON file with option defaults")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser.commands[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args, parser)
    except (ValueError, MeshError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
