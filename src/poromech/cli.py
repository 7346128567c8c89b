"""Command-line driver: mesh generation, simulation runs, refinement
studies, stabilization and solver comparisons.

Each subcommand is bound once to the library functions that own its
options, each option to the parameter of its name or of RENAMED.  That
binding supplies both the option's default, from the parameter's
declaration, and the keyword that carries its value to the owner; only
options that no library function owns declare a default here.
`poromech <command> --help` lists every default.
Every subcommand accepts --config pointing to a JSON object whose keys
are the command's option names (dashes become underscores).  An option
takes its command-line value if given, else its config value, else its
default.  A config switch is true or false, null keeps the default, and
any other value is read as command-line text (a list comma-separated),
so the option's type converts it.  Outputs are deterministic for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from .assembly import SOLVER_KEYWORDS, DiscreteSystem
from .mesh import read_mesh, write_mesh
from .mesh.io import MeshFormatError
from .output import write_csv, write_partition_csv, write_vtk
from .problems import cantilever, mandel, manufactured, studies
from .solver import SolverError

BoolFlag = argparse.BooleanOptionalAction

# set-up of each `run --problem`
PROBLEMS = {"mandel": mandel.setup, "manufactured": manufactured.setup,
            "cantilever": cantilever.setup}

# the options named other than the library parameter that they set
RENAMED = {"solver": "linear_solver", "maxit": "maxiter", "n_fixed": "n"}


def _text(value) -> str:
    """Command-line text of value; a list is comma-separated."""
    if isinstance(value, (list, tuple)):
        return ",".join(map(str, value))
    return str(value)


def _comma_list(cast):
    """argparse type: the tuple of the non-empty comma-separated items,
    each converted by cast; a bad item is a usage error naming it."""
    def item(text):
        try:
            return cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
    return lambda text: tuple(map(item, filter(None, text.split(","))))


def _bind(sub: argparse.ArgumentParser, *owners) -> None:
    """Give each option of sub the default that the first of owners to
    declare its parameter declares, a tuple as comma-separated text."""
    dests = {RENAMED.get(dest, dest): dest
             for dest in vars(sub.parse_args([]))}
    for owner in reversed(owners):
        sub.set_defaults(**{
            dests[name]: _text(p.default) if isinstance(p.default, tuple)
            else p.default
            for name, p in inspect.signature(owner).parameters.items()
            if name in dests and p.default is not p.empty})


def _keywords(owner, ns) -> dict:
    """The values in ns of the options bound to owner's parameters, by
    parameter.  A study's `**mesh` or `**options` takes the keywords that
    it passes on: family_mesh's and the SOLVER_KEYWORDS."""
    params = inspect.signature(owner).parameters
    names = set(params)
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        names |= SOLVER_KEYWORDS.union(
            inspect.unwrap(studies.family_mesh).__kwdefaults__)
    return {RENAMED.get(dest, dest): value for dest, value in vars(ns).items()
            if RENAMED.get(dest, dest) in names}


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
    cfg = {k: v for k, v in cfg.items() if v is not None}
    # a switch has no type to convert a string such as "false"
    switches = {k for k in cfg if isinstance(defaults[k], bool)}
    wrong = sorted(k for k in switches if not isinstance(cfg[k], bool))
    if wrong:
        raise ValueError(f"config keys {wrong} take true or false")
    # parse_args converts a string default by the option's type
    sub.set_defaults(**{k: v if k in switches else _text(v)
                        for k, v in cfg.items()})


def _resolve_mesh(ns, parser):
    if getattr(ns, "mesh_file", None):
        path = Path(ns.mesh_file)
        if not path.is_file():
            parser.error(f"mesh file not found: {path}")
        try:
            return read_mesh(path)
        except MeshFormatError as exc:
            parser.error(f"mesh file {path}: {exc}")
    return studies.family_mesh(**_keywords(studies.family_mesh, ns))


def _outdir(ns) -> Path:
    out = Path(ns.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    # a set-up passes dt and the solver keywords on to DiscreteSystem and
    # returns (system, state), Mandel's (system, solution, state)
    system, *_, state = PROBLEMS[ns.problem](
        mesh, **_keywords(DiscreteSystem, ns))

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
        study, x_key = studies.time_refinement_study, "dt"
    else:
        study, x_key = studies.convergence_study, "h"
    rows = study(**_keywords(study, ns))
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
    mesh = _resolve_mesh(ns, parser)
    # dt and the sample times are fractions of the characteristic time,
    # which does not depend on the series; setup passes --n-terms on
    t_char = mandel.MandelSolution(mandel.default_material()).t_char
    system, solution, state0 = mandel.setup(
        mesh, ns.dt_frac * t_char, **_keywords(mandel.MandelSolution, ns))
    result = mandel.run_profiles(system, solution, state0,
                                 [f * solution.t_char for f in ns.times])
    out = _outdir(ns)
    p0 = result["p_undrained"]
    # one profile per distinct sample step, each labelled by its own time
    for profile in result["profiles"]:
        frac = profile["time"] / solution.t_char
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
    rows = studies.stabilization_study(
        **_keywords(studies.stabilization_study, ns))
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
    rows = studies.solver_study(**_keywords(studies.solver_study, ns))
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
    sub.add_argument("--seed", type=int, help="Voronoi seed")
    sub.add_argument("--lloyd-iters", type=int,
                     help="Lloyd passes of a Voronoi mesh")
    _bind(sub, studies.family_mesh)
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
    sub.add_argument("--stabilize", action=BoolFlag, help=stabilize)
    sub.add_argument("--solver", choices=("direct", "gmres"),
                     help="linear solver")
    sub.add_argument("--rtol", type=float, help="GMRES rtol")
    sub.add_argument("--maxit", type=int, help="GMRES maxit")
    _bind(sub, DiscreteSystem)

    sub = _subcommand(subs, "converge", cmd_converge,
                      "refinement ladder study")
    sub.add_argument("--levels", type=int, help="level count")
    sub.add_argument("--base", type=int, help="n at level 0")
    sub.add_argument("--dt0", type=float, help="dt at level 0")
    sub.add_argument("--t-end", type=float, help="final time")
    sub.add_argument("--stabilize", action=BoolFlag, help=stabilize)
    sub.add_argument("--time-refinement", action=BoolFlag, default=False,
                     help="halve dt on one fixed mesh instead")
    sub.add_argument("--n-fixed", type=int, help="n of the fixed mesh")
    _bind(sub, studies.convergence_study, studies.time_refinement_study,
          DiscreteSystem)

    sub = _subcommand(subs, "mandel", cmd_mandel,
                      "consolidation benchmark profiles")
    sub.add_argument("--n", type=int, default=20, help="subdivisions")
    sub.add_argument("--dt-frac", type=float, default=1.0e-4,
                     help="time step as a fraction of the "
                          "characteristic time")
    sub.add_argument("--times", type=_comma_list(float),
                     default="0.01,0.05,0.1,0.5",
                     help="comma-separated sample times as fractions of "
                          "the characteristic time")
    sub.add_argument("--n-terms", type=int,
                     help="terms of the analytical series")
    _bind(sub, mandel.MandelSolution)

    sub = _subcommand(subs, "cantilever", cmd_cantilever,
                      "stabilization indicator study", family=False)
    sub.add_argument("--families", type=_comma_list(str),
                     help="comma-separated mesh families")
    sub.add_argument("--n", type=int, help="subdivisions")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--vtk", action=BoolFlag, default=False,
                     help="write a VTK snapshot of every case")
    _bind(sub, studies.stabilization_study)

    sub = _subcommand(subs, "solver-bench", cmd_solver_bench,
                      "GMRES iteration scaling study")
    sub.add_argument("--levels", type=_comma_list(int),
                     help="comma-separated refinement levels")
    sub.add_argument("--base", type=int, help="n at level 0")
    sub.add_argument("--dt", type=float, help="time step")
    sub.add_argument("--stabilize", action=BoolFlag, help=stabilize)
    sub.add_argument("--rtol", type=float, help="GMRES rtol")
    _bind(sub, studies.solver_study)

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
    except (ValueError, OSError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
