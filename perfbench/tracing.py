"""Span recording around the layers of poromech, from outside the package.

A Recorder keeps spans (name, start, end, parent, run id) in memory.
`instrument` replaces selected poromech functions and methods by wrappers
that open a span around each call, and returns an undo callable.  Nothing
under src/ is edited: the wrappers are installed by attribute assignment on
the loaded modules and classes, in every poromech module that holds a
reference to the original object.

Layer spans (the part of the name before the first dot is the module):

    mesh.build            public mesh generators
    vem.cell_ops          every public function of poromech.vem
    mfd.inner_product     every public function of poromech.mfd
    stab.partition        stab.build_macro_elements
    stab.jump_matrix      stab.assemble_jump_matrix
    stab.indicator        stab.checkerboard_indicator
    assembly.system       DiscreteSystem.__init__
    assembly.step         DiscreteSystem.step
    assembly.rhs          DiscreteSystem.mech_rhs / mass_rhs / trace_rhs
    assembly.dirichlet    DiscreteSystem.dirichlet_values
    assembly.factor       scipy splu as called from poromech
    solver.lu_solve       solve() of those factor objects
    solver.gmres          solver.gmres
    solver.precond_build  BlockPreconditioner.__init__
    solver.precond_apply  BlockPreconditioner.__call__
    problems.norms        ErrorNorms.accumulate

Boundary-condition callbacks are counted (problems.bc_call), not spanned:
they run once per boundary dof per step, and a span each would cost more
than the callback.  A target that no longer exists is skipped, so its
metrics read zero instead of failing the run.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.counts = defaultdict(int)   # (run, root name, name) -> count
        self.run_id = 0
        self.factor_nnz: list = []       # (run, nnz of L + U) per factor
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), None, parent, self.run_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def count(self, name: str) -> None:
        """Add one to a counter, attributed to the outermost open span."""
        root = self.spans[self._stack[0]][0] if self._stack else None
        self.counts[(self.run_id, root, name)] += 1

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run"])
            out.writerows(self.spans)


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are the spans whose parent index points at the span; their
    intervals are merged and clipped to the parent before subtracting, so
    overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots(spans) -> list[int]:
    """Index of the outermost ancestor of each span (itself if top-level)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[3] < 0 else out[s[3]])
    return out


# ----- wrappers ---------------------------------------------------------------

def _wrap(fn, rec: Recorder, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)
    return traced


class _TracedFactor:
    """Factor object whose solve() calls are spans; the rest passes through."""

    def __init__(self, factor, rec: Recorder):
        self._factor, self._rec = factor, rec

    def solve(self, *args, **kwargs):
        idx = self._rec.open("solver.lu_solve")
        try:
            return self._factor.solve(*args, **kwargs)
        finally:
            self._rec.close(idx)

    def __getattr__(self, attr):
        return getattr(self._factor, attr)


class _TracedLinalg:
    """Stand-in for scipy.sparse.linalg inside poromech modules."""

    def __init__(self, module, rec: Recorder):
        self._module, self._rec = module, rec

    def splu(self, *args, **kwargs):
        idx = self._rec.open("assembly.factor")
        try:
            factor = self._module.splu(*args, **kwargs)
        finally:
            self._rec.close(idx)
        self._rec.factor_nnz.append((self._rec.run_id, factor.nnz))
        return _TracedFactor(factor, self._rec)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _counted(fn, rec: Recorder, name: str):
    if fn is None:
        return None

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return counted


def _count_bc_calls(init, rec: Recorder):
    """DiscreteSystem.__init__ wrapper that counts boundary callbacks.

    The system keeps references to the callbacks it is given, so they are
    wrapped before construction, on a copy of the BoundaryConditions.
    """
    params = list(inspect.signature(init).parameters)
    pos = params.index("bcs") if "bcs" in params else None

    @functools.wraps(init)
    def wrapped(self, *args, **kwargs):
        args = list(args)
        if "bcs" in kwargs:
            kwargs["bcs"] = _counted_bcs(kwargs["bcs"], rec)
        elif pos is not None and len(args) >= pos:
            args[pos - 1] = _counted_bcs(args[pos - 1], rec)
        return init(self, *args, **kwargs)
    return wrapped


def _counted_bcs(bcs, rec: Recorder):
    name = "problems.bc_call"
    return dataclasses.replace(
        bcs,
        displacement=[(where, mask, _counted(value, rec, name))
                      for where, mask, value in bcs.displacement],
        traction=[(where, _counted(value, rec, name))
                  for where, value in bcs.traction],
        pressure=_counted(bcs.pressure, rec, name),
        flux=_counted(bcs.flux, rec, name))


# (span name, module, attribute path); "*" takes every public function
# defined in the module.
TARGETS = [
    ("mesh.build", "poromech.mesh.generators", "build_cartesian"),
    ("mesh.build", "poromech.mesh.generators", "build_skewed"),
    ("mesh.build", "poromech.mesh.generators", "build_hybrid"),
    ("mesh.build", "poromech.mesh.generators", "build_voronoi"),
    ("vem.cell_ops", "poromech.vem", "*"),
    ("mfd.inner_product", "poromech.mfd", "*"),
    ("stab.partition", "poromech.stab", "build_macro_elements"),
    ("stab.jump_matrix", "poromech.stab", "assemble_jump_matrix"),
    ("stab.indicator", "poromech.stab", "checkerboard_indicator"),
    ("assembly.system", "poromech.assembly", "DiscreteSystem.__init__"),
    ("assembly.step", "poromech.assembly", "DiscreteSystem.step"),
    ("assembly.rhs", "poromech.assembly", "DiscreteSystem.mech_rhs"),
    ("assembly.rhs", "poromech.assembly", "DiscreteSystem.mass_rhs"),
    ("assembly.rhs", "poromech.assembly", "DiscreteSystem.trace_rhs"),
    ("assembly.dirichlet", "poromech.assembly",
     "DiscreteSystem.dirichlet_values"),
    ("solver.gmres", "poromech.solver", "gmres"),
    ("solver.precond_build", "poromech.solver",
     "BlockPreconditioner.__init__"),
    ("solver.precond_apply", "poromech.solver",
     "BlockPreconditioner.__call__"),
    ("problems.norms", "poromech.problems.norms", "ErrorNorms.accumulate"),
]

# Modules whose `spla` (scipy.sparse.linalg) reference is replaced so that
# factorizations and their solves are spanned.
LINALG_USERS = ("poromech.assembly", "poromech.solver")


def _public_functions(module):
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def _replace_everywhere(original, replacement, undo) -> None:
    """Rebind every poromech module global that refers to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "poromech"
                               or mod_name.startswith("poromech.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def instrument(rec: Recorder):
    """Install the span wrappers; returns a callable that removes them."""
    undo: list = []
    for span_name, mod_name, path in TARGETS:
        module = importlib.import_module(mod_name)
        names = _public_functions(module) if path == "*" else [path]
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if original is None:
                continue
            traced = _wrap(original, rec, span_name)
            if owner_name:
                setattr(owner, attr, traced)
                undo.append((owner, attr, original))
            else:
                _replace_everywhere(original, traced, undo)

    assembly = importlib.import_module("poromech.assembly")
    init = assembly.DiscreteSystem.__init__
    assembly.DiscreteSystem.__init__ = _count_bc_calls(init, rec)
    undo.append((assembly.DiscreteSystem, "__init__", init))

    for mod_name in LINALG_USERS:
        module = importlib.import_module(mod_name)
        original = getattr(module, "spla", None)
        if original is not None:
            module.spla = _TracedLinalg(original, rec)
            undo.append((module, "spla", original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# ----- per-layer metrics ------------------------------------------------------

# name -> unit, in reporting order.  *_s and counts are per set-up
# (episode), *_ms and *_per_step are per step unless noted.
LAYER_METRICS = {
    "mesh.build_s": "s",
    "vem.cell_ops_s": "s",
    "vem.calls": "count",
    "mfd.inner_product_s": "s",
    "mfd.calls": "count",
    "assembly.system_self_s": "s",
    "assembly.factor_s": "s",
    "assembly.factorizations": "count",
    "assembly.condensed_nnz": "count",
    "assembly.lu_fill_nnz": "count",
    "assembly.lu_fill_bytes": "bytes",
    "assembly.rhs_ms": "ms",
    "assembly.dirichlet_ms": "ms",
    "problems.bc_calls_per_step": "count",
    "problems.norms_ms": "ms",
    "solver.lu_solves_per_step": "count",
    "solver.lu_solve_ms": "ms",
    "solver.iterations": "count",
    "solver.gmres_self_ms": "ms",
    "solver.precond_apply_ms": "ms",
    "solver.precond_build_s": "s",
    "stab.partition_s": "s",
    "stab.jump_matrix_s": "s",
    "stab.penalized_faces": "count",
    "stab.indicator_s": "s",
    "trace.overhead_s": "s",
}

# Computed bytes of one stored factor entry: a float64 value and an int32
# row index.  SuperLU's supernodal storage differs in detail.
FACTOR_ENTRY_BYTES = 8 + 4


def _penalized_faces(system) -> int:
    partition = getattr(system, "partition", None)
    if partition is None:
        return 0
    mesh = system.mesh
    interior = ~mesh.boundary_mask
    macro = partition.cell_macro
    a, b = mesh.face_cells[interior, 0], mesh.face_cells[interior, 1]
    return int((macro[a] == macro[b]).sum())


def layer_metrics(rec: Recorder, episodes, overhead_s: float) -> dict:
    """Per-layer metrics of the traced episodes recorded in `rec`.

    A span counts toward a layer's time only when its parent belongs to
    another layer, so nested calls of one layer are not counted twice;
    assembly.system_self_s and solver.gmres_self_ms are self times.
    Per-step figures use the spans under assembly.step.
    """
    spans = rec.spans
    selfs = self_times(spans)
    root = roots(spans)
    n_ep = max(len(episodes), 1)
    n_steps = max(sum(len(ep.step_ms) for ep in episodes), 1)

    total = defaultdict(float)     # layer -> outermost duration
    calls = defaultdict(int)
    own = defaultdict(float)       # layer -> self time
    in_step = defaultdict(float)
    in_step_calls = defaultdict(int)
    in_step_own = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] += selfs[i]
        step = spans[root[i]][0] == "assembly.step"
        if step:
            in_step_own[name] += selfs[i]
        if parent >= 0 and spans[parent][0] == name:
            continue
        total[name] += end - start
        calls[name] += 1
        if step:
            in_step[name] += end - start
            in_step_calls[name] += 1

    fill = sum(nnz for _, nnz in rec.factor_nnz)
    bc_calls = sum(n for (_, root_name, name), n in rec.counts.items()
                   if name == "problems.bc_call"
                   and root_name == "assembly.step")
    systems = [ep.sim.system for ep in episodes if ep.sim is not None]
    condensed = [s.condensed_matrix().nnz for s in systems]
    iterations = [it for ep in episodes for it in ep.iterations]
    lu_calls = in_step_calls["solver.lu_solve"]

    values = {
        "mesh.build_s": total["mesh.build"] / n_ep,
        "vem.cell_ops_s": total["vem.cell_ops"] / n_ep,
        "vem.calls": calls["vem.cell_ops"] / n_ep,
        "mfd.inner_product_s": total["mfd.inner_product"] / n_ep,
        "mfd.calls": calls["mfd.inner_product"] / n_ep,
        "assembly.system_self_s": own["assembly.system"] / n_ep,
        "assembly.factor_s": total["assembly.factor"] / n_ep,
        "assembly.factorizations": calls["assembly.factor"] / n_ep,
        "assembly.condensed_nnz": (sum(condensed) / len(condensed)
                                   if condensed else 0),
        "assembly.lu_fill_nnz": fill / n_ep,
        "assembly.lu_fill_bytes": FACTOR_ENTRY_BYTES * fill / n_ep,
        "assembly.rhs_ms": 1e3 * in_step["assembly.rhs"] / n_steps,
        "assembly.dirichlet_ms": 1e3 * in_step["assembly.dirichlet"]
        / n_steps,
        "problems.bc_calls_per_step": bc_calls / n_steps,
        # per ErrorNorms.accumulate call, which MMS makes once per step
        "problems.norms_ms": (1e3 * total["problems.norms"]
                              / calls["problems.norms"]
                              if calls["problems.norms"] else 0.0),
        "solver.lu_solves_per_step": lu_calls / n_steps,
        # per LU solve inside a step
        "solver.lu_solve_ms": (1e3 * in_step["solver.lu_solve"] / lu_calls
                               if lu_calls else 0.0),
        "solver.iterations": (sum(iterations) / len(iterations)
                              if iterations else 0.0),
        "solver.gmres_self_ms": 1e3 * in_step_own["solver.gmres"] / n_steps,
        "solver.precond_apply_ms": 1e3 * in_step["solver.precond_apply"]
        / n_steps,
        "solver.precond_build_s": total["solver.precond_build"] / n_ep,
        "stab.partition_s": total["stab.partition"] / n_ep,
        "stab.jump_matrix_s": total["stab.jump_matrix"] / n_ep,
        "stab.penalized_faces": (sum(map(_penalized_faces, systems))
                                 / len(systems) if systems else 0),
        "stab.indicator_s": total["stab.indicator"] / n_ep,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}
