import pytest

import harness
import tracing
import poromech.vem as vem
from poromech import build_cartesian
from poromech.assembly import DiscreteSystem
from poromech.problems import manufactured


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 1]


def test_self_time_subtracts_children_not_grandchildren():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 4.0, 0),
             span("c", 2.0, 3.0, 1),
             span("d", 6.0, 7.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.roots(spans) == [0, 0, 0, 0]


def test_self_time_merges_overlapping_and_clips_children():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 5.0, 0),
             span("c", 3.0, 6.0, 0),
             span("d", 9.0, 12.0, 0),
             span("e", 20.0, 21.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert tracing.roots(spans) == [0, 0, 0, 0, 4]


def test_recorder_nests_spans_and_attributes_counts():
    rec = tracing.Recorder()
    outer = rec.open("assembly.step")
    rec.count("problems.bc_call")
    inner = rec.open("solver.lu_solve")
    rec.count("problems.bc_call")
    rec.close(inner)
    rec.close(outer)
    rec.count("problems.bc_call")
    assert [s[3] for s in rec.spans] == [-1, 0]
    assert rec.counts[(0, "assembly.step", "problems.bc_call")] == 2
    assert rec.counts[(0, None, "problems.bc_call")] == 1


def _tiny_episode():
    class Sim:
        steps = 2

        def __init__(self):
            self.system, self.state = manufactured.setup(
                build_cartesian(3, 3), 0.1)

        def begin(self):
            pass

        def observe(self, n):
            pass

        def checks(self):
            return {}

        def err_rel(self):
            return 0.0
    return harness.run_episode(lambda seed: Sim(), 0)


def test_instrument_records_layers_and_uninstalls():
    original_cell, original_init = vem.vem_cell, DiscreteSystem.__init__
    rec = tracing.Recorder()
    uninstall = tracing.instrument(rec)
    try:
        rec.run_id = 1
        ep = _tiny_episode()
    finally:
        uninstall()
    assert vem.vem_cell is original_cell
    assert DiscreteSystem.__init__ is original_init

    m = {k: v["value"] for k, v in
         tracing.layer_metrics(rec, [ep], overhead_s=0.0).items()}
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["vem.calls"] == 9 and m["mfd.calls"] == 9
    # full LU of the condensed system plus the trace block of
    # initial_state; the displacement start is given
    assert m["assembly.factorizations"] == 2
    assert m["assembly.lu_fill_nnz"] > m["assembly.condensed_nnz"] > 0
    assert m["solver.lu_solves_per_step"] >= 2
    # 12 boundary vertices x 2 components, 12 boundary faces
    assert m["problems.bc_calls_per_step"] == 12 * 2 + 12
    # never-called layers read zero
    assert m["solver.iterations"] == 0 and m["solver.gmres_self_ms"] == 0
    assert m["stab.partition_s"] == 0 and m["problems.norms_ms"] == 0
    assert m["assembly.system_self_s"] > 0


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("vem.cell_ops", "poromech.vem", "no_such_function"),
        ("solver.gmres", "poromech.solver", "NoSuchClass.method")])
    rec = tracing.Recorder()
    tracing.instrument(rec)()
    assert not hasattr(vem, "no_such_function")
