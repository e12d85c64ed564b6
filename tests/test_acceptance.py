"""Acceptance gate: every criterion at its stated tolerance.

One pass/fail line per criterion is printed as it runs.  Two sub-checks of
criteria 3 and 4 are strict expected failures: at the pinned 2048-cell grid
the measured |E - h0| and L1-discrepancy sequences carry an O((h/eps)^2)
discretization floor that grows as eps shrinks, while the continuum values
they track are already exponentially small (~1e-12); no honest measurement
at this resolution can decrease monotonically through eps = 0.025.  See
the docstring of the aclab.acceptance module for the analysis.
"""
import os

import pytest

import aclab.acceptance as acc
from aclab.errors import AcLabError, NoConvergence
from aclab.forked import Forked
from aclab.solver import Solution


@pytest.fixture(scope="module")
def ctx():
    return acc.AcceptanceContext(seed=7)


def _report(res):
    print()
    print(acc.format_result_line(res))
    return res


def _assert_subs(res, labels=None, invert=False):
    for s in res.subs:
        if labels is not None and not any(k in s.label for k in labels):
            continue
        msg = f"{s.label}: measured {s.measured}, want {s.threshold}"
        if invert:
            assert not s.passed, msg
        else:
            assert s.passed, msg


def test_criterion_01_h0_oracle(ctx):
    res = _report(acc.criterion_1(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_02_heteroclinic_exactness(ctx):
    res = _report(acc.criterion_2(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_03_gamma_limit_energies_and_residuals(ctx):
    res = _report(acc.criterion_3(ctx))
    _assert_subs(res, labels=("energy within", "residual"))
    assert res.runtime < res.budget


@pytest.mark.xfail(strict=True,
                   reason="structural: discrete (h/eps)^2 energy floor at "
                          "2048 cells dominates the exponentially small "
                          "continuum gap at eps=0.025 (see notes)")
def test_criterion_03_energies_monotone_toward_h0(ctx):
    res = acc.criterion_3(ctx)
    _assert_subs(res, labels=("monotone",))


def test_criterion_04_equipartition_ratio(ctx):
    res = _report(acc.criterion_4(ctx))
    _assert_subs(res, labels=("ratio",))
    assert res.runtime < res.budget


@pytest.mark.xfail(strict=True,
                   reason="structural: discrete (h/eps)^2 discrepancy floor "
                          "at 2048 cells grows as eps shrinks; the continuum "
                          "L1 discrepancy it tracks is ~1e-12 (see notes)")
def test_criterion_04_discrepancy_strictly_decreasing(ctx):
    res = acc.criterion_4(ctx)
    _assert_subs(res, labels=("strictly decreasing",))


def test_criterion_05_2d_straight_interface(ctx):
    res = _report(acc.criterion_5(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_06_pohozaev_orders(ctx):
    res = _report(acc.criterion_6(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_07_density_ratios_and_monotonicity(ctx):
    res = _report(acc.criterion_7(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_08_free_boundary_first_variation(ctx):
    res = _report(acc.criterion_8(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_09_integrality(ctx):
    res = _report(acc.criterion_9(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_criterion_10_slack_bounds(ctx):
    res = _report(acc.criterion_10(ctx))
    _assert_subs(res)
    assert res.runtime < res.budget


def test_check_command_reports_structural_failures(capsys):
    # the CLI gate stays honest: the two structural sub-checks fail, so the
    # exit status is nonzero and the failing rows carry measured/threshold
    from aclab.cli import cmd_check
    code = cmd_check(seed=7, verbose=False)
    out = capsys.readouterr().out
    assert code == 1
    assert "8/10 criteria passed" in out
    assert "monotone toward h0" in out
    assert "strictly decreasing" in out


# -- the forked disk worker (forked.Forked): only transport, same bits, no
# child left

def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _parent_may_not_solve(*args, **kwargs):
    raise AssertionError("the parent solved the disk itself")


def _refuse_fork():
    raise OSError("forced")


def _recording_forked(delivered):
    """A Forked that appends to delivered whether its child delivered."""
    class Recorded(Forked):
        def result(self):
            data = super().result()
            delivered.append(data is not None)
            return data
    return Recorded


def test_worker_disk_solution_is_bitwise_the_in_process_one(monkeypatch):
    # the worker's measurements of its disk solution are bit for bit the
    # in-process ones
    want = acc.AcceptanceContext(seed=7)._measure_disk()
    fresh = acc.AcceptanceContext(seed=7)
    fresh.fork_disk_solve()
    try:
        # the worker forked with the real solver and measurements; the
        # parent may do neither
        monkeypatch.setattr(acc, "solve_single", _parent_may_not_solve)
        monkeypatch.setattr(acc.AcceptanceContext, "_measure_disk",
                            _parent_may_not_solve)
        got = fresh.disk
    finally:
        fresh.close()
    assert repr(got) == repr(want)
    assert len(got.fitted_c1) == 3 and len(got.free_boundary) == 5
    assert len(got.slack) == 2
    _assert_no_child()


def test_run_acceptance_measures_what_a_plain_context_does(ctx, monkeypatch):
    delivered = []
    monkeypatch.setattr(acc, "Forked", _recording_forked(delivered))
    forked = acc.run_acceptance(seed=7, verbose=False)
    _assert_no_child()
    assert delivered == [True]
    plain = [crit(ctx) for crit in acc.CRITERIA]
    assert ([[s.measured for s in r.subs] for r in forked]
            == [[s.measured for s in r.subs] for r in plain])


def test_parent_builds_no_disk_domain_while_the_worker_delivers(monkeypatch):
    # the worker sends the disk's measurements, not its solution: the parent
    # builds no disk domain and takes the density fields of no disk field
    parent = os.getpid()
    built, densities, delivered = [], [], []
    build, density = acc.build_domain, acc.density_fields

    def record_build(shape, *args, **kwargs):
        built.append((os.getpid(), shape))
        return build(shape, *args, **kwargs)

    def record_density(field, *args, **kwargs):
        densities.append((os.getpid(), field.dom.shape))
        return density(field, *args, **kwargs)

    monkeypatch.setattr(acc, "build_domain", record_build)
    monkeypatch.setattr(acc, "density_fields", record_density)
    monkeypatch.setattr(acc, "Forked", _recording_forked(delivered))
    acc.run_acceptance(seed=7, verbose=False)
    _assert_no_child()
    assert delivered == [True]
    # the recorders saw the parent's other domains and fields
    assert (parent, "rectangle") in built and (parent, "interval") in built
    assert (parent, "rectangle") in densities
    assert (parent, "disk") not in built
    assert (parent, "disk") not in densities


def test_parent_builds_the_square_once_and_keeps_no_pohozaev_solution(
        monkeypatch):
    # rect_sol and the finest Pohozaev solve share one 256^2 square; the
    # Pohozaev ladder keeps its measurements, not its solutions
    parent = os.getpid()
    built, contexts = [], []
    build = acc.build_domain

    def record_build(shape, params, cells):
        if os.getpid() == parent:
            built.append((shape, cells))
        return build(shape, params, cells)

    class Recorded(acc.AcceptanceContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(acc, "build_domain", record_build)
    monkeypatch.setattr(acc, "AcceptanceContext", Recorded)
    acc.run_acceptance(seed=7, verbose=False)
    _assert_no_child()
    assert built.count(("rectangle", (256, 256))) == 1
    assert ("rectangle", (64, 64)) in built
    (ctx,) = contexts
    kept = []
    for value in ctx._cache.values():
        kept += value if isinstance(value, (list, tuple)) else [value]
    sols = [v for v in kept if isinstance(v, Solution)]
    assert sols and all(s.field.epsilon != 0.04 for s in sols)
    assert len(ctx.pohozaev) == 3


def test_failing_disk_solve_raises_as_in_process(monkeypatch):
    def fail(dom, *args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(acc, "solve_single", fail)
    monkeypatch.setattr(acc, "CRITERIA", (acc.criterion_8,))
    with pytest.raises(AcLabError) as in_process:
        acc.AcceptanceContext(seed=7).disk
    with pytest.raises(AcLabError) as forked:
        acc.run_acceptance(seed=7, verbose=False)
    assert type(forked.value) is type(in_process.value) is NoConvergence
    _assert_no_child()


def test_worker_killed_when_an_earlier_criterion_raises(monkeypatch):
    def boom(ctx):
        raise RuntimeError("forced")

    monkeypatch.setattr(acc, "CRITERIA", (acc.criterion_1, boom,
                                          acc.criterion_8))
    with pytest.raises(RuntimeError, match="forced"):
        acc.run_acceptance(seed=7, verbose=False)
    _assert_no_child()


def test_in_process_disk_measures_what_the_worker_does(ctx, monkeypatch):
    # with fork refused, run_acceptance solves and measures the disk
    # in-process through the same call the worker makes
    measured = []
    measure = acc.AcceptanceContext._measure_disk

    def recorded(self):
        measured.append(os.getpid())
        return measure(self)

    monkeypatch.setattr(acc.AcceptanceContext, "_measure_disk", recorded)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    in_process = acc.run_acceptance(seed=7, verbose=False)
    assert measured == [os.getpid()]
    plain = [crit(ctx) for crit in acc.CRITERIA]
    assert ([[s.measured for s in r.subs] for r in in_process]
            == [[s.measured for s in r.subs] for r in plain])
    _assert_no_child()


def test_disk_criteria_run_last_by_position(monkeypatch, capsys):
    # positional stand-ins, as a benchmark's counting wrappers are: the
    # criteria at positions 7, 8 and 10 run after the rest, and results and
    # verbose lines still come out in index order
    ran = []

    def stand_in(index):
        def run(ctx):
            ran.append(index)
            return acc.CriterionResult(index, f"stand-in {index}", 0.0, 1.0,
                                       [acc.SubCheck("ran", True, "1", "1")])
        return run

    monkeypatch.setattr(acc, "CRITERIA",
                        tuple(stand_in(k) for k in range(1, 11)))
    monkeypatch.setattr(os, "fork", _refuse_fork)
    results = acc.run_acceptance(seed=7, verbose=True)
    assert ran == [1, 2, 3, 4, 5, 6, 9, 7, 8, 10]
    assert [r.index for r in results] == list(range(1, 11))
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("[PASS]")]
    assert lines == [acc.format_result_line(r) for r in results]
