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
from aclab.geometry import build_domain
from aclab.potential import DoubleWell
from aclab.solver import solve_single


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


def _assert_same_solution(got, want):
    assert got.field.values.tobytes() == want.field.values.tobytes()
    assert repr(got.field.epsilon) == repr(want.field.epsilon)
    for name in acc._SCALARS:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name


def _small_disk_solve(dom):
    return solve_single(dom, DoubleWell(), 0.1, constraint=0.3,
                        recipe="radial")


def _parent_may_not_solve(*args, **kwargs):
    raise AssertionError("the parent solved the disk itself")


def test_worker_disk_solution_is_bitwise_the_in_process_one(monkeypatch):
    want = solve_single(build_domain("disk", (1.0,), 256), DoubleWell(), 0.02,
                        constraint=0.3, recipe="radial")
    fresh = acc.AcceptanceContext(seed=7)
    fresh.fork_disk_solve()
    try:
        # the worker forked with the real solver; the parent may not solve
        monkeypatch.setattr(acc, "solve_single", _parent_may_not_solve)
        got = fresh.disk_sol
    finally:
        fresh.close()
    _assert_same_solution(got, want)
    _assert_no_child()


def test_run_acceptance_measures_what_a_plain_context_does(ctx, monkeypatch):
    delivered = []
    decode = acc._solution_from_bytes

    def recorded(data, dom):
        sol = decode(data, dom)
        delivered.append(sol is not None)
        return sol

    monkeypatch.setattr(acc, "_solution_from_bytes", recorded)
    forked = acc.run_acceptance(seed=7, verbose=False)
    _assert_no_child()
    assert delivered == [True]
    plain = [crit(ctx) for crit in acc.CRITERIA]
    assert ([[s.measured for s in r.subs] for r in forked]
            == [[s.measured for s in r.subs] for r in plain])


def test_failing_disk_solve_raises_as_in_process(monkeypatch):
    def fail(dom, *args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(acc, "solve_single", fail)
    monkeypatch.setattr(acc, "CRITERIA", (acc.criterion_8,))
    with pytest.raises(AcLabError) as in_process:
        acc.AcceptanceContext(seed=7).disk_sol
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


def test_worker_delivers_or_returns_none():
    # each solve on a fresh domain: a domain keeps the LU order of its first
    # factorization, so a second solve on it is not bitwise the first
    want = _small_disk_solve(build_domain("disk", (1.0,), 64))
    dom = build_domain("disk", (1.0,), 64)
    worker = Forked(lambda: acc._solution_bytes(_small_disk_solve(dom)))
    got = acc._solution_from_bytes(worker.result(), dom)
    worker.close()
    assert got.field.dom is dom
    _assert_same_solution(got, want)

    # a payload shorter than the domain's nodal values is not a result
    worker = Forked(lambda: acc._solution_bytes(want))
    assert acc._solution_from_bytes(
        worker.result(), build_domain("disk", (1.0,), 128)) is None
    _assert_no_child()


def test_worker_without_fork_returns_none(monkeypatch):
    def refuse():
        raise OSError("forced")

    dom = build_domain("disk", (1.0,), 64)

    def task():
        return acc._solution_bytes(_small_disk_solve(dom))

    monkeypatch.setattr(os, "fork", refuse)
    assert acc._solution_from_bytes(Forked(task).result(), dom) is None
    monkeypatch.delattr(os, "fork")
    assert acc._solution_from_bytes(Forked(task).result(), dom) is None
    _assert_no_child()
