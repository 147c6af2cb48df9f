"""Acceptance criteria: each numbered check must pass at its stated tolerance.

The tolerances and runtime budgets live inside asympush.acceptance; these
tests only assert the verdicts and the time limits.
"""

import pytest

from asympush.acceptance import CRITERIA, run_criterion

TIME_LIMITS = {1: 1.0, 2: 5.0, 3: 2.0, 4: 10.0, 5: 30.0, 6: 60.0, 7: 0.1, 8: 10.0, 9: 1.0, 10: 2.0}


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _ in CRITERIA])
def test_criterion(number, name):
    r = run_criterion(number)
    assert r.passed, f"criterion {number} ({name}) failed: {r.details}"
    assert r.seconds <= TIME_LIMITS[number], (
        f"criterion {number} took {r.seconds:.2f}s, limit {TIME_LIMITS[number]}s"
    )


def test_residual_decay_fits_read_their_selftest_values():
    # criteria 5 and 6 share one fit of ln r = c + e ln z + k ln|ln z|; criterion 6's
    # points lie below 1, where ln z < 0 and only |ln z| has a logarithm
    details5 = run_criterion(5).details
    decay = float(details5.split("residual decay exponent ")[1].split()[0])
    assert decay == pytest.approx(-4.080813382867932, rel=1e-12)
    assert "residual decay exponent 3.944 " in run_criterion(6).details
