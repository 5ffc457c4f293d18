"""Acceptance gate: one test per registered verification check, at full depth.

Each test runs one check of :data:`fhnlse.verify.CHECKS`, in report order,
against the shared reference context (alpha = 0.6, gamma = 0.5, d = 2, q = 3
on a 64-point box of length 40, whose ground state is localized) and prints
a single pass/fail line with the measured numbers.  The tolerances live
inside the checks themselves; a failure message carries the check's own
diagnostic detail.
"""

import pytest

from fhnlse.verify import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_passes_at_full_depth(verify_ctx, name):
    result = CHECKS[name][0](verify_ctx, "full")
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
