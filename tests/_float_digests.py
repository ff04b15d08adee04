"""Digests of the float bits the evaluation paths emit, for comparing two trees.

Run from the repository root:

    PYTHONPATH=src python tests/_float_digests.py

It prints two sha256 digests:

  eval     the repr of (value, tail_bound, cutoff) of every eval_li over
           the benchmark's eval inputs at seeds 1, 7 and 11, pass 0;
  reports  report_dumps of the default-plan verify_identity of every
           reduce_li(k, l) with 3 <= k + l <= 12, then of the weight-4
           fixture.

A change that means to keep every emitted bit prints the same two lines
before and after.  The digests are not pinned in the test suite: float bits
depend on the numpy build, whose SIMD complex abs differs from Python's
abs, and on the Python version.  perfbench/workloads.py is imported from
its directory, read only.
"""

import hashlib
import os
import sys

from mplkit.numeval import eval_li
from mplkit.reduction import reduce_li, weight4_fixture_identity
from mplkit.serialize import report_dumps
from mplkit.verify import VerificationPlan, verify_identity

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (found on the path just added)


def eval_digest() -> str:
    h = hashlib.sha256()
    for seed in (1, 7, 11):
        for req in workloads.Eval(seed).inputs(0):
            res = eval_li(req)
            h.update(repr((res.value, res.tail_bound, res.cutoff)).encode())
    return h.hexdigest()


def reports_digest() -> str:
    h = hashlib.sha256()
    identities = [reduce_li(k, n - k) for n in range(3, 13) for k in range(1, n)]
    for identity in identities + [weight4_fixture_identity()]:
        h.update(report_dumps(verify_identity(identity, VerificationPlan())).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print("eval   ", eval_digest())
    print("reports", reports_digest())
