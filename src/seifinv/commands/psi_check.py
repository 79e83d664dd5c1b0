"""``seifinv psi-check``: refuse an inadmissible descriptor, else validate the
V(2,2;-1) fiber-flip data once."""

from __future__ import annotations

import os

from .. import admissibility, census, invariants
from . import integer


def handle(args):
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    M = invariants.parse_seifert(args.descriptor)
    seed = args.seed
    if seed is None:
        raw = os.environ.get("SEIFERT_SEED", "0")
        seed = integer(raw, f"SEIFERT_SEED must be an integer, got {raw!r}")
    report = admissibility.check_admissible(M)
    passed = census.fiber_flip_conjugacy_check(M, args.trials, report)
    payload = {
        "manifold": str(report.normalized),
        "trials": args.trials,
        "seed": seed,
        "passed": passed,
    }
    text = f"passed: {'true' if passed else 'false'} (trials={args.trials}, seed={seed})"
    return payload, [text]
