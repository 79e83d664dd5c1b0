"""``seifinv psi-check``: refuse an inadmissible descriptor, else validate the
V(2,2;-1) fiber-flip data once; ``--trials 0`` passes vacuously."""

from __future__ import annotations

from .. import admissibility, census, invariants


def handle(args):
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    M = invariants.parse_seifert(args.descriptor)
    report = admissibility.check_admissible(M)
    passed = census.fiber_flip_conjugacy_check(M, report) or args.trials == 0
    payload = {
        "manifold": str(report.normalized),
        "trials": args.trials,
        "seed": args.seed,
        "passed": passed,
    }
    text = f"passed: {'true' if passed else 'false'} (trials={args.trials}, seed={args.seed})"
    return payload, [text]
