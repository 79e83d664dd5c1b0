"""``seifinv psi-check``: refuse an inadmissible descriptor, else validate the
V(2,2;-1) fiber-flip data once; ``--trials 0`` passes vacuously."""

from .. import admissibility, filling, invariants


def handle(args):
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    report = admissibility._require_admissible(invariants.parse_seifert(args.descriptor))
    # The validator runs at --trials 0 too; only its verdict is overridden.
    passed = filling.verify_v221_construction().passed or args.trials == 0
    payload = {
        "manifold": str(report.normalized),
        "trials": args.trials,
        "seed": args.seed,
        "passed": passed,
    }
    text = f"passed: {'true' if passed else 'false'} (trials={args.trials}, seed={args.seed})"
    return payload, [text]
