"""Seeded request streams for the four benchmark workloads.

A stream is an endless sequence of rounds.  Every round of a workload holds
the same mix of request kinds and size strata, drawn afresh from the seeded
generator, so two seeds give different inputs with the same cost profile.
The program receives only these generated argument vectors; nothing here
imports ``seifinv``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from oracle import Desc, fmt_mat, inverse, mul, parse_desc, split_args

# The eleven CLI examples of the README, exactly as written there.
README_EXAMPLES = (
    ("classify", "(0,o1|(2,1),(2,1),(1,-1))"),
    ("admissible", "(0,o1|(3,1),(3,1),(3,1),(1,-1))", "--json"),
    ("enumerate", "--gmax", "3", "--nmax", "8"),
    ("mcg", "class", "1,0;0,-1"),
    ("mcg", "conjugate", "1,0;-1,-1", "0,1;1,0", "--bound", "3"),
    ("extend", "--slope", "1,2", "--matrix=-1,1;0,1"),
    ("verify-v221",),
    ("surface-classes", "--genus", "2", "--filter", "reversing"),
    ("census", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))"),
    ("lift", "(2,n1|)"),
    ("psi-check", "(0,o1|(2,1),(2,1),(2,1),(2,1),(1,-2))", "--trials", "100", "--seed", "0"),
)


@dataclass
class Request:
    argv: tuple[str, ...]
    plant: dict = field(default_factory=dict)  # facts the oracle may rely on
    size: dict = field(default_factory=dict)  # input sizes for the histogram


# --------------------------------------------------------------------------
# Descriptor text


def write_desc(d: Desc, rng: random.Random, explicit_b: bool = False) -> str:
    """Descriptor text for ``d``; a (1,b) term is written when needed, or
    when asked for even at b = 0.  Sometimes spaces follow the commas."""
    items = [f"({q},{p})" for q, p in d.pairs]
    if d.b != 0 or explicit_b or (d.pairs and d.pairs[-1][0] == 1):
        items.append(f"(1,{d.b})")
    sep = ", " if rng.random() < 0.25 else ","
    return f"({d.genus}{sep}{'o1' if d.orientable else 'n1'}|{sep.join(items)})"


def unnormalize(rng: random.Random, d: Desc, strays: int) -> Desc:
    """Same manifold written with p outside (0,q) and stray q = 1 pairs."""
    b = d.b
    pairs = []
    for q, p in d.pairs:
        k = rng.randint(-2, 2)
        pairs.append((q, p + k * q))
        b -= k
    for _ in range(strays):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        pairs.insert(rng.randint(0, len(pairs)), (1, c))
        b -= c
    return Desc(d.genus, d.orientable, tuple(pairs), b)


def admissible_desc(rng: random.Random, genus: int, n: int, strays: int = 0) -> Desc:
    return unnormalize(rng, Desc(genus, True, ((2, 1),) * n, -(n // 2)), strays)


def coprime_p(rng: random.Random, q: int) -> int:
    while True:
        p = rng.randint(-3 * q, 3 * q)
        if math.gcd(p, q) == 1:
            return p


def random_desc(rng: random.Random, n: int, orientable: bool, orders=(2, 2, 3, 4, 5, 7)) -> Desc:
    pairs = tuple((q, coprime_p(rng, q)) for q in (rng.choice(orders) for _ in range(n)))
    genus = rng.randint(0, 3) if orientable else rng.randint(1, 4)
    return unnormalize(rng, Desc(genus, orientable, pairs, rng.randint(-4, 4)), rng.randint(0, 2))


def small_desc(rng: random.Random, orientable: bool = True) -> Desc:
    """At most eight fibers; half of the orientable ones are admissible."""
    if orientable and rng.random() < 0.5:
        n = rng.choice((0, 2, 4, 6))
        return admissible_desc(rng, rng.randint(0, 3), n, rng.randint(0, 2))
    return random_desc(rng, rng.randint(0, 6), orientable)


def desc_request(rng, cmd: str, d: Desc, json_out: bool, *extra: str) -> Request:
    argv = (cmd, write_desc(d, rng, rng.random() < 0.2), *extra)
    return Request(argv + (("--json",) if json_out else ()), size={"fibers": len(d.pairs)})


# --------------------------------------------------------------------------
# Matrices


def unimodular(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    while True:
        m = tuple(rng.randint(-bound, bound) for _ in range(4))
        if abs(m[0] * m[3] - m[1] * m[2]) == 1:
            return m


_INVOLUTIONS = {
    "Identity": (1, 0, 0, 1),
    "MinusIdentity": (-1, 0, 0, -1),
    "ReflType": (1, 0, 0, -1),
    "AntiType": (0, 1, 1, 0),
}


def conjugate_request(rng, bound: int, hit: bool, json_out: bool) -> Request:
    a = unimodular(rng, 2)
    if hit:
        h = unimodular(rng, bound)
        b = mul(mul(h, a), inverse(h))
    else:
        b = unimodular(rng, 2)
        while (b[0] * b[3] - b[1] * b[2], b[0] + b[3]) == (a[0] * a[3] - a[1] * a[2], a[0] + a[3]):
            b = unimodular(rng, 2)
    argv = ("mcg", "conjugate", f"--bound={bound}", "--", fmt_mat(a), fmt_mat(b))
    return Request(
        argv[:2] + (("--json",) if json_out else ()) + argv[2:],
        {"conjugate": "hit" if hit else "miss"},
        {"bound": bound},
    )


def extend_request(rng, x_span: int, member: bool, json_out: bool) -> Request:
    if rng.random() < 0.25:
        slope, base = (1, 2), (1, -1, 0, -1)
    else:
        x = rng.randint(-x_span, x_span)
        slope, base = (x, 1), (1, -2 * x, 0, -1)
    mat = base if rng.random() < 0.5 else tuple(-v for v in base)
    if not member:
        i = rng.randrange(4)
        mat = mat[:i] + (mat[i] + rng.choice((-2, -1, 1, 2)),) + mat[i + 1 :]
    if rng.random() < 0.2:  # the same filling named by (-m,-l)
        slope = (-slope[0], -slope[1])
    argv = ("extend", f"--slope={slope[0]},{slope[1]}", f"--matrix={fmt_mat(mat)}")
    return Request(argv + (("--json",) if json_out else ()))


def psi_request(rng, n_range, trials_range, json_out: bool) -> Request:
    n = 2 * rng.randint(n_range[0] // 2, n_range[1] // 2)
    d = admissible_desc(rng, rng.randint(0, 3), n, rng.randint(0, 2))
    trials = rng.randint(*trials_range)
    extra = ("--trials", str(trials))
    if rng.random() < 0.8:
        extra += ("--seed", str(rng.randint(0, 10**6)))
    req = desc_request(rng, "psi-check", d, json_out, *extra)
    req.size["trials"] = trials
    return req


# --------------------------------------------------------------------------
# Malformed descriptors and refusals


def malformed_request(rng, json_out: bool) -> Request:
    """A descriptor command whose argument carries one planted syntax or
    domain error at a known position."""
    d = small_desc(rng, rng.random() < 0.8)
    text = write_desc(d, random.Random(0))  # no spaces, so positions are plain
    kind = rng.randrange(7)
    if kind == 0 or (kind == 3 and not d.pairs):  # trailing text
        at, text = len(text), text + rng.choice(("x", ")", ",(2,1)"))
    elif kind == 1:  # bad base
        at = text.index("|") - 2
        text = text[:at] + "x1" + text[at + 2 :]
    elif kind == 2:  # missing bar
        at = text.index("|")
        text = text[:at] + ":" + text[at + 1 :]
    elif kind == 3:  # a letter for the second entry of a pair
        opens = [i for i, c in enumerate(text) if c == "(" and i > 0]
        start = rng.choice(opens)
        comma = text.index(",", start)
        end = text.index(")", comma)
        at, text = comma + 1, text[: comma + 1] + "z" + text[end:]
    elif kind == 4:  # non-coprime pair or non-positive order
        bar = text.index("|")
        bad = rng.choice(("(4,2)", "(6,-3)", "(0,1)", "(-2,1)"))
        at = bar + 1
        text = text[:at] + bad + ("," if text[at] != ")" else "") + text[at:]
    elif kind == 5:  # negative genus
        at = 1
        text = "(-" + text[1:].lstrip("0123456789")
        text = text[:2] + str(rng.randint(1, 3)) + text[2:]
    else:  # non-orientable base of genus 0
        at = 1
        text = "(0,n1" + text[text.index("|") :]
    cmd = rng.choice(("classify", "admissible", "census", "lift", "psi-check"))
    argv = (cmd, text) + (("--json",) if json_out else ())
    return Request(argv, {"error_at": at}, {"fibers": len(d.pairs)})


def refusal_request(rng, json_out: bool) -> Request:
    """A well-formed request the program must refuse with exit code 1."""
    kind = rng.randrange(6)
    if kind == 0:
        return desc_request(rng, "admissible", small_desc(rng, False), json_out)
    if kind == 1:
        return desc_request(rng, "lift", small_desc(rng, True), json_out)
    if kind == 2:
        genus, n = rng.choice(((1, 2), (2, 4), (0, 0), (0, 6), (0, 8), (3, 0)))
        return desc_request(rng, "census", admissible_desc(rng, genus, n, 1), json_out)
    if kind == 3:
        m = unimodular(rng, 2)
        while mul(m, m) == (1, 0, 0, 1):
            m = unimodular(rng, 2)
        return Request(("mcg", "class") + (("--json",) if json_out else ()) + ("--", fmt_mat(m)))
    if kind == 4:
        d = admissible_desc(rng, rng.randint(0, 2), 4, 1)
        d = Desc(d.genus, True, d.pairs, d.b + rng.choice((-1, 1)))
        return desc_request(rng, "psi-check", d, json_out, "--trials", "3")
    slope = rng.choice(((2, 3), (3, 2), (2, 4), (1, 0), (5, -3)))
    argv = ("extend", f"--slope={slope[0]},{slope[1]}", "--matrix=1,0;0,-1")
    return Request(argv + (("--json",) if json_out else ()))


# --------------------------------------------------------------------------
# Workloads


def _mcg_class_request(rng, json_out: bool) -> Request:
    label = rng.choice(sorted(_INVOLUTIONS))
    h = unimodular(rng, 3)
    m = mul(mul(h, _INVOLUTIONS[label]), inverse(h))
    argv = ("mcg", "class") + (("--json",) if json_out else ()) + ("--", fmt_mat(m))
    return Request(argv, {"class": label})


def query_mix_round(rng: random.Random) -> list[Request]:
    """Forty short requests: every command, ~half --json, four malformed
    descriptors and four domain refusals."""
    makers: list[Callable[[bool], Request]] = []
    makers += [lambda j: desc_request(rng, "classify", small_desc(rng, rng.random() < 0.75), j)] * 6
    makers += [lambda j: desc_request(rng, "admissible", small_desc(rng), j)] * 5
    makers += [lambda j: desc_request(rng, "lift", lift_desc(rng), j)] * 3
    makers += [lambda j: desc_request(rng, "census", admissible_desc(rng, 0, 4, rng.randint(0, 2)), j)] * 3
    makers += [lambda j: extend_request(rng, 6, rng.random() < 0.5, j)] * 4
    makers += [lambda j: _mcg_class_request(rng, j)] * 4
    makers += [lambda j, b=b, hit=hit: conjugate_request(rng, b, hit, j) for b, hit in ((2, True), (4, True), (3, False))]
    makers += [lambda j: Request(("verify-v221",) + (("--json",) if j else ()))] * 2
    # The heaviest request, fixed in size so that p99 lands inside one class.
    makers += [lambda j: psi_request(rng, (0, 8), (1, 2), j), lambda j: psi_request(rng, (8, 8), (5, 5), j)]
    makers += [lambda j: malformed_request(rng, j)] * 4
    makers += [lambda j: refusal_request(rng, j)] * 4
    flags = [i % 2 == 0 for i in range(len(makers))]
    rng.shuffle(flags)
    out = [make(j) for make, j in zip(makers, flags)]
    rng.shuffle(out)
    return out


def lift_desc(rng: random.Random) -> Desc:
    """A non-orientable-base descriptor; some lift to admissible covers."""
    if rng.random() < 0.4:
        n = 2 * rng.randint(0, 2)
        return unnormalize(rng, Desc(rng.randint(1, 3), False, ((2, 1),) * n, -(n // 2)), rng.randint(0, 1))
    return random_desc(rng, rng.randint(0, 4), False)


def wide_desc(rng: random.Random, n: int, family: int) -> Desc:
    """Large descriptor: admissible, wrong b, odd count, or with order 3/5/7
    fibers, with interleaved q = 1 pairs."""
    strays = n // 10
    if family == 0:
        return admissible_desc(rng, rng.randint(0, 3), n - n % 2, strays)
    if family == 1:
        d = admissible_desc(rng, rng.randint(0, 3), n - n % 2, strays)
        return Desc(d.genus, True, d.pairs, d.b + rng.choice((-2, -1, 1, 2)))
    if family == 2:
        return admissible_desc(rng, rng.randint(0, 3), n - n % 2 + 1, strays)
    return random_desc(rng, n, True, orders=(2, 2, 2, 2, 3, 5, 7))


_FIBER_STRATA = ((50, 99), (100, 199), (200, 299), (300, 400))
# Fixed windows keep a round's cost, and so the latency percentiles, the same
# from seed to seed.
ENUMERATE_WINDOWS = ((3, 16), (8, 30), (13, 44), (20, 60))


def wide_round(rng: random.Random) -> list[Request]:
    """Four enumerate windows, from 3x16 to 20x60, each in text and JSON,
    and twenty classify / admissible requests on 50-400 fibers across all
    descriptor families."""
    out = []
    for gmax, nmax in ENUMERATE_WINDOWS:
        argv = ("enumerate", "--gmax", str(gmax), "--nmax", str(nmax))
        out += [Request(argv + j, size={"window": gmax * nmax}) for j in ((), ("--json",))]
    for cmd in ("classify", "admissible"):
        for i in range(10):
            lo, hi = _FIBER_STRATA[i % 4]
            d = wide_desc(rng, rng.randint(lo, hi), (i + i // 4) % 4)
            out.append(desc_request(rng, cmd, d, rng.random() < 0.5))
    rng.shuffle(out)
    return out


FRAME_BOUNDS = (4, 8, 12, 16)
_PSI_STRATA = (((6, 6), (78, 82)), ((16, 16), (29, 31)), ((40, 40), (12, 12)))  # fibers x trials ~ 480


def frame_round(rng: random.Random) -> list[Request]:
    """Psi-checks over three (fibers, trials) strata, extension checks with
    members and non-members, V(2,2;-1) verification, and conjugator
    searches with planted hits and misses at every bound."""
    out = []
    for n_range, t_range in _PSI_STRATA:
        out += [psi_request(rng, n_range, t_range, rng.random() < 0.5) for _ in range(2)]
    out += [extend_request(rng, 60, i % 2 == 0, rng.random() < 0.5) for i in range(8)]
    out += [Request(("verify-v221",) + (("--json",) if i else ())) for i in range(2)]
    for bound in FRAME_BOUNDS:
        out += [conjugate_request(rng, bound, hit, rng.random() < 0.5) for hit in (True, False)]
    rng.shuffle(out)
    return out


def _readme_request(argv: tuple[str, ...]) -> Request:
    pos, opts = split_args(argv)
    size = {k: int(opts[k]) for k in ("trials", "bound") if k in opts}
    if "gmax" in opts:
        size["window"] = int(opts["gmax"]) * int(opts["nmax"])
    if pos[0] in ("classify", "admissible", "census", "lift", "psi-check"):
        size["fibers"] = len(parse_desc(pos[1]).pairs)
    return Request(argv, size=size)


def readme_round(rng: random.Random) -> list[Request]:
    out = [_readme_request(argv) for argv in README_EXAMPLES]
    rng.shuffle(out)
    return out


def warmup_wide() -> list[Request]:
    rng = random.Random(0)
    out = [Request(("enumerate", "--gmax", "2", "--nmax", "6") + j) for j in ((), ("--json",))]
    return out + [desc_request(rng, cmd, wide_desc(rng, 60, 0), j) for cmd in ("classify", "admissible") for j in (False, True)]


def warmup_frame() -> list[Request]:
    """Every bound's window, plus one request of each other kind."""
    rng = random.Random(0)
    out = [conjugate_request(rng, b, False, False) for b in FRAME_BOUNDS]
    out += [psi_request(rng, (4, 4), (2, 2), False), extend_request(rng, 60, True, True)]
    return out + [Request(("verify-v221",))]


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable[[random.Random], list[Request]]
    in_process: bool
    # Fixed, so runs stay comparable: the highest percentile that keeps ten
    # samples beyond it at seed even on a machine half as fast.
    tail_percentile: float
    warmup: Callable[[], list[Request]]

    def rounds(self, seed: int) -> Iterator[list[Request]]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield self.round(rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-mix", query_mix_round, True, 99.0, lambda: query_mix_round(random.Random(0))),
        Workload("wide-descriptors", wide_round, True, 90.0, warmup_wide),
        Workload("frame-search", frame_round, True, 95.0, warmup_frame),
        Workload("cold-cli", readme_round, False, 75.0, lambda: []),
    )
}
