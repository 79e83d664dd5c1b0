"""Independent oracle for seifinv CLI outputs.

This module never imports ``seifinv``.  Every expected value is derived from
closed forms stated in the README (the paper's abstract) or from facts the
request generator planted:

* ``e = -(b + sum p/q)`` and ``chi_orb = chi(base) - sum (1 - 1/q)`` as
  Fractions, with normalization folding p into (0, q) and q = 1 pairs into b;
* the admissibility conditions in the order the README states them
  (e = 0, every fiber of order 2, evenly many, b = -n/2), ``WrongBTerm``
  only when no fiber has order > 2;
* case from (g, n) and geometry from the sign of ``chi_orb``;
* the doubling laws of the orientable double cover;
* the extension sets {+-[[1,-1],[0,-1]]} for slope (1,2) and
  {+-[[1,-2x],[0,-1]]} for slope (x,1);
* conjugators checked by H A = B H, |det H| = 1 and the entry bound;
* the six census records of the flat four-fiber manifold over the sphere;
* Weichold's list of reversing surface involutions (separating ones have
  k = g+1 mod 2 fixed circles, 1 <= k <= g+1; non-separating ones have
  0 <= k <= g), which implies the Harnack bound k <= g+1.

``check`` returns ``None`` for a correct outcome, else a failure reason.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

SCHEMA = "1"

# --------------------------------------------------------------------------
# Descriptors


@dataclass(frozen=True)
class Desc:
    genus: int
    orientable: bool
    pairs: tuple[tuple[int, int], ...]
    b: int


_DESC_RE = re.compile(r"\((\d+),([on]1)\|((?:\(-?\d+,-?\d+\)(?:,\(-?\d+,-?\d+\))*)?)\)")
_PAIR_RE = re.compile(r"\((-?\d+),(-?\d+)\)")


def parse_desc(text: str) -> Desc:
    """Read a well-formed descriptor; a trailing (1, x) pair is the b term."""
    m = _DESC_RE.fullmatch("".join(text.split()))
    if m is None:
        raise ValueError(f"oracle cannot read descriptor {text!r}")
    pairs = [(int(q), int(p)) for q, p in _PAIR_RE.findall(m.group(3))]
    b = pairs.pop()[1] if pairs and pairs[-1][0] == 1 else 0
    return Desc(int(m.group(1)), m.group(2) == "o1", tuple(pairs), b)


def fmt_desc(d: Desc) -> str:
    items = [f"({q},{p})" for q, p in d.pairs]
    if d.b != 0 or (d.pairs and d.pairs[-1][0] == 1):
        items.append(f"(1,{d.b})")
    return f"({d.genus},{'o1' if d.orientable else 'n1'}|{','.join(items)})"


def normalize(d: Desc) -> Desc:
    b = d.b
    pairs = []
    for q, p in d.pairs:
        b += p // q
        if q > 1:
            pairs.append((q, p % q))
    return Desc(d.genus, d.orientable, tuple(pairs), b)


def euler(d: Desc) -> Fraction:
    return -(d.b + sum((Fraction(p, q) for q, p in d.pairs), Fraction(0)))


def chi_orb(d: Desc) -> Fraction:
    base = 2 - 2 * d.genus if d.orientable else 2 - d.genus
    return base - sum((1 - Fraction(1, q) for q, _ in d.pairs), Fraction(0))


def violations(d: Desc) -> list[str]:
    """Failed admissibility conditions of a normalized descriptor, in order."""
    out = []
    if euler(d) != 0:
        out.append("NonzeroEuler")
    higher = any(q > 2 for q, _ in d.pairs)
    if higher:
        out.append("OrderGreaterThanTwo")
    n2 = sum(1 for q, _ in d.pairs if q == 2)
    if n2 % 2:
        out.append("OddCount")
    if not higher and 2 * d.b != -n2:
        out.append("WrongBTerm")
    return out


def admissible(d: Desc) -> bool:
    return d.orientable and not violations(normalize(d))


def case_label(genus: int, n: int) -> str:
    """Case of an admissible descriptor from its base genus and fiber count."""
    if genus == 0:
        return {0: "1a", 2: "1b", 4: "2a"}.get(n, "3c")
    if genus == 1:
        return "2b" if n == 0 else "3b"
    return "3a"


def geometry(d: Desc) -> str:
    if not admissible(d):
        return "Other"
    chi = chi_orb(d)
    return "S2xR" if chi > 0 else "E3" if chi == 0 else "H2xR"


def case_of(d: Desc) -> str | None:
    return case_label(d.genus, len(normalize(d).pairs)) if admissible(d) else None


# --------------------------------------------------------------------------
# Matrices, written "a,b;c,d"

Mat = tuple[int, int, int, int]


def parse_mat(text: str) -> Mat:
    rows = text.split(";")
    a, b = (int(x) for x in rows[0].split(","))
    c, d = (int(x) for x in rows[1].split(","))
    return (a, b, c, d)


def fmt_mat(m: Mat) -> str:
    return f"{m[0]},{m[1]};{m[2]},{m[3]}"


def mul(x: Mat, y: Mat) -> Mat:
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def det(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]


def inverse(m: Mat) -> Mat:
    s = det(m)
    if abs(s) != 1:
        raise ValueError("not unimodular")
    return (s * m[3], -s * m[1], -s * m[2], s * m[0])


IDENTITY: Mat = (1, 0, 0, 1)


def involution_class(m: Mat) -> str | None:
    """GL2(Z) conjugacy class of an involution; None for a non-involution.

    diag(1,-1) is congruent to the identity mod 2 and the swap matrix is
    not; conjugation preserves that congruence, so it separates the two
    determinant -1 classes.
    """
    if mul(m, m) != IDENTITY:
        return None
    if m == IDENTITY:
        return "Identity"
    if m == (-1, 0, 0, -1):
        return "MinusIdentity"
    return "ReflType" if all(x % 2 == y for x, y in zip(m, IDENTITY)) else "AntiType"


def is_conjugator(h: Mat, a: Mat, b: Mat, bound: int) -> bool:
    return abs(det(h)) == 1 and max(map(abs, h)) <= bound and mul(h, a) == mul(b, h)


def conjugator_exists(a: Mat, b: Mat, bound: int) -> bool:
    """Brute force over the window; used only for small unplanted bounds."""
    rng = range(-bound, bound + 1)
    return any(
        is_conjugator((w, x, y, z), a, b, bound) for w in rng for x in rng for y in rng for z in rng
    )


# --------------------------------------------------------------------------
# Filling slopes


def normalize_slope(m: int, l: int) -> tuple[int, int] | None:
    """(m, l) and (-m, -l) name one filling; None when no curve is named."""
    if (m, l) == (0, 0) or math.gcd(m, l) != 1:
        return None
    if l < 0 or (l == 0 and m < 0):
        m, l = -m, -l
    return (m, l)


def extension_set(m: int, l: int) -> frozenset[Mat] | None:
    """Boundary actions that extend across the filling; None if not derived."""
    if (m, l) == (1, 2):
        base = (1, -1, 0, -1)
    elif l == 1:
        base = (1, -2 * m, 0, -1)
    else:
        return None
    return frozenset({base, tuple(-x for x in base)})


def fmt_slope(slope: tuple[int, int]) -> str:
    return f"({slope[0]},{slope[1]})"


# --------------------------------------------------------------------------
# Census and surfaces

CENSUS_RECORDS = sorted(
    (orientation, cls, fixed)
    for orientation, cls in (("preserved", "spit(0,0)"), ("reversed", "refl(0,0)"), ("reversed", "anti(0,0)"))
    for fixed in (0, 2)
)


def census_in_scope(d: Desc) -> bool:
    """The worked census: admissible, genus-0 base, two or four fibers.

    The benchmark only sends n = 4 in-scope inputs; n = 2 has no
    independent answer.
    """
    return admissible(d) and d.genus == 0 and len(normalize(d).pairs) in (2, 4)


def weichold_reversing(g: int) -> list[tuple[bool, int]]:
    """(separating, fixed circles) of every reversing involution class."""
    sep = [(True, k) for k in range(1, g + 2) if k % 2 == (g + 1) % 2]
    nonsep = [(False, k) for k in range(0, g + 1)]
    return sorted(sep + nonsep)


_SURFACE_ROW = re.compile(r"(refl|anti)\((\d+),(\d+)\)  orientation=reversing  fixed: (?:free|(\d+) circles)")


# --------------------------------------------------------------------------
# Requests


def split_args(argv) -> tuple[list[str], dict[str, str | bool]]:
    """Positionals and options of a generated argv (``--k v``, ``--k=v``,
    ``--json``, and ``--`` before positionals that start with ``-``)."""
    pos: list[str] = []
    opts: dict[str, str | bool] = {}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--":
            pos += argv[i + 1 :]
            break
        if a == "--json":
            opts["json"] = True
        elif a.startswith("--") and "=" in a:
            k, v = a[2:].split("=", 1)
            opts[k] = v
        elif a.startswith("--"):
            opts[a[2:]] = argv[i + 1]
            i += 1
        else:
            pos.append(a)
        i += 1
    return pos, opts


class Refusal(Exception):
    """The command must exit 1 with a message on stderr."""


@dataclass
class Expected:
    """Text and payload of a successful command.  With ``unordered`` the
    text lines after the first, and the payload's ``records``, are compared
    as multisets: the paper states the census records, not their order."""

    text: str
    payload: dict
    unordered: bool = False

    def matches(self, stdout: str, as_json: bool) -> bool:
        if as_json:
            got = json.loads(stdout)
            if not self.unordered:
                return got == self.payload
            key = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
            rest = {k: v for k, v in got.items() if k != "records"}
            want = {k: v for k, v in self.payload.items() if k != "records"}
            records = got.get("records")
            return rest == want and isinstance(records, list) and sorted(records, key=key) == sorted(
                self.payload["records"], key=key
            )
        if not self.unordered:
            return stdout == self.text + "\n"
        got, want = stdout.split("\n"), (self.text + "\n").split("\n")
        return got[0] == want[0] and sorted(got[1:]) == sorted(want[1:])


def _expect_classify(arg: str) -> Expected:
    d = parse_desc(arg)
    n = normalize(d)
    e, chi, geom, case = euler(d), chi_orb(n), geometry(d), case_of(d)
    payload = {
        "schema": SCHEMA,
        "input": arg,
        "normalized": fmt_desc(n),
        "euler_number": str(e),
        "chi_orb": str(chi),
        "geometry": geom,
        "case": case,
    }
    text = f"{fmt_desc(n)}  e={e}  chi_orb={chi}  geometry={geom}  case={case or '-'}"
    return Expected(text, payload)


def _expect_admissible(arg: str) -> Expected:
    d = parse_desc(arg)
    if not d.orientable:
        raise Refusal
    tags = violations(normalize(d))
    ok, case, geom = not tags, case_of(d), geometry(d)
    payload = {
        "schema": SCHEMA,
        "input": arg,
        "admissible": ok,
        "violations": tags,
        "case": case,
        "geometry": geom,
    }
    text = f"admissible  case={case}  geometry={geom}" if ok else "not admissible: " + ", ".join(tags)
    return Expected(text, payload)


def _expect_lift(arg: str) -> Expected:
    d = parse_desc(arg)
    if d.orientable:
        raise Refusal
    cover = Desc(d.genus - 1, True, tuple(x for pair in d.pairs for x in (pair, pair)), 2 * d.b)
    e_in, e_cov, c_in, c_cov = euler(d), euler(cover), chi_orb(d), chi_orb(cover)
    if e_cov != 2 * e_in or c_cov != 2 * c_in:
        raise AssertionError("doubling laws fail in the oracle itself")
    tags = violations(normalize(cover))
    case = case_of(cover)
    payload = {
        "schema": SCHEMA,
        "input": arg,
        "cover": fmt_desc(cover),
        "euler_number": {"input": str(e_in), "cover": str(e_cov), "doubled": True},
        "chi_orb": {"input": str(c_in), "cover": str(c_cov), "doubled": True},
        "cover_admissible": not tags,
        "cover_violations": tags,
        "cover_case": case,
    }
    lines = [
        f"cover: {fmt_desc(cover)}",
        f"euler_number: {e_in} -> {e_cov} (doubled: yes)",
        f"chi_orb: {c_in} -> {c_cov} (doubled: yes)",
        f"cover admissible: yes  case={case}" if not tags else f"cover admissible: no ({', '.join(tags)})",
    ]
    return Expected("\n".join(lines), payload)


def _expect_census(arg: str) -> Expected:
    d = parse_desc(arg)
    if not census_in_scope(d):
        raise Refusal
    records = [
        {"fiber_orientation": o, "surface_class": c, "fixed_boundary_count": f} for o, c, f in CENSUS_RECORDS
    ]
    payload = {"schema": SCHEMA, "manifold": fmt_desc(normalize(d)), "count": 6, "records": records}
    lines = ["count: 6"] + [f"fiber={o} class={c} fixed_boundaries={f}" for o, c, f in CENSUS_RECORDS]
    return Expected("\n".join(lines), payload, unordered=True)


def _expect_psi(arg: str, opts) -> Expected:
    d = parse_desc(arg)
    if not admissible(d):
        raise Refusal
    trials = int(opts.get("trials", 100))
    seed = int(opts.get("seed", 0))  # SEIFERT_SEED is scrubbed from the environment
    payload = {
        "schema": SCHEMA,
        "manifold": fmt_desc(normalize(d)),
        "trials": trials,
        "seed": seed,
        "passed": True,
    }
    return Expected(f"passed: true (trials={trials}, seed={seed})", payload)


def _expect_extend(opts) -> Expected:
    m, l = (int(x) for x in str(opts["slope"]).split(","))
    slope = normalize_slope(m, l)
    allowed = extension_set(*slope) if slope else None
    if allowed is None:
        raise Refusal
    mat = parse_mat(str(opts["matrix"]))
    verdict = mat in allowed
    payload = {
        "schema": SCHEMA,
        "slope": fmt_slope(slope),
        "matrix": fmt_mat(mat),
        "extends": verdict,
        "condition": [fmt_mat(c) for c in sorted(allowed)],
    }
    return Expected(f"extends: {'true' if verdict else 'false'}", payload)


def _expect_mcg_class(arg: str, plant) -> Expected:
    mat = parse_mat(arg)
    label = involution_class(mat)
    if label is None:
        raise Refusal
    if "class" in plant and plant["class"] != label:
        raise AssertionError("oracle class disagrees with the planted class")
    return Expected(label, {"schema": SCHEMA, "matrix": fmt_mat(mat), "class": label})


def _expect_enumerate(opts) -> Expected:
    gmax, nmax = int(opts["gmax"]), int(opts["nmax"])
    rows = []
    for g in range(gmax + 1):
        for n in range(0, nmax + 1, 2):
            d = Desc(g, True, ((2, 1),) * n, -(n // 2))
            rows.append({"descriptor": fmt_desc(d), "case": case_label(g, n), "geometry": geometry(d)})
    payload = {"schema": SCHEMA, "gmax": gmax, "nmax": nmax, "descriptors": rows}
    text = "\n".join(f"{r['descriptor']}  case={r['case']}  geometry={r['geometry']}" for r in rows)
    return Expected(text, payload)


def _check_conjugate(pos, opts, plant, stdout: str) -> str | None:
    a, b = parse_mat(pos[0]), parse_mat(pos[1])
    bound = int(opts.get("bound", 5))
    if (det(a), a[0] + a[3]) != (det(b), b[0] + b[3]):
        exists = False
    elif "conjugate" in plant:
        exists = plant["conjugate"] == "hit"
    else:
        exists = conjugator_exists(a, b, bound)
    if opts.get("json"):
        p = json.loads(stdout)
        head = {"schema": SCHEMA, "matrix_a": fmt_mat(a), "matrix_b": fmt_mat(b), "bound": bound, "found": exists}
        if any(p.get(k) != v for k, v in head.items()) or set(p) != set(head) | {"conjugator"}:
            return "wrong-output"
        found = p["conjugator"]
        if not exists:
            return None if found is None else "wrong-output"
    else:
        if not exists:
            return None if stdout == f"no conjugator with entries in [-{bound},{bound}]\n" else "wrong-output"
        if not stdout.startswith("conjugator: ") or not stdout.endswith("\n"):
            return "wrong-output"
        found = stdout[len("conjugator: ") : -1]
    try:
        h = parse_mat(found)
    except (ValueError, IndexError, AttributeError):
        return "wrong-output"
    if fmt_mat(h) != found or not is_conjugator(h, a, b, bound):
        return "wrong-output"
    return None


def _check_v221(opts, stdout: str) -> str | None:
    """Three involutions, each inside the extension set of its filling; the
    fillings are the multiset {(1,2), (1,2), (-1,1)}; the verdict is PASS."""
    if opts.get("json"):
        p = json.loads(stdout)
        if set(p) != {"schema", "matrices", "involution_ok", "assignment", "extends_ok", "passed"}:
            return "wrong-output"
        rows = list(zip(p["matrices"], p["assignment"] or []))
        flags_ok = p["involution_ok"] == [True] * 3 and p["extends_ok"] == [True] * 3 and p["passed"] is True
        if p["schema"] != SCHEMA or not flags_ok:
            return "wrong-output"
    else:
        lines = stdout.split("\n")
        if len(lines) != 5 or lines[3] != "result: PASS" or lines[4] != "":
            return "wrong-output"
        rows = []
        for line in lines[:3]:
            m = re.fullmatch(r"matrix (\S+): involution=yes filling=(\S+) extends=yes", line)
            if m is None:
                return "wrong-output"
            rows.append((m.group(1), m.group(2)))
    if len(rows) != 3:
        return "wrong-output"
    fillings = []
    for mat_text, slope_text in rows:
        mat = parse_mat(mat_text)
        m, l = (int(x) for x in slope_text.strip("()").split(","))
        allowed = extension_set(m, l)
        if mul(mat, mat) != IDENTITY or allowed is None or mat not in allowed:
            return "wrong-output"
        fillings.append((m, l))
    return None if sorted(fillings) == sorted([(1, 2), (1, 2), (-1, 1)]) else "wrong-output"


def _check_surfaces(opts, stdout: str) -> str | None:
    g = int(opts["genus"])
    if opts.get("filter") != "reversing" or opts.get("json"):
        raise ValueError("the benchmark sends only the reversing text listing")
    if not stdout.endswith("\n"):
        return "wrong-output"
    found = []
    names = set()
    for line in stdout[:-1].split("\n"):
        m = _SURFACE_ROW.fullmatch(line)
        if m is None or int(m.group(2)) != g:
            return "wrong-output"
        kind, r = m.group(1), int(m.group(3))
        circles = int(m.group(4) or 0)
        if (kind, r) in names or r > (g // 2 if kind == "refl" else g):
            return "wrong-output"
        names.add((kind, r))
        found.append((kind == "refl", circles))
    return None if sorted(found) == weichold_reversing(g) else "wrong-output"


def _expected(pos, opts, plant) -> Expected | None:
    """Exact expected output, or None when the command is checked by property."""
    cmd = pos[0]
    if cmd == "classify":
        return _expect_classify(pos[1])
    if cmd == "admissible":
        return _expect_admissible(pos[1])
    if cmd == "lift":
        return _expect_lift(pos[1])
    if cmd == "census":
        return _expect_census(pos[1])
    if cmd == "psi-check":
        return _expect_psi(pos[1], opts)
    if cmd == "extend":
        return _expect_extend(opts)
    if cmd == "enumerate":
        return _expect_enumerate(opts)
    if cmd == "mcg" and pos[1] == "class":
        return _expect_mcg_class(pos[2], plant)
    if cmd in ("verify-v221", "surface-classes") or pos[:2] == ["mcg", "conjugate"]:
        return None
    raise ValueError(f"oracle has no rule for {pos[0]!r}")


_POSITION_RE = re.compile(r"error: .* \(at position (\d+)\)\n")


def check(argv, plant: dict, exit_code: int, stdout: str, stderr: str) -> str | None:
    """None when the outcome is right, else ``wrong-exit`` or ``wrong-output``."""
    if "error_at" in plant:
        if exit_code != 1:
            return "wrong-exit"
        m = _POSITION_RE.fullmatch(stderr)
        ok = stdout == "" and m is not None and int(m.group(1)) == plant["error_at"]
        return None if ok else "wrong-output"
    pos, opts = split_args(argv)
    try:
        expected = _expected(pos, opts, plant)
    except Refusal:
        if exit_code != 1:
            return "wrong-exit"
        ok = stdout == "" and stderr.startswith("error: ") and stderr.endswith("\n") and len(stderr) > 8
        return None if ok else "wrong-output"
    if exit_code != 0:
        return "wrong-exit"
    if stderr:
        return "wrong-output"
    try:
        if expected is None:
            if pos[0] == "verify-v221":
                return _check_v221(opts, stdout)
            if pos[0] == "surface-classes":
                return _check_surfaces(opts, stdout)
            return _check_conjugate(pos[2:], opts, plant, stdout)
        return None if expected.matches(stdout, bool(opts.get("json"))) else "wrong-output"
    except (ValueError, KeyError, TypeError, AttributeError):  # unparsable output
        return "wrong-output"
