"""seifinv benchmark: one seeded closed-loop workload, checked by an oracle.

Usage (from anywhere; the checkout root is this file's parent's parent)::

    python3 seifbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

One client sends the workload's generated requests one after another to the
checkout's ``src/seifinv`` (nothing needs to be installed): in process
through ``seifinv.cli.run``, or for ``cold-cli`` through ``seifinv.cli:main``
in a fresh interpreter per request.  Every outcome is checked by
``oracle.check``, which never imports ``seifinv``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every request runs untraced and then traced, the two stdouts
must match byte for byte, and the per-layer metrics are reported.  Details
and, when traced, the raw spans go to ``.seifbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".seifbench_out"

sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

TIMEOUT_S = 30.0
SETUP_REPEATS = 3
PREFIX_ROUNDS = 5  # rounds generated during set-up and covered by the stream digest
HISTOGRAM_EDGES = {
    "fibers": (8, 49, 99, 199, 299, 499),
    "window": (99, 499, 999, 1500),
    "trials": (5, 20, 50, 100),
}
CLI_SCRIPT = "import sys\nfrom seifinv.cli import main\nsys.exit(main())"

PER_LAYER_KEYS = (
    "invariants.parse_seifert.self_ms",
    "invariants.normalize.calls",
    "invariants.normalize.distinct_share",
    "invariants.euler_number.calls",
    "invariants.orbifold_euler_characteristic.calls",
    "admissibility.check_admissible.self_ms",
    "filling.extension_condition.calls",
    "filling.extension_condition.distinct_share",
    "filling.solve_boundary_involutions.calls",
    "census.fiber_flip_conjugacy_check.self_ms",
    "torus_mcg.mat_mul.calls",
    "torus_mcg.find_conjugator.self_ms",
)
PROCESS_KEYS = ("process.start_ms", "process.import_ms", "process.command_ms")


def per_layer_names() -> list[str]:
    names = [f"{layer}.{stat}" for layer in spans.LAYERS for stat in ("self_ms", "calls", "raised")]
    return names + list(PER_LAYER_KEYS) + list(PROCESS_KEYS) + ["trace.overhead_share"]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/req"
    if name.endswith("distinct_share"):
        return "share"
    if name == "trace.overhead_share":
        return "ratio"
    return "count/req"


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout


Outcome = tuple  # (exit_code, stdout, stderr)


class InProcess:
    """Calls ``seifinv.cli.run`` in this interpreter."""

    # A reference sample after every 10 ms of requests, 15 per median.
    ref_every_ns, ref_window = 10_000_000, 15

    def __init__(self):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.cli = None

    def speed_tracker(self) -> speed.SpeedTracker:
        return speed.SpeedTracker(speed.timed_reference_op, speed.OP_NOMINAL_NS, self.ref_window)

    def load(self) -> str:
        for name in [m for m in sys.modules if m == "seifinv" or m.startswith("seifinv.")]:
            del sys.modules[name]
        for layer in spans.LAYERS:
            importlib.import_module(f"seifinv.{layer}")
        self.cli = sys.modules["seifinv.cli"]
        return self.cli.__file__

    def call(self, argv, traced: bool = False) -> tuple[Outcome, int, dict | None]:
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            start = time.perf_counter_ns()
            result = self.cli.run(list(argv))
            elapsed = time.perf_counter_ns() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if result.status == "ok":
            outcome = (result.exit_code, result.message + "\n" if result.message else "", "")
        else:
            outcome = (result.exit_code, "", f"error: {result.message}\n")
        return outcome, elapsed, None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Subprocess:
    """Runs ``seifinv.cli:main`` in a new interpreter per request."""

    # Process start speed moves quickly: a bare start after every request,
    # five per median.
    ref_every_ns, ref_window = 0, 5

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k not in ("SEIFERT_SEED", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    def speed_tracker(self) -> speed.SpeedTracker:
        return speed.SpeedTracker(self._bare_start, speed.SPAWN_NOMINAL_NS, self.ref_window)

    def _bare_start(self) -> int:
        return self._spawn([sys.executable, "-c", "pass"])[1]

    def _spawn(self, args) -> tuple[subprocess.CompletedProcess, int]:
        start = time.perf_counter_ns()
        proc = subprocess.run(
            args, capture_output=True, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
        return proc, time.perf_counter_ns() - start

    def load(self) -> str:
        probe = "import seifinv.cli\nprint(seifinv.cli.__file__)"
        proc, _ = self._spawn([sys.executable, "-c", probe])
        if proc.returncode != 0:
            raise RuntimeError(f"probe failed: {proc.stderr.decode(errors='replace')}")
        return proc.stdout.decode().strip()

    def call(self, argv, traced: bool = False) -> tuple[Outcome, int, dict | None]:
        if not traced:
            proc, elapsed = self._spawn([sys.executable, "-c", CLI_SCRIPT, *argv])
            return (proc.returncode, proc.stdout.decode(), proc.stderr.decode()), elapsed, None
        spawn_ns = time.perf_counter_ns()
        proc, elapsed = self._spawn([sys.executable, str(HERE / "child.py"), str(spawn_ns), *argv])
        stderr, record = [], None
        for line in proc.stderr.decode().splitlines(keepends=True):
            if line.startswith(spans.MARK):
                record = json.loads(line[len(spans.MARK) :])
            else:
                stderr.append(line)
        if record is not None and not _under_src(record["module"]):
            raise RuntimeError(f"traced child imported seifinv from {record['module']}")
        return (proc.returncode, proc.stdout.decode(), "".join(stderr)), elapsed, record

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def stream_digest(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update("\x1f".join(req.argv).encode() + b"\n")
    return h.hexdigest()


def bucket(dim: str, value: int) -> str:
    edges = HISTOGRAM_EDGES.get(dim)
    if edges is None:
        return str(value)
    lo = 0
    for hi in edges:
        if value <= hi:
            return f"{lo}-{hi}"
        lo = hi + 1
    return f">{edges[-1]}"


def tail(latencies_ns: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank latency in ms at ``percentile``, and the samples beyond it."""
    ordered = sorted(latencies_ns)
    rank = max(1, math.ceil(len(ordered) * percentile / 100))
    return ordered[rank - 1] / 1e6, len(ordered) - rank


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runner = InProcess() if workload.in_process else Subprocess()
        self.failures: Counter = Counter()
        self.attempted = 0
        self.sizes: Counter = Counter()
        self.latencies: list[int] = []
        self.positions: list[int] = []  # request index of each latency
        self.speed = self.runner.speed_tracker()
        self.traced_ns = 0
        self.untraced_ns = 0
        self.layer_totals: dict[str, list[int]] = {}
        self.process_ns = [0, 0, 0]
        self.traced_requests = 0
        self.tracer: spans.Tracer | None = None  # in-process traced runs only

    def _checked(self, req: Request, traced: bool) -> int | None:
        """Run one request, twice when tracing, and check it.  Returns the
        untraced latency, or None when the program raised or timed out."""
        self.attempted += 1
        tracer = self.tracer
        try:
            outcome, elapsed, _ = self.runner.call(req.argv)
            if traced:
                if tracer is not None:
                    tracer.install()
                try:
                    traced_outcome, traced_elapsed, record = self.runner.call(req.argv, traced=True)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
        except (RequestTimeout, subprocess.TimeoutExpired):
            self.failures["timeout"] += 1
            return None
        except Exception as exc:  # the program raised instead of answering
            self.failures[f"exception:{type(exc).__name__}"] += 1
            return None
        reason = oracle.check(req.argv, req.plant, *outcome)
        if traced:
            if reason is None and traced_outcome != outcome:
                reason = "trace-mismatch"
            counts = tracer.end_request() if tracer is not None else (record or {}).get("counts", {})
            self._add_layers(counts, record)
            self.traced_ns += traced_elapsed
            self.untraced_ns += elapsed
        if reason is not None:
            self.failures[reason] += 1
        return elapsed

    def _add_layers(self, counts: dict, record: dict | None) -> None:
        self.traced_requests += 1
        for key, values in counts.items():
            row = self.layer_totals.setdefault(key, [0, 0, 0, 0])
            for i, v in enumerate(values):
                row[i] += v
        if record is not None:
            for i, k in enumerate(("start_ns", "import_ns", "command_ns")):
                self.process_ns[i] += record[k]

    def setup(self) -> tuple[float, list[Request], Iterator[list[Request]], str]:
        """Import the program, generate the stream's first rounds, warm up."""
        start = time.perf_counter()
        module_file = self.runner.load()
        if not _under_src(module_file):
            raise RuntimeError(f"seifinv was imported from {module_file}, not from {SRC}")
        rounds = self.wl.rounds(self.seed)
        prefix = [req for _ in range(PREFIX_ROUNDS) for req in next(rounds)]
        for req in self.wl.warmup():
            self._checked(req, traced=False)
        return time.perf_counter() - start, prefix, rounds, module_file

    def execute(self) -> dict:
        setups, scaled_setups = [], []
        for _ in range(1 if self.trace else SETUP_REPEATS):
            around = self.runner.speed_tracker()
            around.sample(0, around.window // 2 + 1)
            elapsed, prefix, rounds, module_file = self.setup()
            around.sample(1, around.window // 2 + 1)
            setups.append(elapsed)
            scaled_setups.append(elapsed * around.scale())
        if self.trace and self.wl.in_process:
            self.tracer = spans.Tracer()
        requests = itertools.chain(prefix, itertools.chain.from_iterable(rounds))
        if not self.trace:
            self.speed.sample(0, self.speed.window)
        since_ref = 0
        index = 0
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            req = next(requests)
            latency = self._checked(req, traced=self.trace)
            if latency is not None:
                self.latencies.append(latency)
                self.positions.append(index)
                since_ref += latency
            index += 1
            if not self.trace and since_ref >= self.runner.ref_every_ns:
                self.speed.sample(index)
                since_ref = 0
            for dim, value in req.size.items():
                self.sizes[(dim, bucket(dim, value))] += 1
        if not self.trace:
            self.speed.sample(index, self.speed.window // 2)
        return {
            "setup_s": statistics.median(scaled_setups),
            "setups_s": setups,
            "digest": stream_digest(prefix),
            "prefix_requests": len(prefix),
            "module": module_file,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seifinv" / "cli.py").is_file():
        print(f"error: no seifinv sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("SEIFERT_SEED", None)
    sys.path.insert(0, str(SRC))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    info = run.execute()
    return report(run, info, args)


def report(run: Run, info: dict, args) -> int:
    failed = sum(run.failures.values())
    n = len(run.latencies)
    if n == 0:
        print(f"error: no request completed ({dict(run.failures)})", file=sys.stderr)
        return 1
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client, single process",
        "seifinv_module": info["module"],
        "stream_digest_sha256": info["digest"],
        "stream_digest_requests": info["prefix_requests"],
        "requests_measured": n,
        "failed_share": failed / max(1, run.attempted),
        "failures": dict(run.failures),
        "setup_runs_raw_s": info["setups_s"],
        "input_sizes": {f"{dim}={b}": c for (dim, b), c in sorted(run.sizes.items())},
    }
    if args.trace:
        metrics = layer_metrics(run)
        details["trace_base"] = {
            "untraced_ms": run.untraced_ns / 1e6,
            "traced_ms": run.traced_ns / 1e6,
            "requests": run.traced_requests,
        }
    else:
        scaled = [lat * run.speed.scale_at(pos) for lat, pos in zip(run.latencies, run.positions)]
        p = run.wl.tail_percentile
        tail_ms, beyond = tail(scaled, p)
        details["tail"] = {"percentile": p, "samples_beyond": beyond, "samples": n, "ten_beyond": beyond >= 10}
        details["raw"] = {
            "ops_per_s": n / (sum(run.latencies) / 1e9),
            "op_p50_ms": statistics.median(run.latencies) / 1e6,
            "op_tail_ms": tail(run.latencies, p)[0],
            "reference_samples": len(run.speed.times),
            "reference_median_ms": statistics.median(run.speed.times) / 1e6,
        }
        metrics = {
            "ops_per_s": (n / (sum(scaled) / 1e9), "1/s"),
            "op_p50_ms": (statistics.median(scaled) / 1e6, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (run.runner.peak_rss_mb(), "MB"),
            "setup_s": (info["setup_s"], "s"),
        }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = dict(details, metrics={k: v for k, (v, _) in metrics.items()})
    if run.tracer is not None:
        dump["spans"] = {
            "fields": ["request", "span", "parent", "name", "start_ns", "end_ns"],
            "rows": run.tracer.spans,
        }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(dump))
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value)}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(run: Run) -> dict:
    reqs = max(1, run.traced_requests)
    totals = run.layer_totals
    out = {}
    for layer in spans.LAYERS:
        rows = [row for key, row in totals.items() if key.split(".")[0] == layer]
        out[f"{layer}.self_ms"] = sum(r[1] for r in rows) / 1e6 / reqs
        out[f"{layer}.calls"] = sum(r[0] for r in rows) / reqs
        out[f"{layer}.raised"] = sum(r[2] for r in rows) / reqs
    for name in PER_LAYER_KEYS:
        key, stat = name.rsplit(".", 1)
        row = totals.get(key, [0, 0, 0, 0])
        if stat == "self_ms":
            out[name] = row[1] / 1e6 / reqs
        elif stat == "calls":
            out[name] = row[0] / reqs
        else:
            out[name] = row[3] / row[0] if row[0] else 0.0
    for name, total in zip(PROCESS_KEYS, run.process_ns):
        out[name] = total / 1e6 / reqs
    out["trace.overhead_share"] = run.traced_ns / run.untraced_ns if run.untraced_ns else 0.0
    return {name: (out[name], unit_of(name)) for name in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
