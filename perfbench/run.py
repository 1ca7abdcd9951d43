"""Benchmark of regionum's certificate pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Workloads.  The seed only shuffles the order of the specs in each pass.

* ``grid``: ``verify_bound`` on the acceptance grid (p = 2..6,
  p < q < 6p+6, proper; 111 specs).  Many small certificates; the time
  splits between the Kauffman bracket and the reduction/search engine,
  so a change to either shows here.
* ``wide``: ``verify_bound`` on K(p, p+1) for p = 7..9.  A few huge
  Temperley-Lieb sweeps take over 99% of the time: a bracket change
  shows here and a reduction change should not.  K(10, 11) alone takes
  over 10 s, too long to fit the passes a run needs.
* ``probe``: ``sharpness_probe`` on every K(p, q) with p = 2..5, q >= 2
  and at most 16 crossings (29 specs, 3140 region subsets).  Hundreds of
  tiny bracket sweeps (656 a pass), mostly on words the Jones check
  refutes, so per-call set-up costs show here.

A run times set-up (import ``regionum``, build the inputs, warm up) in
fresh processes and reports the median as ``setup_s``.  It then runs
passes over the specs in one process, without threads, until the next
pass would end after ``--seconds``, and always runs enough passes for 20
latency samples.  Every result is checked, and a digest of every
certificate is compared with ``perfbench/digests.json``; an item that
raises or fails a check counts as failed.

Every 50 ms during the passes a timer signal also runs a fixed reference
chunk of interpreter work that shares no code with regionum, also in the
middle of a long item.  The speed of a shared virtual machine drifts by
tens of percent over minutes, and the reference drifts with it, so the
time metrics are reported twice: in seconds, and in units of the
reference chunk (``ref``, its median time in the same run).  Item and
pass times leave the reference chunks out.  ``BENCHMARK.json`` bounds
the ``ref`` forms, whose run-to-run spread is about half that of the
seconds.  Runs with ``--trace 1`` take no reference samples.

With ``--trace 1`` the passes alternate between untraced and traced.
The traced passes wrap regionum's layer functions (see ``tracing.py``)
and give the per-layer metrics, as medians over traced passes; the spans
are written to ``perfbench/traces/``.  The tracing overhead is the
traced minus the untraced median pass time.

The output is one line per metric, then one JSON object on the last
line with the metrics named in ``BENCHMARK.json``: the ``end_to_end``
ones with ``--trace 0``, the ``per_layer`` ones with ``--trace 1``.

``--write-digests`` rewrites ``perfbench/digests.json`` from one pass of
every workload.  Use it only for a change that is meant to alter the
certificates.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
TRACES = BENCH_DIR / "traces"

SETUP_SAMPLES = 7  # fresh processes timed per run, this one included
REFERENCE_ROUNDS = 3000  # about 1 ms of interpreter work
REFERENCE_INTERVAL = 0.05  # seconds of wall time between reference chunks
MIN_LATENCY_SAMPLES = 20  # enough for a median with ten samples beyond it
PERCENTILES = (50, 90, 99, 99.9)

# Fields of Certificate.to_json that the digest covers.
CERT_KEYS = (
    "p", "q", "d", "case", "bound", "regions", "target_word", "verdict",
    "jones_unlink_check",
)

# Criterion 8 of the acceptance gate: (proper, exact u_R) per spec.
CRITERION_8 = {
    (3, 3): (True, 1),
    (3, 4): (True, 1),
    (4, 4): (False, None),
    (4, 5): (True, 3),
}


def import_regionum() -> None:
    """Import regionum from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import regionum

    if Path(regionum.__file__).resolve().parent != ROOT / "src" / "regionum":
        raise SystemExit(f"regionum imported from {regionum.__file__}, not {ROOT / 'src'}")


# --- workloads -------------------------------------------------------------


def grid_specs():
    from regionum import TorusLinkSpec, is_proper

    return [
        TorusLinkSpec(p, q)
        for p in range(2, 7)
        for q in range(p + 1, 6 * p + 6)
        if is_proper(p, q)
    ]


def wide_specs():
    from regionum import TorusLinkSpec

    return [TorusLinkSpec(p, p + 1) for p in range(7, 10)]


def probe_specs():
    from regionum import TorusLinkSpec

    return [
        TorusLinkSpec(p, q)
        for p in range(2, 6)
        for q in range(2, 17)
        if (p - 1) * q <= 16
    ]


def call_verify(spec):
    from regionum import bounds

    return bounds.verify_bound(spec)


def call_probe(spec):
    from regionum import search

    return search.sharpness_probe(spec)


def record_verify(spec, result) -> str:
    cert = json.loads(result.certificate.to_json(spec, result.case, result.bound))
    return json.dumps({k: cert[k] for k in CERT_KEYS}, sort_keys=True)


def record_probe(spec, probe) -> str:
    report = probe.search
    return json.dumps(
        {
            "p": spec.p,
            "q": spec.q,
            "proper": probe.proper,
            "theorem_bound": probe.theorem_bound,
            "improves_bound": probe.improves_bound,
            "search": None if report is None else dataclasses.asdict(report),
        },
        sort_keys=True,
    )


def check_grid(spec, result) -> bool:
    """Criterion 4's rule, plus a Jones check that must have run."""
    from regionum import Verdict

    unlink = result.certificate.unlink
    if len(result.certificate.schedule) != result.bound:
        return False
    if unlink.jones_matches_unlink is not True:
        return False
    if spec.is_knot:
        return unlink.verdict is Verdict.CERTIFIED
    return unlink.verdict is not Verdict.REFUTED


def check_wide(spec, result) -> bool:
    from regionum import Verdict

    unlink = result.certificate.unlink
    return unlink.verdict is Verdict.CERTIFIED and unlink.jones_matches_unlink is True


def check_probe(spec, probe) -> bool:
    exact = probe.search.exact if probe.search else None
    if spec.p == 2 and probe.proper and exact != (spec.q + 2) // 4:
        return False
    expected = CRITERION_8.get((spec.p, spec.q))
    if expected is not None and expected != (probe.proper, exact):
        return False
    return exact is None or probe.theorem_bound is None or exact <= probe.theorem_bound


def probe_subsets(probe) -> int:
    return probe.search.explored if probe.search else 0


@dataclasses.dataclass(frozen=True)
class Workload:
    specs: Callable[[], list]
    call: Callable
    check: Callable[[object, object], bool]
    record: Callable[[object, object], str]
    subsets: Callable[[object], int] | None = None


WORKLOADS = {
    "grid": Workload(grid_specs, call_verify, check_grid, record_verify),
    "wide": Workload(wide_specs, call_verify, check_wide, record_verify),
    "probe": Workload(probe_specs, call_probe, check_probe, record_probe, probe_subsets),
}


def warm_up(workload: Workload, specs: list) -> None:
    """Fill per-process caches: one small certificate per strand count the
    workload uses, then one call on its first spec."""
    from regionum.braid import BraidWord
    from regionum.invariants import certify_unlink

    for p in sorted({spec.p for spec in specs}):
        certify_unlink(BraidWord(p, tuple(range(1, p))))
    workload.call(specs[0])


def set_up(name: str) -> tuple[list, float]:
    """Import regionum, build the inputs and warm up; returns the specs in
    canonical order and the seconds it took."""
    start = time.perf_counter()
    import_regionum()
    workload = WORKLOADS[name]
    specs = workload.specs()
    warm_up(workload, specs)
    return specs, time.perf_counter() - start


def setup_sample(name: str) -> float:
    """Set-up time of one fresh process."""
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-sample"],
            capture_output=True, text=True, check=True, timeout=60,
        )
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"set-up sample failed:\n{exc.stderr}") from exc
    return float(done.stdout.split()[-1])


# --- measurement -----------------------------------------------------------


@dataclasses.dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    reference: list = dataclasses.field(default_factory=list)  # chunk seconds
    subsets: int = 0
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    records: dict = dataclasses.field(default_factory=dict)
    tracer: object = None


def reference_chunk() -> float:
    """Seconds taken by a fixed piece of interpreter work that shares no
    code with regionum: dict updates under tuple keys and integer
    arithmetic, the operations regionum's hot loops are made of."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(REFERENCE_ROUNDS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class ReferenceSampler:
    """Runs :func:`reference_chunk` from a ``SIGALRM`` handler every
    ``REFERENCE_INTERVAL`` seconds while used as a context manager, so the
    reference samples the machine evenly over the passes."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the handler, to leave out of timings

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_chunk())
        self.busy += time.perf_counter() - start

    def __enter__(self) -> "ReferenceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL, REFERENCE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def spec_key(spec) -> str:
    return f"{spec.p},{spec.q}"


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def run_pass(
    workload: Workload,
    order: list,
    expected: dict | None,
    traced: bool,
    sampler: ReferenceSampler,
) -> Pass:
    out = Pass(traced)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = out.tracer = Tracer()
    first_sample = len(sampler.samples)
    busy = sampler.busy
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for spec in order:
            key = spec_key(spec)
            out.attempted += 1
            if tracer:
                tracer.item = key
            t0, busy0 = time.perf_counter(), sampler.busy
            try:
                result = workload.call(spec)
            except Exception as exc:  # an item that raises counts as failed
                out.failures.append(f"K({key}) raised {type(exc).__name__}: {exc}")
                continue
            out.latencies.append(time.perf_counter() - t0 - (sampler.busy - busy0))
            record = workload.record(spec, result)
            out.records[key] = digest(record)
            if workload.subsets:
                out.subsets += workload.subsets(result)
            if not workload.check(spec, result):
                out.failures.append(f"K({key}) failed its check: {record}")
            elif expected is not None and expected.get(key) != out.records[key]:
                out.failures.append(f"K({key}) certificate digest differs: {record}")
    out.wall = time.perf_counter() - start - (sampler.busy - busy)
    out.reference = sampler.samples[first_sample:]
    return out


def measure(name: str, specs: list, seed: int, seconds: int, trace: bool) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; with tracing
    they alternate untraced, traced."""
    workload = WORKLOADS[name]
    expected = json.loads(DIGESTS.read_text())[name]
    rng = random.Random(seed)
    min_passes = 2 if trace else math.ceil(MIN_LATENCY_SAMPLES / len(specs))
    passes: list[Pass] = []
    sampler = ReferenceSampler()
    start = time.perf_counter()
    with contextlib.nullcontext() if trace else sampler:
        while True:
            order = list(specs)
            rng.shuffle(order)
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, order, expected, traced, sampler))
            elapsed = time.perf_counter() - start
            if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
                return passes


def percentiles(samples: list[float]) -> list[tuple[float, float]]:
    """(percentile, value) for each percentile with at least ten samples
    beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    out = []
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            out.append((pct, ordered[rank - 1]))
    return out


def end_to_end(passes: list[Pass], setup_s: float) -> tuple[dict, list[str]]:
    """Raw metrics in seconds, and the time metrics again in units of the
    reference chunk timed in the same passes (``ref``)."""
    plain = [p for p in passes if not p.traced]
    ref = statistics.median(x for p in plain for x in p.reference)
    latencies = [x for p in plain for x in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    wall = statistics.median(p.wall for p in plain)
    rate = statistics.median(len(p.latencies) / p.wall for p in plain)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "wall_ref": wall / ref,
        "items_per_s": rate,
        "items_per_ref": rate * ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        f"setup_s = {setup_s:.4f} s (median of {SETUP_SAMPLES} fresh processes)",
        f"ref = {ref * 1e3:.4f} ms (median of {sum(len(p.reference) for p in plain)} "
        "reference chunks)",
        f"wall_s = {wall:.4f} s = {wall / ref:.1f} ref (median of {len(plain)} passes)",
        f"items_per_s = {rate:.3f} 1/s = {rate * ref:.6f} 1/ref (median over passes)",
    ]
    for pct, value in percentiles(latencies):
        name = f"latency_p{pct:g}".replace(".", "_")
        metrics[f"{name}_ms"] = value * 1e3
        metrics[f"{name}_ref"] = value / ref
        lines.append(
            f"{name}_ms = {value * 1e3:.3f} ms = {value / ref:.3f} ref (n = {len(latencies)})"
        )
    if any(p.subsets for p in plain):
        subsets = statistics.median(p.subsets / p.wall for p in plain)
        metrics["subsets_per_s"] = subsets
        metrics["subsets_per_ref"] = subsets * ref
        lines.append(
            f"subsets_per_s = {subsets:.1f} 1/s = {subsets * ref:.4f} 1/ref (median over passes)"
        )
    lines.append(f"fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} items)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB")
    return metrics, lines


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Medians over the traced passes, and the tracing overhead."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    per_pass = [p.tracer.metrics() for p in traced]
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    lines = [
        f"wall_s untraced = {plain_wall:.4f} s, traced = {traced_wall:.4f} s, "
        f"overhead = {traced_wall - plain_wall:+.4f} s",
    ]
    wall_ms = traced_wall * 1e3
    shares = {
        "bracket (invariants.kauffman_bracket)": metrics["invariants.kauffman_bracket.ms"],
        "reduction (braid.handle_reduce + markov_simplify)":
            metrics["braid.handle_reduce.ms"] + metrics["braid.markov_simplify.ms"],
        "diagram.close_braid": metrics["diagram.close_braid.ms"],
        "gf2.solution_coset": metrics["gf2.solution_coset.ms"],
    }
    lines += [f"share {name} = {100 * ms / wall_ms:.1f} %" for name, ms in shares.items()]
    lines += [f"{name} = {value:g}" for name, value in sorted(metrics.items())]
    return metrics, lines


def write_spans(passes: list[Pass], workload: str, seed: int) -> Path:
    TRACES.mkdir(exist_ok=True)
    path = TRACES / f"{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(["pass", "id", "name", "start", "end", "parent", "item"]) + "\n")
        for index, p in enumerate(passes):
            if p.traced:
                p.tracer.dump(fh, index)
    return path


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


def write_digests() -> None:
    import_regionum()
    table = {}
    for name, workload in WORKLOADS.items():
        specs = workload.specs()
        result = run_pass(workload, specs, None, False, ReferenceSampler())
        if result.failures:
            raise SystemExit("\n".join(result.failures))
        table[name] = result.records
        print(f"{name}: {len(result.records)} certificates")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    os.environ.pop("REGIONUM_BUDGET", None)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.setup_sample:
        print(set_up(args.workload)[1])
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, first_setup = set_up(args.workload)
    print(
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"seed={args.seed} commit={commit()} workload={args.workload} "
        f"seconds={args.seconds} trace={args.trace} specs={len(specs)}"
    )
    passes = measure(args.workload, specs, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics, lines = per_layer(passes)
        declared = bench["per_layer"]
        path = write_spans(passes, args.workload, args.seed)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        samples = [first_setup] + [setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        metrics, lines = end_to_end(passes, statistics.median(samples))
        declared = bench["end_to_end"]
    for line in lines:
        print(line)
    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
