"""commfam benchmark: time to a zero-tolerance verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tensor-legs --seed 1 --seconds 40 --trace 0

Load model: one client, one process, ``jobs=1``, closed loop.  A request is
``cli.run_scenario`` on a one-trial scenario followed by ``Report.to_json``
(what ``commfam run cfg --trials 1 --seed s`` does); ``workloads.py`` holds
the request mixes.  A run sends at least three passes of the workload, each
with fresh inputs, and more while another pass still fits into ``--seconds``.
``wall_s`` and the latency percentiles are means over the passes.

Timings are reported at a fixed reference speed.  On a shared 2-core VM the
host slows the same pure-Python work by up to 1.6x for stretches of tens of
seconds, so raw timings of one build differ by ~30% from run to run and no
regression smaller than that could be seen.  Before each request the
benchmark therefore times ``speed_probe`` -- a fixed sparse product and
Fraction sum, the program's kind of work done by code the program cannot
change -- and scales each request's latency by ``PROBE_REF_S`` over the
median of the probes sent around it.  The probe does not call the program,
so a change to the program moves scaled and raw timings by the same factor;
the raw timings are printed and written out as well.  ``setup_s`` and
``peak_rss_mb`` are not scaled.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of importing commfam and building the first pass's scenarios),
``wall_s`` (pass time from the first request to the last serialized report,
summed over requests so the probes and harness work between them are left
out), ``verdict_ms.p50`` and ``verdict_ms.tail`` (the pass's median request
and the highest percentile with at least ten of its requests beyond it), and
``peak_rss_mb``.  ``fail_ratio`` is printed and equals ``failed /
attempted`` in the result line.

``--trace 1`` runs the first pass once untraced and once traced
(``layer_trace.py``) and prints the per-layer metrics, ``cli.draw_yield`` and
``trace.overhead``.

Every request must pass every check, traced reports must equal untraced
ones, and at the default seed the first pass's reports, with ``duration_ms``
removed, must match the sha256 digest in ``digests.json``.  The last stdout
line is the JSON result; the exit code is 0 only when every verdict is
correct.  Results, the machine description and (traced runs) the spans are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layer_trace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3
PROBE_REF_S = 0.0007
PROBE_WINDOW = 6  # probes on each side of a request that set its speed
# Operands of the speed probe: two 24-term packed-exponent polynomials.
_PROBE_A = {(i * 37) % 1024 + (i << 10): (i * 7919) % 1000003 - 500000 for i in range(24)}
_PROBE_B = {(i * 53) % 1024 + (i << 11): (i * 104729) % 1000003 - 500000 for i in range(24)}
TAIL_BEYOND = 10

# Build the pass in a fresh interpreter and print the set-up time.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import workloads
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
workloads.build_scenarios(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - start)
"""


class PassResult:
    """One pass: per-request latency, canonical report and failure reason."""

    def __init__(self):
        self.kinds: list[str] = []
        self.probe_s: list[float] = []
        self.latency_s: list[float] = []
        self.canonical: list[str | None] = []
        self.problems: list[str | None] = []

    @property
    def wall_s(self) -> float:
        """First request to last serialized report, without harness work."""
        return sum(self.latency_s)

    def digest(self) -> str:
        text = "\n".join(c if c is not None else "<raised>" for c in self.canonical)
        return hashlib.sha256(text.encode()).hexdigest()


def canonical_report(text: str) -> str:
    """The report JSON with ``duration_ms`` removed, in one fixed layout."""
    doc = json.loads(text)
    doc.pop("duration_ms", None)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def speed_probe() -> float:
    """Time a fixed sparse product and Fraction sum: the program's kind of work,
    done by code the program cannot change."""
    start = perf_counter()
    out: dict[int, int] = {}
    get = out.get
    for ka, va in _PROBE_A.items():
        for kb, vb in _PROBE_B.items():
            out[ka + kb] = get(ka + kb, 0) + va * vb
    total = Fraction(0)
    for i, v in enumerate(list(out.values())[:150], 1):
        total += Fraction(v, i)
    return perf_counter() - start


def run_pass(cli, scenarios, tracer=None) -> PassResult:
    result = PassResult()
    for number, scenario in enumerate(scenarios):
        if tracer is not None:
            tracer.request = number
        result.kinds.append(scenario.kind)
        result.probe_s.append(speed_probe())
        start = perf_counter()
        try:
            text = cli.run_scenario(scenario, jobs=1).to_json()
        except Exception as exc:  # one broken request must not end the run
            text = None
            problem = f"raised {type(exc).__name__}: {exc}"
        result.latency_s.append(perf_counter() - start)
        if text is not None:
            canonical = canonical_report(text)
            bad = [c for c in json.loads(canonical)["checks"] if c["status"] != "pass"]
            problem = (f"{bad[0]['status']} {bad[0]['name']}: {bad[0]['witness']}"
                       if bad else None)
            result.canonical.append(canonical)
        else:
            result.canonical.append(None)
        result.problems.append(problem)
    return result


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (after one warm-up)."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(HERE), str(SRC), workload,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def tail_rank(count: int) -> int:
    """1-based rank of the highest order statistic with ten requests beyond it."""
    return max(1, count - TAIL_BEYOND)


def draw_yield(one: PassResult) -> float:
    """Accepted draws over attempted draws, from the resample-log records."""
    attempted = accepted = 0
    for kind, text in zip(one.kinds, one.canonical):
        if kind not in workloads.DRAWING_KINDS or text is None:
            continue
        logs = [c for c in json.loads(text)["checks"]
                if c["name"].startswith("resample-log")]
        if not logs:
            attempted += 1
            accepted += 1
            continue
        for log in logs:
            resamples = int(re.search(r"resamples = (\d+)", log["witness"]).group(1))
            ok = log["status"] == "pass"
            attempted += resamples + ok
            accepted += ok
    return accepted / attempted if attempted else 0.0


def gate(passes: list[PassResult], digest: str | None) -> tuple[int, int, list[str]]:
    """Count failed requests over all passes and say why they failed.

    A request fails if it raised or if any record is not ``pass`` (a declared
    precondition error surfaces as ``skipped``).  If the first pass's digest
    differs from the stored one, every request of the run fails, since the
    digest cannot say which report changed.
    """
    attempted = sum(len(one.canonical) for one in passes)
    reasons = [f"pass {number} request {index}: {problem}"
               for number, one in enumerate(passes)
               for index, problem in enumerate(one.problems) if problem is not None]
    failed = len(reasons)
    if digest is not None and passes[0].digest() != digest:
        reasons.append(f"digest {passes[0].digest()} != stored {digest}")
        failed = attempted
    return attempted, failed, reasons


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "commfam").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "source_sha256": source.hexdigest(),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace}


def scaled_latency(one: PassResult) -> list[float]:
    """Each request's latency at the reference speed: scaled by the median of
    the speed probes sent around it."""
    out = []
    for i, latency in enumerate(one.latency_s):
        near = one.probe_s[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(latency * PROBE_REF_S / statistics.median(near))
    return out


def pass_metrics(one: PassResult) -> dict:
    """The pass's timings (measured and at the reference speed) and digest."""
    def timings(latency_s):
        ordered = sorted(latency_s)
        return {"wall_s": sum(latency_s), "p50_ms": 1000 * statistics.median(ordered),
                "tail_ms": 1000 * ordered[tail_rank(len(ordered)) - 1]}

    count = len(one.latency_s)
    return {"scaled": timings(scaled_latency(one)), "measured": timings(one.latency_s),
            "tail_label": f"p{100 * tail_rank(count) // count} "
                          f"({tail_rank(count)} of {count})",
            "digest": one.digest(), "kinds": one.kinds,
            "latency_ms": [1000 * t for t in one.latency_s],
            "probe_ms": [1000 * t for t in one.probe_s]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            digest: str | None = None) -> dict:
    """Run one benchmark measurement in this process and return its results."""
    from commfam import cli

    out = {}
    if trace:
        scenarios = workloads.build_scenarios(workload, seed)
        untraced = run_pass(cli, scenarios)
        tracer = layer_trace.Tracer()
        missing = tracer.install()
        try:
            traced = run_pass(cli, scenarios, tracer)
        finally:
            tracer.uninstall()
        for i, (plain, seen) in enumerate(zip(untraced.canonical, traced.canonical)):
            if plain != seen and traced.problems[i] is None:
                traced.problems[i] = "traced report differs from the untraced one"
        passes = [untraced, traced]
        layers = tracer.layer_metrics()
        layers["cli.draw_yield"] = (draw_yield(traced), "ratio")
        layers["trace.overhead"] = (traced.wall_s / untraced.wall_s - 1, "ratio")
        out.update(layers=layers, missing=missing, tracer=tracer)
    else:
        setup_s = measure_setup(workload, seed)
        passes = []
        started = perf_counter()
        while (len(passes) < MIN_PASSES or perf_counter() - started
               + max(p.wall_s for p in passes) <= seconds):
            scenarios = workloads.build_scenarios(workload, seed, len(passes))
            passes.append(run_pass(cli, scenarios))
        out.update(setup_s=setup_s,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    summaries = [pass_metrics(p) for p in passes]
    if not trace:
        for kind in ("scaled", "measured"):
            out[kind] = {key: statistics.mean(one[kind][key] for one in summaries)
                         for key in summaries[0][kind]}
    attempted, failed, reasons = gate(passes, digest)
    out.update(passes=summaries, attempted=attempted, failed=failed, reasons=reasons)
    return out


def stored_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commfam" / "__init__.py").is_file():
        print(f"error: no commfam sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, args.seconds, args.trace)
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  digest=stored_digest(args.workload, args.seed))
    name = args.workload
    if args.trace:
        metrics = {key: {"value": value, "unit": unit}
                   for key, (value, unit) in out["layers"].items()}
        for missing in out["missing"]:
            print(f"{name} not traced: {missing} is absent")
    else:
        metrics = {
            "setup_s": {"value": out["setup_s"], "unit": "s"},
            "wall_s": {"value": out["scaled"]["wall_s"], "unit": "s"},
            "verdict_ms.p50": {"value": out["scaled"]["p50_ms"], "unit": "ms"},
            "verdict_ms.tail": {"value": out["scaled"]["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    for key, metric in metrics.items():
        note = (f"  [{out['passes'][0]['tail_label']}]"
                if key == "verdict_ms.tail" else "")
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}{note}")
    if not args.trace:
        print(f"{name} as measured, before scaling to the reference speed: " + ", ".join(
            f"{key} = {value:.6g}" for key, value in out["measured"].items()))
    print(f"{name} fail_ratio = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} requests, {len(out['passes'])} passes)")
    for reason in out["reasons"][:20]:
        print(f"{name} FAILED {reason}")
    print("env " + json.dumps(env, sort_keys=True))

    correct = out["failed"] == 0
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "correct": correct,
              "attempted": out["attempted"], "failed": out["failed"],
              "reasons": out["reasons"], "passes": out["passes"]}
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if args.trace:
        out["tracer"].write_spans(f"{stem}-spans.npz")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
