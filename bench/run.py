#!/usr/bin/env python3
"""Benchmark of certified standardization on a seeded known-answer corpus.

Run from the repository root:

    python3 bench/run.py --workload search-long --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --write-benchmark-json

One process, one thread, one caller.  Each workload is a closed loop over a
fixed seeded list of inputs (``corpus.inputs``): the next input is sent only
after the previous one is answered.  The list is run in passes until the
next pass would end after ``--seconds``; outputs are checked after each
pass, outside the timed region.

Time metrics are in seconds at a fixed reference speed (``speed.py``): on
a shared machine the speed of one process drifts by up to half, within
seconds and between runs, so a probe timed every 10 ms while the workload
runs measures the drift and each input's time is rescaled by it.  Per input
the median over its passes is taken.  ``throughput_ips`` is inputs over the
sum of these times, ``latency_p50_s`` their median and ``cpu_per_input_s``
the mean of the CPU times, rescaled the same way.  ``setup_s`` is the
median of ``SETUP_REPS`` rescaled set-ups.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` follows each
plain pass with a pass with spans around the library's entry points
(``tracing.py``) and prints the per-layer metrics of the first traced pass;
all traced passes count towards ``trace.overhead_ratio``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A report with the environment, every metric's
details, one row per input and, when traced, the spans is written to
``bench/out/``; in it, each input's ``seconds`` lists one wall time per pass
(with ``--trace 1``, the plain passes and then the traced ones).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from probe import REF_PROBE_S, rescale
from speed import Speedometer
from tracing import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {
    "search-long": (
        "s*t*t' products of 25-75 generators: the greedy search (localeq, _gf2) "
        "dominates and paired_basis hardly matters"
    ),
    "wide-trivial": (
        "products of 265-305 generators with a short answer: complexes "
        "(paired_basis, reduce) dominate and the search is small"
    ),
    "batch-small": (
        "small documents through the standardize command path and invariants: "
        "fixed per-call costs and input checks dominate"
    ),
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ips", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("cpu_per_input_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cli_cold_p50_s", "s", "lower", 0.25),
]

# Printed and written to the report, but not gated in BENCHMARK.json:
# failed_ratio is 0 at seed, and a gated metric must never be 0 (the
# result's ``failed`` and ``attempted`` carry it).
REPORTED = [("failed_ratio", "ratio")]

# Per input of the first traced pass unless the name says otherwise;
# ``_s`` metrics are self times (span duration minus its child spans).
PER_LAYER = [
    ("gf2.solve_s", "s", "lower"),
    ("gf2.solve_calls", "count", "lower"),
    ("gf2.rows_mean", "count", "lower"),
    ("gf2.unknowns_mean", "count", "lower"),
    ("gf2.row_bits", "bits", "lower"),
    ("gf2.inconsistent_ratio", "ratio", "lower"),
    ("localeq.trials", "count", "lower"),
    ("localeq.trials_per_step", "count", "lower"),
    ("localeq.feasible_ratio", "ratio", "higher"),
    ("localeq.standardize_self_s", "s", "lower"),
    ("localeq.extant_s", "s", "lower"),
    ("localeq.extant_pool", "count", "lower"),
    ("localeq.check_certificate_s", "s", "lower"),
    ("standard.realize_calls", "count", "lower"),
    ("standard.realize_s", "s", "lower"),
    ("standard.parse_spec_s", "s", "lower"),
    ("complexes.paired_basis_s", "s", "lower"),
    ("complexes.paired_basis_calls_per_input", "count", "lower"),
    ("complexes.reduce_s", "s", "lower"),
    ("complexes.is_knotlike_s", "s", "lower"),
    ("complexes.validate_s", "s", "lower"),
    ("complexes.validate_fuv_s", "s", "lower"),
    ("complexes.base_change_s", "s", "lower"),
    ("io_json.load_s", "s", "lower"),
    ("io_json.emit_s", "s", "lower"),
    ("invariants.report_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("share.search", "ratio", "lower"),
    ("share.paired_basis_reduce", "ratio", "lower"),
    ("share.localeq", "ratio", "lower"),
    ("share.gf2", "ratio", "lower"),
    ("share.complexes", "ratio", "lower"),
    ("share.standard", "ratio", "lower"),
    ("share.io_json", "ratio", "lower"),
    ("share.invariants", "ratio", "lower"),
    ("share.untraced", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

RUN_SECONDS = 30
SETUP_REPS = 9
CLI_DOCS = 24


# -- set-up ---------------------------------------------------------------------


def load_library():
    """Import the library and the corpus module afresh; returns both."""
    for name in list(sys.modules):
        if name == "gridring" or name.startswith("gridring.") or name == "corpus":
            del sys.modules[name]
    gridring = importlib.import_module("gridring")
    for name in ("io_json", "cli"):
        importlib.import_module("gridring." + name)
    return gridring, importlib.import_module("corpus")


def materialize(cases, doc_dir):
    """Write the documents where the measured path reads them."""
    for case in cases:
        if case.doc is not None:
            case.path = str(doc_dir / (case.id.replace("/", "-") + ".json"))
            with open(case.path, "w", encoding="utf-8") as fh:
                json.dump(case.doc, fh)


def setup(workload, seed, doc_dir):
    """Import plus corpus generation, repeated; the last repetition is kept.

    Returns the library, the corpus module, the inputs and the start and
    end of each repetition.
    """
    spans = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib, corpus = load_library()
        cases = corpus.inputs(workload, seed)
        materialize(cases, doc_dir)
        spans.append((t0, time.perf_counter()))
    return lib, corpus, cases, spans


# -- the measured path and its checks --------------------------------------------


def run_case(lib, case):
    """One input through the library; returns the outputs to check.

    Documents go through ``gridring standardize --json`` minus argument
    parsing (``cli.cmd_standardize``), then ``parse_spec(specText)`` and the
    invariant report.
    """
    if case.doc is None:
        return {"spec": lib.localeq.standard_representative(case.complex)[0]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        lib.cli.cmd_standardize(argparse.Namespace(file=case.path, dy=None, json=True))
    text = out.getvalue()
    emitted = json.loads(text)
    spec = lib.standard.parse_spec(emitted["specText"], lib.ring.RingId(emitted["spec"]["ring"]))
    report = lib.io_json.dump_json(lib.invariants.report(spec).to_json())
    return {"spec": spec, "emitted": emitted, "report": report}


def _phi_sum(inv, specs):
    total = defaultdict(int)
    for spec in specs:
        for key, c in inv.phi(spec).entries:
            total[key] += c
    return {key: c for key, c in total.items() if c}


def check(lib, case, result, error):
    """None when the outcome matches the case's expectation, else why not."""
    kind = case.expect[0]
    if kind in ("not_knotlike", "invalid"):
        want = lib.complexes.NotKnotlikeError if kind == "not_knotlike" else lib.io_json.DocumentError
        if error is None:
            return "expected %s, got %s" % (want.__name__, lib.standard.format_spec(result["spec"]))
        if not isinstance(error, want):
            return "expected %s, raised %s: %s" % (want.__name__, type(error).__name__, error)
        return None
    if error is not None:
        return "raised %s: %s" % (type(error).__name__, error)
    spec = result["spec"]
    fmt = lib.standard.format_spec
    if kind == "spec" and spec != case.expect[1]:
        return "got %s, expected %s" % (fmt(spec), fmt(case.expect[1]))
    factors = case.expect[1] if kind == "additive" else case.expect[2] if len(case.expect) > 2 else None
    if factors is not None:
        inv = lib.invariants
        if dict(inv.phi(spec).entries) != _phi_sum(inv, factors):
            return "phi of %s is not the sum over the factors" % fmt(spec)
        pu, pv = inv.p_invariants(spec)
        if (pu, pv) != tuple(map(sum, zip(*(inv.p_invariants(f) for f in factors)))):
            return "P invariants of %s are not additive" % fmt(spec)
        if inv.tau(spec) != sum(inv.tau(f) for f in factors):
            return "tau of %s is not additive" % fmt(spec)
    if "emitted" in result:
        emitted = result["emitted"]
        if lib.io_json.document_to_spec(emitted["spec"]) != spec or emitted["verified"] is not True:
            return "emitted spec document does not match its specText"
        if "tau" not in json.loads(result["report"]):
            return "invariant report is incomplete"
    return None


def run_pass(lib, cases, tracer=None):
    """Run every input once, one at a time, then check the outputs.

    Returns ``(start, wall, cpu, failure, outputs)`` per input, in input
    order.
    """
    done = []
    for case in cases:
        if tracer is not None:
            tracer.input_id = case.id
        result = error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = run_case(lib, case)
        except Exception as exc:  # every failure is counted, never fatal
            error = exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        done.append((result, error, t0, t1 - t0, c1 - c0))
    return [
        (t0, wall, cpu, check(lib, case, result, error), result)
        for case, (result, error, t0, wall, cpu) in zip(cases, done)
    ]


# -- metrics ------------------------------------------------------------------------


def tail(latencies):
    """Highest percentile from p90 to p99 with at least ten samples beyond it.

    Below a hundred samples none qualifies and the maximum is reported:
    falling back to a lower percentile would make the "tail" of a short run
    jump between the slowest input and a middling one as the sample count
    crosses twenty.  Returns (value, label, samples beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 89, -1):
        v = xs[math.ceil(p / 100 * n) - 1]
        beyond = n - bisect.bisect_right(xs, v)
        if beyond >= 10:
            return v, "p%d" % p, beyond
    return xs[-1], "max", 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rows, setup_times, cli_times):
    """Over every input served, in seconds at the reference speed."""
    lat = [x for r in rows for x in r["seconds_at_ref"]]
    tv, tlabel, tbeyond = tail(lat)
    gens = [r["gens"] for r in rows]
    return {
        "setup_s": (statistics.median(setup_times), {"repetitions": setup_times}),
        "throughput_ips": (
            len(lat) / sum(lat),
            {"inputs": len(rows), "passes": len(rows[0]["seconds"]), "generators": [min(gens), max(gens)]},
        ),
        "latency_p50_s": (statistics.median(lat), {"samples": len(lat)}),
        "latency_tail_s": (tv, {"percentile": tlabel, "samples": len(lat), "beyond": tbeyond}),
        "cpu_per_input_s": (statistics.fmean(x for r in rows for x in r["cpu_s_at_ref"]), {}),
        "peak_rss_mb": (peak_rss_mb(), {}),
        "cli_cold_p50_s": (statistics.median(cli_times), {"samples": cli_times}),
    }


def per_layer(tracer, wall, n, overhead, cli):
    """Self times and counters of one traced pass over ``n`` inputs."""
    spans = tracer.spans
    calls = defaultdict(int)
    own = defaultdict(float)
    infos = defaultdict(list)
    for span, st in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        own[name] += st
        if span[5] is not None:
            infos[name].append(span[5])
    solves = infos["_gf2.solve"]
    searches = infos["localeq.standardize"]
    trials = sum(s["trials"] for s in searches)
    steps = sum(s["steps"] for s in searches)
    pools = [x["pool"] for x in infos["localeq.extant_coefficients"]]

    def per_input(*names):
        return sum(own[nm] for nm in names) / n

    def share(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix)) / wall

    top = sum(s[2] - s[1] for s in spans if s[3] is None)
    out = {
        "gf2.solve_s": per_input("_gf2.solve"),
        "gf2.solve_calls": calls["_gf2.solve"] / n,
        "gf2.rows_mean": _mean([x["rows"] for x in solves]),
        "gf2.unknowns_mean": _mean([x["unknowns"] for x in solves]),
        "gf2.row_bits": sum(x["rows"] * x["unknowns"] for x in solves) / n,
        "gf2.inconsistent_ratio": _mean([x["inconsistent"] for x in solves]),
        "localeq.trials": trials / n,
        "localeq.trials_per_step": trials / steps if steps else 0.0,
        "localeq.feasible_ratio": sum(s["feasible"] for s in searches) / trials if trials else 0.0,
        "localeq.standardize_self_s": per_input("localeq.standardize"),
        "localeq.extant_s": per_input("localeq.extant_coefficients"),
        "localeq.extant_pool": _mean(pools),
        "localeq.check_certificate_s": per_input("localeq.check_certificate"),
        "standard.realize_calls": calls["standard.realize"] / n,
        "standard.realize_s": per_input("standard.realize"),
        "standard.parse_spec_s": per_input("standard.parse_spec"),
        "complexes.paired_basis_s": per_input("complexes.paired_basis"),
        "complexes.paired_basis_calls_per_input": calls["complexes.paired_basis"] / n,
        "complexes.reduce_s": per_input("complexes.reduce"),
        "complexes.is_knotlike_s": per_input("complexes.is_knotlike"),
        "complexes.validate_s": per_input("complexes.validate"),
        "complexes.validate_fuv_s": per_input("complexes.validate_fuv"),
        "complexes.base_change_s": per_input("complexes.base_change"),
        "io_json.load_s": per_input("io_json.load_document", "io_json.document_to_complex"),
        "io_json.emit_s": per_input(
            "io_json.spec_to_document", "localeq.LocalMapCert.to_json", "io_json.dump_json"
        ),
        "invariants.report_s": per_input("invariants.report"),
        "cli.import_s": statistics.median(cli["import_s"]) if cli["import_s"] else 0.0,
        "share.search": share("localeq.") + share("_gf2."),
        "share.paired_basis_reduce": (own["complexes.paired_basis"] + own["complexes.reduce"]) / wall,
        "share.localeq": share("localeq."),
        "share.gf2": share("_gf2."),
        "share.complexes": share("complexes."),
        "share.standard": share("standard."),
        "share.io_json": share("io_json."),
        "share.invariants": share("invariants."),
        "share.untraced": (wall - top) / wall,
        "trace.overhead_ratio": overhead,
    }
    return {k: (v, {}) for k, v in out.items()}


def annotate(rows, spans):
    """Fill in each row's search trials and generators after ``reduce``."""
    by_id = {row["id"]: row for row in rows}
    for row in rows:
        row["trials"] = 0
    for name, _start, _end, _parent, iid, info in spans:
        row = by_id[iid]
        if name == "localeq.standardize":
            row["trials"] += info["trials"]
        elif name == "complexes.reduce" and row["gens_reduced"] is None:
            row["gens_reduced"] = info["gens_out"]


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# -- the CLI cold-start probe ------------------------------------------------------


class CliProbe:
    """Fresh ``gridring --json standardize`` processes on small documents.

    The shim records how long importing ``gridring.cli`` took, then hands
    over to ``gridring.cli.run``; the JSON it prints is checked against the
    known answer.  Each process's wall time is rescaled to the reference
    speed with the probes the shim ran (see ``cli_shim.py``).  Probes are
    spread over the run (``top_up`` after each pass), so that their median
    does not hang on one moment of a noisy machine.
    """

    def __init__(self, lib, corpus, seed, doc_dir):
        self.lib = lib
        self.cases = [c for c in corpus.inputs("batch-small", seed) if c.expect[0] == "spec"][:CLI_DOCS]
        for case in self.cases:
            case.id = "cli-" + case.id
        materialize(self.cases, doc_dir)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.out = {"wall": [], "raw_wall": [], "import_s": [], "failures": []}
        self.made = 0

    def top_up(self, count):
        """Run probes until ``count`` have been made."""
        out = self.out
        while self.made < count:
            case = self.cases[self.made % len(self.cases)]
            self.made += 1
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "cli_shim.py"), "--json", "standardize", case.path],
                capture_output=True, text=True, env=self.env, timeout=120,
            )
            wall = time.perf_counter() - t0
            out["raw_wall"].append(wall)
            want = self.lib.standard.format_spec(case.expect[1])
            try:
                got = json.loads(proc.stdout)["specText"]
                fields = dict(f.split("=") for f in proc.stderr.splitlines()[-1].split()[1:])
                out["import_s"].append(float(fields["cli.import_s"]))
                before, after = ([float(x) for x in fields[k].split(",")] for k in ("before", "after"))
                wall = rescale(wall, before, after)
            except (ValueError, KeyError, IndexError):
                got = None
            out["wall"].append(wall)
            if proc.returncode != 0 or got != want:
                out["failures"].append({"id": case.id, "code": proc.returncode, "got": got, "want": want})


# -- environment and output -------------------------------------------------------


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def benchmark_json():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class Run:
    """One run: set-up, passes over the inputs and the CLI probes.

    ``rows`` has one entry per input with its start, wall and CPU time per
    pass; with ``--trace 1`` each plain pass is followed by a traced one,
    whose spans (of the first traced pass) are kept in ``tracer``.
    """

    def __init__(self, args, doc_dir):
        self.lib, corpus, cases, self.setup_spans = setup(args.workload, args.seed, doc_dir)
        self.rows = [
            {
                "id": c.id, "shape": c.shape, "gens": c.gens, "gens_reduced": None, "spec_len": None,
                "start": [], "seconds": [], "cpu_s": [], "trials": None, "failure": None,
            }
            for c in cases
        ]
        self.attempted = self.failed = 0
        self.tracer = self.traced_walls = None
        self.plain_s = self.traced_s = 0.0
        probe = CliProbe(self.lib, corpus, args.seed, doc_dir)
        start = time.perf_counter()
        passes = 0
        while True:
            self._pass(cases, args.trace)
            passes += 1
            elapsed = time.perf_counter() - start
            probe.top_up(math.ceil(CLI_DOCS * min(1.0, elapsed / args.seconds)) if args.seconds > 0 else 0)
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > args.seconds:
                break
        probe.top_up(CLI_DOCS)
        self.cli = probe.out

    def _pass(self, cases, trace):
        outcomes = run_pass(self.lib, cases)
        rows = self.rows
        if trace:
            tracer = Tracer(self.lib)
            with tracer.installed():
                again = run_pass(self.lib, cases, tracer)
            self.plain_s += sum(o[1] for o in outcomes)
            self.traced_s += sum(o[1] for o in again)
            if self.tracer is None:
                self.tracer, self.traced_walls = tracer, [o[1] for o in again]
            outcomes = outcomes + again
            rows = rows + rows
        for row, (t0, wall, cpu, problem, result) in zip(rows, outcomes):
            row["start"].append(t0)
            row["seconds"].append(wall)
            row["cpu_s"].append(cpu)
            self.attempted += 1
            if problem:
                self.failed += 1
                row["failure"] = row["failure"] or problem
            elif result is not None:
                row["spec_len"] = len(result["spec"].params)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json at the repository root and exit",
    )
    args = ap.parse_args(argv)
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "gridring" / "__init__.py").is_file():
        sys.stderr.write("error: %s/gridring not found; run from a full checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    doc_dir = OUT / stem
    doc_dir.mkdir(parents=True, exist_ok=True)
    with Speedometer() as speed:
        run = Run(args, doc_dir)
    rows, cli, tracer = run.rows, run.cli, run.tracer
    attempted, failed = run.attempted, run.failed
    if args.trace:
        annotate(rows, tracer.spans)
        metrics = per_layer(tracer, sum(run.traced_walls), len(rows), run.traced_s / run.plain_s, cli)
        names = PER_LAYER
    else:
        for row in rows:
            row["seconds_at_ref"], row["cpu_s_at_ref"] = map(list, zip(*(
                speed.normalize(t0, t0 + wall, wall, cpu)
                for t0, wall, cpu in zip(row["start"], row["seconds"], row["cpu_s"])
            )))
        setup_times = [speed.normalize(t0, t1, t1 - t0)[0] for t0, t1 in run.setup_spans]
        metrics = end_to_end(rows, setup_times, cli["wall"])
        names = END_TO_END
    correct = failed == 0 and not cli["failures"]
    metrics["failed_ratio"] = (failed / attempted, {})
    shown = [(n, u) for n, u, *_ in names] + [(n, u) for n, u in REPORTED if n in metrics]

    for name, unit in shown:
        value, detail = metrics[name]
        print("%-40s %14.6g %-6s %s" % (name, value, unit, json.dumps(detail) if detail else ""))
    for r in rows:
        if r["failure"]:
            print("FAILED %s (%s): %s" % (r["id"], r["shape"], r["failure"]))
    for f in cli["failures"]:
        print("FAILED %s" % json.dumps(f))
    if args.trace:
        search, wide = metrics["share.search"][0], metrics["share.paired_basis_reduce"][0]
        print("dominant layer: %s (search %.1f%%, paired_basis+reduce %.1f%%)" % (
            "search" if search >= wide else "paired_basis+reduce", 100 * search, 100 * wide))

    report = {
        "args": vars(args),
        "environment": environment(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: dict(value=metrics[name][0], unit=unit, **metrics[name][1]) for name, unit in shown
        },
        "cli_probe": cli,
        "speed": {"reference_probe_s": REF_PROBE_S, "probes": list(zip(speed.starts, speed.durs))},
        "setup_spans": run.setup_spans,
        "rows": rows,
    }
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        with open(OUT / (stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                [s + [st] for s, st in zip(tracer.spans, self_times(tracer.spans))], fh
            )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit, *_ in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
