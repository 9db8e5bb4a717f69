"""Benchmark of the cyclomac command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cyclomac from the checkout's
src/.  Each op is one CLI command, `cyclomac.cli.main(argv)`, run in a fresh
child interpreter (opchild.py), one child at a time: a closed loop with one
client.  Every op starts with cold lru caches, as a user's invocation does.
A pass runs the workload's ops once; passes repeat while another one fits in
--seconds, and there is always at least one.  The seed draws the ops'
arguments; the program sees only the drawn argv.

An op fails when its exit code is not 0, when its stdout is not a JSON report
or reports a status other than "ok", or when the sha256 of its stdout differs
from the digest recorded for that argv in digests.json.

Times are rated at a fixed reference speed.  The host's vCPUs change speed
by up to 1.5x within seconds and drift over minutes, so a raw time says as
much about the host as about the program.  Each child times a fixed reference
kernel (opchild.kernel) while it runs, and an op's time is multiplied by
REFERENCE_KERNEL_S / (the kernel's mean time during that op); set-up times
likewise, by the kernel's time just after the import.  The raw times are in
the details line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass and
then traced passes of the same ops, with the package's public callables
wrapped in span recorders (spans.py), and prints the per-layer metrics and
the tracing overhead.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "opchild.py"
DIGESTS = HERE / "digests.json"

# Whole-run budget: the harness must have exited by 180 s.
HARD_LIMIT_S = 170.0
# Import-only children per run, so that setup_s is a median of many imports.
SETUP_PROBES = 10
# The reference speed: the kernel's typical time on the 2-vCPU x86-64 VM,
# Python 3.11, where the benchmark was defined.  It sets only the scale.
REFERENCE_KERNEL_S = 0.00025


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def op_time(record: dict) -> float:
    """An op's time at reference speed; a crashed op counts its elapsed time."""
    if "op_s" not in record:
        return record["elapsed_s"]
    return at_reference_speed(record["op_s"], record["op_kernel_s"])


def monomial(e: int) -> str:
    return "x" if e == 1 else f"x^{e}"


def symmetric_numerators(d: int) -> list[str]:
    """The admissible numerators for N >= 2 and phi(N) k = d, as the CLI
    prints them: x^r + x^(d-r) for 0 < r < d/2, then x^(d/2) when d is even."""
    out = [f"{monomial(r)} + {monomial(d - r)}" for r in range(1, (d + 1) // 2)
           if 2 * r != d]
    if d % 2 == 0:
        out.append(monomial(d // 2))
    return out


def _cli(*args) -> list[str]:
    return [str(a) for a in args] + ["--format", "json"]


def nested_ops(n: int, q: str) -> list[list[str]]:
    return [
        _cli("expand", "--N", n, "--k", 2, "--Q", q, "--t", 3, "--order", 200),
        _cli("expand", "--N", n, "--k", 2, "--Q", q, "--t", 3, "--weak",
             "--order", 200),
        _cli("verify", "--N", n, "--k", 2, "--Q", q, "--t", 3, "--order", 60),
    ]


# A workload is a list of slots.  Each slot lists alternative op groups (a
# group is a list of argv); the seed picks one group per slot, and a pass runs
# the picked groups in order.  Why each workload exists is recorded with it
# in BENCHMARK.json.
WORKLOADS: dict[str, list[list[list[list[str]]]]] = {
    # The everyday run: 71 small inputs at field levels <= 12 sharing
    # character caches, then the four reference cases.  Nothing to draw.
    "corpus_sweep": [
        [[_cli("sweep", "--max-N", 8, "--max-k", 4, "--degree-bound", 12,
               "--order", 60),
          _cli("examples", "--order", 100)]],
    ],
    # Rational series work only: nested brute force and the isobaric routes
    # at t = 3, with a closed form only at small N.  Every (N, k) runs every
    # command.  Each pool holds two numerators, and the seed picks one of two
    # complementary selections, so that every (N, Q) is in exactly one: their
    # passes cost within 2 % of each other, where independent draws per (N, k)
    # differed by 16 % (single ops differ by up to 2.8x).
    "nested_high_order": [
        [[argv for i, (n, phi) in enumerate(((3, 2), (4, 2), (6, 2)))
          for argv in nested_ops(n, symmetric_numerators(2 * phi)[(i + j) % 2])]
         for j in range(2)],
    ],
}


def drawable(workload: str) -> list[list[str]]:
    """Every argv that some seed can draw for the workload."""
    return [argv for slot in WORKLOADS[workload] for group in slot for argv in group]


# Per-layer metrics of a traced pass: (name, unit, better).  Names ending in
# .calls or .self_s come from spans, .hit_ratio from cache_info(), the rest
# from sizes the span observers recorded.
PER_LAYER = [
    ("cli.parse_polynomial.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("macmahon.brute_force.calls", "count", "lower"),
    ("macmahon.brute_force.self_s", "s", "lower"),
    ("macmahon.brute_force.max_coeff_bits", "bits", "lower"),
    ("macmahon.weight_series.calls", "count", "lower"),
    ("macmahon.weight_series.self_s", "s", "lower"),
    ("macmahon.evaluate_isobaric.self_s", "s", "lower"),
    ("macmahon.certify.calls", "count", "lower"),
    ("macmahon.certify.self_s", "s", "lower"),
    ("series.QSeries.mul.calls", "count", "lower"),
    ("series.QSeries.mul.self_s", "s", "lower"),
    ("series.QSeries.inverse.calls", "count", "lower"),
    ("series.QSeries.inverse.self_s", "s", "lower"),
    ("series.f_series.calls", "count", "lower"),
    ("series.f_series.self_s", "s", "lower"),
    ("series.g_constant.self_s", "s", "lower"),
    ("pfdform.closed_form.self_s", "s", "lower"),
    ("pfdform.closed_form.terms", "count", "lower"),
    ("pfdform.pfd_coefficients.self_s", "s", "lower"),
    ("pfdform.c_coefficients.self_s", "s", "lower"),
    ("pfdform.to_g_form.self_s", "s", "lower"),
    ("pfdform.ClosedForm.evaluate.calls", "count", "lower"),
    ("pfdform.ClosedForm.evaluate.self_s", "s", "lower"),
    ("pfdform.conjugate_relation_violations.self_s", "s", "lower"),
    ("chars.gauss_sum.calls", "count", "lower"),
    ("chars.gauss_sum.self_s", "s", "lower"),
    ("chars.enumerate_characters.calls", "count", "lower"),
    ("chars.enumerate_characters.hit_ratio", "ratio", "higher"),
    ("chars.primitive_character.self_s", "s", "lower"),
    ("comb.gen_bernoulli.calls", "count", "lower"),
    ("comb.gen_bernoulli.self_s", "s", "lower"),
    ("polynomial.Polynomial.call.self_s", "s", "lower"),
    ("polynomial.cyclotomic_polynomial.hit_ratio", "ratio", "higher"),
    ("field.CycNum.mul.calls", "count", "lower"),
    ("field.CycNum.mul.self_s", "s", "lower"),
    ("field.CycNum.inverse.calls", "count", "lower"),
    ("field.CycNum.inverse.self_s", "s", "lower"),
    ("field.coerce_pair.calls", "count", "lower"),
    ("field.max_level", "level", "lower"),
]
# Per-layer metrics of the traced run as a whole.
TRACE_RUN = [
    ("ops_failed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

END_TO_END = [
    ("wall_s", "s"),
    ("certs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def argv_key(argv: list[str]) -> str:
    return shlex.join(argv)


def draw(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(f"{workload}/{seed}")
    return [argv for slot in WORKLOADS[workload] for argv in rng.choice(slot)]


def child_env() -> dict:
    """The parent's environment with the knobs that change a run pinned:
    no CYCLOMAC_ORDER default, no PYTHONPATH, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("CYCLOMAC_ORDER", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, trace: bool, timeout: float) -> dict:
    """Run one op (or, with argv None, just the import) in a new interpreter."""
    spec = {"src": str(SRC), "argv": argv, "trace": trace}
    spec["spawned"] = start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(CHILD), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"elapsed_s": time.clock_gettime(time.CLOCK_MONOTONIC) - start,
                "crash": f"killed after {timeout:.0f} s"}
    elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"elapsed_s": elapsed,
                "crash": f"child exited {proc.returncode}: {' | '.join(tail)}"}
    result = json.loads(lines[-1])
    if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
        raise HarnessError(f"cyclomac imported from {result['module_file']}, "
                           f"not from {SRC}")
    result["elapsed_s"] = elapsed
    return result


def op_failures(result: dict, argv: list[str], digests: dict) -> list[str]:
    """Why an op counts as failed; empty when it passed the gate."""
    if "crash" in result:
        return [result["crash"]]
    reasons = []
    if result["rc"] != 0:
        reasons.append(f"exit code {result['rc']}")
    if not result["json"]:
        reasons.append("stdout is not a JSON report")
    elif result["status"] not in (None, "ok"):
        reasons.append(f"status {result['status']!r}")
    expected = digests.get(argv_key(argv))
    if expected is None:
        reasons.append("no digest recorded for this argv")
    elif expected != result["stdout_sha256"]:
        reasons.append("stdout differs from the recorded digest")
    return reasons


class Run:
    """One benchmark invocation: its clock, its children and their records."""

    def __init__(self, digests: dict, seconds: float):
        self.digests = digests
        self.seconds = seconds
        self.started = time.monotonic()
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.rss_kb: list[int] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def child(self, argv, trace: bool) -> dict:
        if self.remaining() < 1.0:
            return {"elapsed_s": 0.0, "crash": "not started: the run's time is spent"}
        result = run_child(argv, trace, self.remaining())
        if "setup_s" in result:
            self.setups.append(at_reference_speed(result["setup_s"],
                                                  result["setup_kernel_s"]))
            self.raw_setups.append(result["setup_s"])
            self.rss_kb.append(result["maxrss_kb"])
        return result

    def probe_setup(self) -> None:
        run_child(None, False, self.remaining())  # warm-up: bytecode, page cache
        for _ in range(SETUP_PROBES):
            self.child(None, False)
        if not self.setups:
            raise HarnessError("no child could import cyclomac.cli")

    def run_pass(self, ops, trace: bool) -> dict:
        started = time.monotonic()
        records = []
        for argv in ops:
            result = self.child(argv, trace)
            result["argv"] = argv
            result["failures"] = op_failures(result, argv, self.digests)
            records.append(result)
        wall = sum(op_time(r) for r in records)
        raw = sum(r.get("op_s", r["elapsed_s"]) for r in records)
        certs = sum(r.get("certs_matched", 0) for r in records if not r["failures"])
        return {"trace": trace, "records": records, "wall_s": wall, "raw_wall_s": raw,
                "certs": certs, "elapsed_s": time.monotonic() - started}

    def fits_another(self, passes) -> bool:
        longest = max(p["elapsed_s"] for p in passes)
        return time.monotonic() - self.started + longest <= self.seconds


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its ops."""
    calls, self_s, sizes = Counter(), Counter(), Counter()
    hits, misses = Counter(), Counter()
    for r in records:
        tr = r.get("trace")
        if tr is None:  # the op crashed; it is counted in ops_failed
            continue
        calls.update(tr["calls"])
        self_s.update(tr["self_s"])
        sizes.update(tr["totals"])
        for name, value in tr["maxima"].items():
            sizes[name] = max(sizes[name], value)
        for name, info in tr["caches"].items():
            hits[name] += info["hits"]
            misses[name] += info["misses"]
    out = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls[base]
        elif kind == "self_s":
            out[name] = self_s[base]
        elif kind == "hit_ratio":
            looked_up = hits[base] + misses[base]
            out[name] = hits[base] / looked_up if looked_up else 0.0
        else:
            out[name] = sizes[name]
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cyclomac").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def load_digests() -> dict:
    if not (SRC / "cyclomac" / "cli.py").is_file():
        raise HarnessError(f"no cyclomac sources under {SRC}")
    with open(DIGESTS) as fh:
        return json.load(fh)["digests"]


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (result, details)."""
    digests = load_digests()
    ops = draw(workload, seed)
    run = Run(digests, seconds)
    run.probe_setup()
    passes = [run.run_pass(ops, trace=False)]
    # A traced run measures one untraced pass, then at least one traced pass.
    while (trace and len(passes) == 1) or run.fits_another(passes):
        passes.append(run.run_pass(ops, trace))

    records = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in records if r["failures"])
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    traced_same = all(
        t["stdout_sha256"] == u["stdout_sha256"]
        for p in traced
        for t, u in zip(p["records"], untraced[0]["records"])
        if "crash" not in t and "crash" not in u
    )
    if trace:
        per_pass = [layer_metrics(p["records"]) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name, _, _ in PER_LAYER}
        values["ops_failed"] = failed
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - untraced[0]["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER + TRACE_RUN}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "certs_per_s": statistics.median(p["certs"] / p["wall_s"] for p in untraced),
            "setup_s": statistics.median(run.setups),
            "peak_rss_mb": max(run.rss_kb) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {
        "correct": failed == 0 and traced_same,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "cyclomac_file": records[0].get("module_file"),
        "setup_samples": len(run.setups),
        "raw_setup_s": statistics.median(run.raw_setups),
        "traced_digests_match": traced_same,
        "passes": [
            {
                "trace": p["trace"],
                "wall_s": p["wall_s"],
                "raw_wall_s": p["raw_wall_s"],
                "certs_matched": p["certs"],
                "ops": [
                    {"argv": argv_key(r["argv"]),
                     "op_s": op_time(r),
                     "raw_op_s": r.get("op_s"),
                     "kernel_samples": r.get("op_kernel_samples"),
                     "setup_s": r.get("setup_s"),
                     "certs": [r.get("certs_matched"), r.get("certs_total")],
                     "failures": r["failures"]}
                    for r in p["records"]
                ],
            }
            for p in passes
        ],
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for p in details["passes"]:
        for op in p["ops"]:
            if op["failures"]:
                print(f"perfbench: FAILED {op['argv']}: {'; '.join(op['failures'])}",
                      file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
