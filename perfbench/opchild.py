"""Run one cyclomac CLI command in this fresh interpreter and report on it.

    python3 opchild.py SPEC

SPEC is a JSON object: "src" (the directory holding the cyclomac package),
"spawned" (CLOCK_MONOTONIC reading taken by the parent just before it started
this process), "argv" (the CLI arguments, or null to stop after the import)
and "trace" (wrap the package in span recorders first).  The command's stdout
is captured; one JSON line describing the op is printed instead.

The vCPU this runs on changes speed by up to 1.5x within seconds and drifts
over minutes, so the child also times a fixed reference kernel: right after
the import, and every SAMPLE_EVERY_S of wall time while the op runs (from a
SIGALRM handler, on the op's own thread).  The parent rescales the op's time
by the kernel's mean time, which tracks the speed the op ran at.  Kernel time
is taken out of the op's time and out of every span's self time.
"""

import hashlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.02
SETUP_SAMPLES = 20


def kernel() -> int:
    """Fixed interpreter work of the kinds cyclomac does: integer arithmetic,
    tuple keys into a dict and a few Fraction additions (about 0.25 ms)."""
    table = {}
    s = 0
    f = Fraction(0)
    for i in range(600):
        s = (s * 1000003 + i) % 998244353
        table[i & 31, s & 7] = s
        if i & 63 == 0:
            f += Fraction(s, i + 1)
    return s


class KernelClock:
    """Times runs of the reference kernel; `on_sample(seconds)` is told of
    each one, so that a span recorder can leave the time out."""

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        if self.on_sample is not None:
            self.on_sample(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def count_certificates(node) -> tuple[int, int]:
    """(matched, total) over every certificate object in a JSON report."""
    if isinstance(node, list):
        pairs = [count_certificates(v) for v in node]
    elif isinstance(node, dict):
        if "descriptor" in node and "match" in node:
            return int(node["match"] is True), 1
        pairs = [count_certificates(v) for v in node.values()]
    else:
        return 0, 0
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def run_op(cli, argv, trace: bool, setup_kernel_s: float) -> dict:
    """Call cli.main(argv) with stdout captured and describe the op.  An op
    too short to be sampled is rated at the kernel time of the set-up."""
    clock = KernelClock()
    if trace:
        import spans

        recorder = spans.Recorder()
        caches = spans.install(recorder)
        clock.on_sample = recorder.exclude
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    clock.start()
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        clock.stop()
        op_s = time.perf_counter() - start - sum(clock.samples)
        sys.stdout = real_stdout
    text = captured.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    matched, total = count_certificates(report)
    out = {
        "rc": rc,
        "op_s": op_s,
        "op_kernel_s": mean(clock.samples) if clock.samples else setup_kernel_s,
        "op_kernel_samples": len(clock.samples),
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "json": isinstance(report, dict),
        "status": report.get("status") if isinstance(report, dict) else None,
        "certs_matched": matched,
        "certs_total": total,
    }
    if trace:
        out["trace"] = {
            "calls": recorder.calls,
            "self_s": recorder.self_s,
            "maxima": recorder.maxima,
            "totals": recorder.totals,
            "caches": {
                name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
                for name, fn in caches.items()
            },
        }
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import cyclomac.cli

    result = {
        "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned"],
        "module_file": cyclomac.cli.__file__,
    }
    clock = KernelClock()
    for _ in range(SETUP_SAMPLES // 4):  # warm-up: specialise the bytecode
        kernel()
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    result["setup_kernel_s"] = mean(clock.samples)
    if spec["argv"] is not None:
        result.update(run_op(cyclomac.cli, spec["argv"], spec["trace"],
                             result["setup_kernel_s"]))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
