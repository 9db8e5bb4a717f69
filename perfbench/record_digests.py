"""Record the stdout digest of every argv that any seed can draw.

    python3 perfbench/record_digests.py

Run it at the commit whose output is the reference: it rewrites digests.json,
which the benchmark's correctness gate compares every op against.  Every op
must exit 0 with status "ok".  It also checks that the numerator pools in
run.py are the admissible families cyclomac itself enumerates.
"""

import json
import sys

import run as harness


def check_pools() -> None:
    sys.path.insert(0, str(harness.SRC))
    from cyclomac.comb import euler_phi
    from cyclomac.pfdform import admissible_polynomials
    from cyclomac.polynomial import format_polynomial

    for n, k in ((3, 2), (4, 2), (6, 2)):
        ours = harness.symmetric_numerators(euler_phi(n) * k)
        theirs = [format_polynomial(q) for q in admissible_polynomials(n, k)]
        if ours != theirs:
            raise SystemExit(f"pool for N={n} k={k}: {ours} != {theirs}")


def main() -> None:
    check_pools()
    argvs = {harness.argv_key(a): a for w in harness.WORKLOADS
             for a in harness.drawable(w)}
    digests = {}
    for key in sorted(argvs):
        result = harness.run_child(argvs[key], trace=False, timeout=900)
        reasons = harness.op_failures(result, argvs[key], {key: None})
        reasons.remove("no digest recorded for this argv")
        if reasons:
            raise SystemExit(f"{key}: {'; '.join(reasons)}")
        digests[key] = result["stdout_sha256"]
        print(f"{result['op_s']:8.3f} s  {key}", file=sys.stderr, flush=True)
    with open(harness.DIGESTS, "w") as fh:
        json.dump({"git_commit": harness.git_commit(),
                   "source_sha256": harness.source_digest(),
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
