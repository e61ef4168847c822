"""One repetition of a workload, in a fresh interpreter with cold caches.

``run.py`` starts this script once per repetition and reads the JSON object
it prints as its last line.  The package is imported from the ``src``
directory of the checkout this file sits in, never from an installed copy.

    python3 perfbench/case_runner.py --workload q-sweep --seed 0 --launch T
    python3 perfbench/case_runner.py --workload q-sweep --record-digests

``--launch`` is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so set-up time covers interpreter start and
import.  The result also gives the start and end of the case list and of
each case as ``time.monotonic()`` readings, so the parent can line them up
with its speed probe.  With ``--trace 1`` the result carries the per-layer metrics and the
spans are written to ``out/spans-<workload>.tsv`` beside this file.
``--record-digests`` runs the workload at the default seed and stores the
digests of its reports, which every later run is checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
DIGEST_SEED = 0


def import_package():
    """Import spechtbranch.verify from this checkout's src directory."""
    sys.path.insert(0, str(SRC))
    from spechtbranch import verify

    if SRC not in Path(verify.__file__).resolve().parents:
        raise ImportError(f"spechtbranch was imported from {verify.__file__}, "
                          f"not from {SRC}")
    return verify


def report_digest(report, seed: int) -> str:
    """Digest of a report's non-timing content, with the run seed mapped to
    the seed the digests were recorded at."""
    content = report.to_dict()
    del content["millis"]
    if content["seed"] is not None:
        if content["seed"] != seed:
            return "seed-not-passed-through"
        content["seed"] = DIGEST_SEED
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_cases(verify, cases, seed: int, expected, tracer=None) -> dict:
    """Run the case list once; time it and check every report.

    expected holds one list of report digests per case.  A case that raises
    counts all its expected reports as failed, and the run goes on.
    """
    attempted = failed = 0
    failures = []
    case_s = []
    case_spans = []
    first = time.monotonic()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        want = expected[i] if i < len(expected) else []
        start = time.monotonic()
        try:
            reports = case.run(verify, seed)
        except Exception as exc:  # a raising verifier is a failed case
            case_spans.append((start, time.monotonic()))
            case_s.append(case_spans[-1][1] - start)
            attempted += max(len(want), 1)
            failed += max(len(want), 1)
            failures.append(f"{case.label}: raised {type(exc).__name__}: {exc}")
            continue
        case_spans.append((start, time.monotonic()))
        case_s.append(case_spans[-1][1] - start)
        attempted += max(len(reports), len(want))
        for j in range(max(len(reports), len(want))):
            report = reports[j] if j < len(reports) else None
            if report is None:
                failures.append(f"{case.label}: report {j} missing")
            elif not report.passed:
                failures.append(f"{case.label}: {report.case} failed")
            elif j >= len(want) or report_digest(report, seed) != want[j]:
                failures.append(f"{case.label}: {report.case} "
                                f"({report.field}, {report.direction}) "
                                f"does not match its recorded digest")
            else:
                continue
            failed += 1
    last = time.monotonic()
    return {
        "wall_s": last - first,
        "span": (first, last),
        "case_s": case_s,
        "case_spans": case_spans,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def record_digests(verify, name: str, cases):
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[name] = [[report_digest(r, DIGEST_SEED)
                      for r in case.run(verify, DIGEST_SEED)] for case in cases]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first verifier call would start")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    cases = WORKLOADS[args.workload]
    verify = import_package()
    ready = time.monotonic()
    setup_s = ready - args.launch if args.launch is not None else None
    if args.record_digests:
        record_digests(verify, args.workload, cases)
        return 0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = json.loads(DIGESTS.read_text()).get(args.workload, [])
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        result = run_cases(verify, cases, args.seed, expected, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
