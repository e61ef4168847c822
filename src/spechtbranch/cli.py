"""Command line front end.

Examples:
    spechtbranch minpoly --lambda 5,2 --field 3 --direction restrict
    spechtbranch branching --lambda 6,1,1,1 --field 2 --direction restrict
    spechtbranch counterexamples --json report.json
    spechtbranch sweep --n-max 4 --fields 0,3

Exit codes:
    0  every expectation was met
    1  a check failed
    2  the invocation was rejected: bad arguments or a guardrail
       (ValueError), or the --json report could not be written (OSError)
    3  the run could not decide or failed internally: an undecided
       certificate, an internal consistency check that did not hold
       (ArithmeticError), or any other exception, a bug, whose traceback
       is printed to stderr
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import verify
from .central import INDUCE, RESTRICT, block_split, branching_factors
from .endo import decompose
from .fields import FieldSpec
from .modules import build_induction, build_restriction, build_specht
from .partitions import Partition
from .verify import VerificationReport


def _partition(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _field(text: str) -> FieldSpec:
    try:
        return FieldSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build(lam: Partition, field: FieldSpec, direction: str | None):
    if direction == RESTRICT:
        return build_restriction(lam, field)
    if direction == INDUCE:
        return build_induction(lam, field)
    return build_specht(lam, field)


def _cmd_minpoly(args) -> tuple[list, dict | None]:
    return [verify.verify_min_poly(args.lam, args.field, args.direction)], None


def _cmd_en_scalar(args) -> tuple[list, dict | None]:
    return [verify.verify_en_scalar(args.lam, args.field)], None


def _cmd_coeff_lemma(args) -> tuple[list, dict | None]:
    reports = []
    if args.direction in (None, RESTRICT):
        reports.append(verify.verify_coefficient_restriction(args.lam, args.field))
    if args.direction in (None, INDUCE):
        reports.append(verify.verify_coefficient_induction(args.lam, args.field))
    return reports, None


def _cmd_branching(args) -> tuple[list, dict | None]:
    p = args.field.characteristic
    return [verify.verify_branching(args.lam, p, args.direction)], None


def _cmd_counterexamples(args) -> tuple[list, dict | None]:
    return [verify.run_char2_counterexamples()], None


def _cmd_blocks(args) -> tuple[list, dict | None]:
    module = _build(args.lam, args.field, args.direction)
    factors = branching_factors(args.lam, args.direction)
    components = block_split(module, factors)
    report = VerificationReport(f"blocks ({args.lam})", str(args.field), args.direction)
    report.add("component-count", len(components), len(components), True)
    for comp in components:
        shapes = " + ".join(f"({mu})" for mu in comp.factors)
        report.add(f"core ({comp.core})", f"{shapes} -> dim {comp.expected_dim}",
                   f"dim {comp.dim}", comp.dim == comp.expected_dim)
    return [report], None


def _cmd_decompose(args) -> tuple[list, dict | None]:
    module = _build(args.lam, args.field, args.direction)
    parts = decompose(module)
    what = {RESTRICT: "restriction", INDUCE: "induction"}.get(args.direction, "module")
    report = VerificationReport(f"decompose {what} ({args.lam})", str(args.field),
                                args.direction)
    report.add("summand-count", len(parts), len(parts), True)
    for i, (summand, cert) in enumerate(parts):
        report.add(f"summand[{i}]", "indecomposable, deterministic certificate",
                   f"dim {summand.dim}: {cert.verdict} via {cert.branch}",
                   cert.verdict in ("indecomposable", "zero") and cert.deterministic)
    return [report], None


def _cmd_sweep(args) -> tuple[list, dict | None]:
    fields = [int(x) for x in args.fields.split(",") if x.strip() != ""]
    directions = [x.strip() for x in args.directions.split(",") if x.strip()]
    result = verify.sweep(args.n_max, fields, directions, seed=args.seed,
                          only=args.lam or None)
    reports = result.pop("reports")
    return reports, result


def _common(sub, lam=True, field=True, direction="required"):
    if lam:
        sub.add_argument("--lambda", dest="lam", type=_partition, required=True,
                         metavar="PARTS", help="partition, e.g. 6,1,1,1")
    if field:
        sub.add_argument("--field", type=_field, default=FieldSpec.parse("0"),
                         metavar="P", help="0 for the rationals, else a prime")
    if direction == "required":
        sub.add_argument("--direction", choices=[RESTRICT, INDUCE], required=True)
    elif direction == "optional":
        sub.add_argument("--direction", choices=[RESTRICT, INDUCE], default=None)
    sub.add_argument("--json", dest="json_path", metavar="PATH",
                     help="write the report as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spechtbranch",
        description="Exact checks on Specht module restriction and induction.")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("minpoly", help="minimal polynomial of the "
                          "transposition sum on the restriction or induction")
    _common(sub)
    sub.set_defaults(handler=_cmd_minpoly)

    sub = subs.add_parser("en-scalar", help="scalar action of the full "
                          "transposition sum on a Specht module")
    _common(sub, direction=None)
    sub.set_defaults(handler=_cmd_en_scalar)

    sub = subs.add_parser("coeff-lemma", help="coefficient patterns of Murphy "
                          "element powers on polytabloids")
    _common(sub, direction="optional")
    sub.set_defaults(handler=_cmd_coeff_lemma)

    sub = subs.add_parser("branching", help="block components of the branching "
                          "module and their indecomposability certificates")
    _common(sub)
    sub.set_defaults(handler=_cmd_branching)

    sub = subs.add_parser("counterexamples", help="the characteristic-2 "
                          "decomposable cases")
    _common(sub, lam=False, field=False, direction=None)
    sub.set_defaults(handler=_cmd_counterexamples)

    sub = subs.add_parser("blocks", help="list block components without "
                          "certifying them")
    _common(sub)
    sub.set_defaults(handler=_cmd_blocks)

    sub = subs.add_parser("decompose", help="split a module into indecomposable "
                          "summands")
    _common(sub, direction="optional")
    sub.set_defaults(handler=_cmd_decompose)

    sub = subs.add_parser("sweep", help="run every verifier over all "
                          "partitions up to a size")
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--fields", default="0,3",
                     help="comma separated characteristics, e.g. 0,2,3,5")
    sub.add_argument("--directions", default=f"{RESTRICT},{INDUCE}")
    sub.add_argument("--lambda", dest="lam", type=_partition, action="append",
                     metavar="PARTS", help="restrict the sweep to these "
                     "partitions (repeatable)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", dest="json_path", metavar="PATH")
    sub.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reports, extra = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"undecided or internal failure: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3

    for report in reports:
        if len(reports) > 6 and report.passed:
            print(f"[PASS] {report.case} (field {report.field}"
                  + (f", {report.direction}" if report.direction else "")
                  + f") {report.millis} ms")
        else:
            print(report.summary())
    failures = sum(1 for r in reports if not r.passed)
    if extra is not None:
        print(f"{len(reports)} cases, {failures} failures")

    if args.json_path:
        payload: object = [r.to_dict() for r in reports]
        if len(reports) == 1 and extra is None:
            payload = reports[0].to_dict()
        if extra is not None:
            payload = {**extra, "reports": [r.to_dict() for r in reports]}
        try:
            with open(args.json_path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2

    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
