"""Command-line front end: layout inspection, experiment runs, reports.

Datatype arguments are JSON files in one of two shapes: a constructor tree
(object with a "kind" key) or a catalog layout (object with an "id" key,
expanded through the layout builder).  Experiment runs write a bench CSV
and a verdict CSV into the output directory; the TYPEFORGE_OUT environment
variable overrides --out.

Exit codes: 0 success, 1 execution failure (an out-of-memory failure and
a description nested too deeply included), 2 usage error or inequivalent
layouts, 3 guideline violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional

from .bench import DEFAULT_SEED, read_stats_csv, write_raw_json, write_stats_csv
from .experiments import EXPERIMENT_IDS, make_plan, run_experiment
from .guidelines import write_verdicts_csv
from .layouts import BadParams, build, spec_from_json
from .normalizer import normalize
from .packer import ENGINES, pack
from .transport import TRANSPORTS
from .typecore import (
    CommittedType,
    Datatype,
    MalformedType,
    commit,
    datatype_from_json,
    datatype_to_json,
    equivalent,
    flatten,
    window,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3


def _load_described_type(path: str) -> tuple[Datatype, int]:
    """Read a JSON file holding either a constructor tree or a catalog
    layout; returns (datatype, natural count)."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise MalformedType(f"{path}: expected a JSON object")
    if "kind" in obj:
        return datatype_from_json(obj), 1
    if "id" in obj:
        built = build(spec_from_json(obj))
        return built.datatype, built.count
    raise MalformedType(f"{path}: neither a constructor tree (kind) nor a layout (id)")


def _seeded_region(ct: CommittedType, count: int, seed: int) -> bytearray:
    # `typeforge pack` prints the payload drawn here, so these bytes are
    # part of the CLI's output for a given --seed: this draw stays
    # `Generator.bytes`, not the harness's cheaper `bench._seeded_bytes`
    import numpy as np

    _, length = window(ct, count)
    rng = np.random.default_rng(seed)
    return bytearray(rng.bytes(length))


def cmd_flatten(args) -> int:
    t, natural = _load_described_type(args.spec)
    count = args.count if args.count is not None else natural
    layout = flatten(t, count)
    print(json.dumps([[int(o), int(l)] for o, l in layout.segments]))
    return EXIT_OK


def cmd_normalize(args) -> int:
    t, _ = _load_described_type(args.spec)
    report = normalize(t)
    print(json.dumps({
        "changed": report.changed,
        "passes": list(report.passes),
        "input_cost": report.input_cost,
        "output_cost": report.output_cost,
        "output": datatype_to_json(report.output),
    }))
    return EXIT_OK


def cmd_equiv(args) -> int:
    lhs_t, lhs_natural = _load_described_type(args.lhs)
    rhs_t, rhs_natural = _load_described_type(args.rhs)
    counts = args.count or []
    lhs_c = counts[0] if len(counts) > 0 else lhs_natural
    rhs_c = counts[1] if len(counts) > 1 else rhs_natural
    if equivalent(lhs_t, lhs_c, rhs_t, rhs_c):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_USAGE


def cmd_pack(args) -> int:
    t, natural = _load_described_type(args.spec)
    count = args.count if args.count is not None else natural
    ct = commit(t)
    region = _seeded_region(ct, count, args.seed)
    payload = pack(ct, count, region)
    print(json.dumps({
        "m_bytes": len(payload),
        "payload_hex": payload.hex(),
    }))
    return EXIT_OK


def cmd_run(args, clock: Optional[Callable[[], float]] = None) -> int:
    if args.parallel:
        print("error: --parallel is not supported; cases must run "
              "sequentially to avoid timing interference", file=sys.stderr)
        return EXIT_USAGE
    sizes = size_unit = None
    if args.n:
        sizes, size_unit = tuple(args.n), "elements"
    elif args.m:
        sizes, size_unit = tuple(args.m), "bytes"
    plan = make_plan(
        args.experiment,
        A_values=tuple(args.A) if args.A else None,
        sizes=sizes,
        size_unit=size_unit,
        variant=args.variant,
        engine=args.engine,
        transport=args.transport,
        r=args.r,
        nrep=args.nrep,
        threshold=args.threshold,
        seed=args.seed,
    )
    result = run_experiment(plan, clock=clock)

    out_dir = os.environ.get("TYPEFORGE_OUT") or args.out
    os.makedirs(out_dir, exist_ok=True)
    bench_path = os.path.join(out_dir, f"{plan.experiment}_bench.csv")
    verdict_path = os.path.join(out_dir, f"{plan.experiment}_verdicts.csv")
    write_stats_csv(bench_path, result.stats)
    write_verdicts_csv(verdict_path, result.verdicts)
    print(f"wrote {bench_path} ({len(result.stats)} rows)")
    print(f"wrote {verdict_path} ({len(result.verdicts)} rows)")
    if args.raw:
        raw_path = os.path.join(out_dir, f"{plan.experiment}_raw.json")
        write_raw_json(raw_path, result.stats)
        print(f"wrote {raw_path}")
    violations = [v for v in result.verdicts if v.violated]
    if violations:
        for v in violations:
            print(f"violation: {v.case.guideline} {v.case.lhs.case_id} "
                  f"vs {v.case.rhs.case_id} ratio {v.ratio:.4f} "
                  f"> {v.case.threshold:.2f}")
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_report(args) -> int:
    import csv

    rows = [row for path in args.csv for row in read_stats_csv(path)]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        a = int(row["A"]) if row.get("A") else 0
        m = int(row["m_bytes"])
        groups.setdefault((m, a), []).append(row)

    writer = csv.writer(sys.stdout)
    writer.writerow(["A", "m_bytes", "case_id", "variant", "engine", "transport",
                     "mean_s", "min_s", "max_s", "ratio_vs_ref"])
    for (m, a) in sorted(groups):
        members = groups[(m, a)]
        ref_mean = float(members[0]["mean_s"])
        for row in members:
            ratio = float(row["mean_s"]) / ref_mean if ref_mean > 0 else float("nan")
            writer.writerow([
                a, m, row["case_id"], row["variant"], row["engine"],
                row["transport"], row["mean_s"], row["min_s"], row["max_s"],
                f"{ratio:.6f}",
            ])
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="typeforge",
        description="derived-datatype layouts, pack engines and ping-pong benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flatten", help="print the byte segments of a described layout")
    p.add_argument("--spec", required=True, help="JSON datatype or layout file")
    p.add_argument("--count", type=int, default=None)

    p = sub.add_parser("normalize", help="rewrite a description and report the change")
    p.add_argument("--spec", required=True)

    p = sub.add_parser("equiv", help="compare two described layouts byte-for-byte")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--count", type=int, action="append",
                   help="instance count; give once for lhs, twice for lhs then rhs")

    p = sub.add_parser("pack", help="pack a seeded region and print the payload")
    p.add_argument("--spec", required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="region content seed")

    p = sub.add_parser("run", help="run one experiment and write CSV outputs")
    p.add_argument("--experiment", required=True, choices=EXPERIMENT_IDS)
    p.add_argument("--A", type=int, action="append", help="restrict the blocksize sweep")
    sizes = p.add_mutually_exclusive_group()
    sizes.add_argument("--n", type=int, action="append", help="element-count sizes to run")
    sizes.add_argument("--m", type=int, action="append", help="byte sizes to run")
    # defaults of None leave the plan's own
    p.add_argument("--variant", type=int, choices=(1, 2))
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--transport", choices=TRANSPORTS)
    p.add_argument("--threshold", type=float)
    p.add_argument("--r", type=int, help="independent runs per case")
    p.add_argument("--nrep", type=int, help="override the size-based repetition schedule")
    p.add_argument("--out", default=".", help="output directory (TYPEFORGE_OUT overrides)")
    p.add_argument("--raw", action="store_true", help="also write every sample as JSON")
    p.add_argument("--parallel", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help="region content seed")

    p = sub.add_parser("report", help="merge bench CSVs into a per-group ratio table")
    p.add_argument("csv", nargs="+", help="bench CSV files")

    return parser


def main(argv: Optional[list[str]] = None,
         clock: Optional[Callable[[], float]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "flatten":
            return cmd_flatten(args)
        if args.command == "normalize":
            return cmd_normalize(args)
        if args.command == "equiv":
            return cmd_equiv(args)
        if args.command == "pack":
            return cmd_pack(args)
        if args.command == "run":
            return cmd_run(args, clock=clock)
        if args.command == "report":
            return cmd_report(args)
    except (MalformedType, BadParams, FileNotFoundError, json.JSONDecodeError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        # a spec can describe far more bytes than the host holds
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return EXIT_FAILURE
    except RecursionError as exc:
        # a spec can nest deeper than the JSON decoder and the tree walks
        # recurse
        print(f"error: description nested too deeply: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
