#!/usr/bin/env python3
"""Run one workload of the invsemifft benchmark and print its metrics.

    python3 perfbench/run.py --workload rook6 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory.  One line per metric goes to standard output, then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones and writes the spans to .perfbench/ under the checkout.
Exit code 0 when every output check passed, 1 otherwise.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_bench():
    if not os.path.isfile(os.path.join(SRC, "invsemifft", "__init__.py")):
        sys.exit(f"run.py: no invsemifft source under {SRC}")
    sys.path.insert(0, SRC)
    import invsemifft
    if not os.path.abspath(invsemifft.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported invsemifft from {invsemifft.__file__}, "
                 f"not from {SRC}")
    import bench
    return bench


def main(argv=None) -> int:
    bench = _import_bench()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cold-setup", nargs=2, metavar=("FAMILY", "N"),
                    help="print one cold set-up's stage timings as JSON")
    args = ap.parse_args(argv)
    if args.cold_setup:
        family, n = args.cold_setup
        print(json.dumps(bench.cold_setup(family, int(n), args.seed)[2]))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    family, n = bench.WORKLOADS[args.workload]
    lines, result, spans = bench.run(family, n, args.seed, args.seconds,
                                     bool(args.trace))
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(spans, fh)
        lines.append(f"spans: {len(spans)} -> {path}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
