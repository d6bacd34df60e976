"""Command line of the benchmark.

``python -m bench``                      every workload, end-to-end metrics
``python -m bench --trace``              every workload, per-layer metrics
``python -m bench --workload W --seed N --seconds S --trace 0|1``
                                         one run; its last output line is
                                         the run's result as one JSON object
``python -m bench compare PARENT.jsonl CHANGE.jsonl``
                                         a change against its parent

Exit status of a run: 0 when every output check passed, 1 when one
failed, 2 when the checkout has no ``src/repro`` to measure. ``compare``
documents its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import OUT, MissingSourceError, load_spec, use_repro


def _parser(spec: dict) -> argparse.ArgumentParser:
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names,
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int,
                   help="input seed (default: each workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="how long one run measures (default: %(default)s)")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                   help="report per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--out", type=Path, default=OUT,
                   help="directory for latest.json and the traces (default: bench/out)")
    p.add_argument("--force-fail", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--repeat-child", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare

        return compare(argv[1:])
    try:
        use_repro()
    except MissingSourceError as exc:
        print(f"bench: {exc}; run it from the root of a repository checkout",
              file=sys.stderr)
        return 2

    spec = load_spec()
    args = _parser(spec).parse_args(argv)
    from bench import run

    if args.repeat_child:
        # Imports repro itself, inside the set-up it times.
        doc = run.repeat(args.workload, args.seed, bool(args.trace), args.smoke,
                         args.force_fail, args.out)
        print(json.dumps(doc))
        return 0

    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    docs = []
    for name in names:
        seed = args.seed
        if seed is None:
            from bench.workloads import WORKLOADS

            seed = WORKLOADS[name].default_seed
        doc = run.run_workload(name, seed, args.seconds, args.out, bool(args.trace),
                               args.smoke, args.force_fail)
        run.print_report(doc)
        docs.append(doc)
    run.write_latest(docs, args.out)
    if args.workload:
        print(run.result_line(docs[0], bool(args.trace)))
    return 0 if all(d["correct"] for d in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
