"""Pipeline benchmark for dialoglm.

Usage, from the repository root:

    python3 bench/run.py --workload {train,decode,topics} --seed N \
        --seconds S --trace {0,1}

Builds every input from ``dialoglm.synthetic`` at the seed, runs the CLI
pipeline in process (see pipeline.py), checks the outputs and prints one
line per metric, then a JSON summary as the last line of standard output.
With ``--trace 0`` the summary holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. A result
file with the environment record goes to ``.bench_results/``.
"""

import argparse
import json
import os
import shutil
import sys

# One BLAS thread: the numbers then depend on the code, not on how busy the
# machine's other cores are. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "decode", "topics"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dialoglm", "__init__.py")):
        print(f"error: no dialoglm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import pipeline

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}_{os.getpid()}")
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    try:
        result = pipeline.execute(workdir, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = result.pop("tracer")
    result["environment"] = pipeline.environment(ROOT, args.seed)
    correct = result["failed"] == 0
    result["correct"] = correct

    if args.trace:
        spans_path = os.path.join(results, f"{tag}_spans.jsonl.gz")
        tracer.write_jsonl_gz(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        reported = result["per_layer"]
    else:
        reported = result["end_to_end"]
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    for check in result["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['name']}: {check['detail']}")
    for call in result["calls"]:
        if not call["ok"]:
            print(f"call failed: {' '.join(call['argv'])}: rc={call['rc']} "
                  f"missing={call['missing']} {call['error'] or ''}")
    for name, value in reported.items():
        print(f"{name:45s} {value:16.6f} {pipeline.unit_of(name)}")
    print(f"{'ops_failed_frac':45s} {result['ops_failed_frac']:16.6f} ratio "
          f"({result['failed']} of {result['attempted']})")
    if args.trace:
        for w, share in result["dominant_share"].items():
            print(f"self-time share of the {w} layers: {share:.3f}")
    metrics = {name: {"value": value, "unit": pipeline.unit_of(name)}
               for name, value in reported.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
