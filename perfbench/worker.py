"""One benchmark process: set up, then run one boundaryvote command to its end.

Usage (started by run.py, which puts the checkout's src/ on PYTHONPATH):

    python3 perfbench/worker.py START_NS RESULT_JSON [--setup-only] [--trace SPANS_JSON] -- ARGV...

START_NS is CLOCK_MONOTONIC in nanoseconds, read by the parent just before
it started this process. Set-up ends once boundaryvote, numpy and scipy are
imported, ARGV is parsed and the command's regions are built. The command
then runs through `boundaryvote.cli.main(ARGV)`; its wall time ends when
main returns, after the output file is closed. RESULT_JSON receives setup_s,
wall_s, peak_rss_mb (this process's high-water resident set), the exit code
and, when traced, the per-layer metrics.
"""
import json
import resource
import sys
import time

from boundaryvote import cli, geometry


def build_regions(args):
    """Build the command's regions, as the command itself will."""
    if args.command == "sweep":
        return [geometry.region_xs() if name.strip().lower() == "xs" else geometry.region_xl()
                for name in args.regions.split(",")]
    return [geometry.build_comb(args.r, args.ell)]


def main():
    start_ns, result_path = int(sys.argv[1]), sys.argv[2]
    split = sys.argv.index("--")
    options, argv = sys.argv[3:split], sys.argv[split + 1:]
    args = cli.make_parser().parse_args(argv)
    build_regions(args)
    record = {"setup_s": (time.monotonic_ns() - start_ns) / 1e9}
    if "--setup-only" not in options:
        tracer = None
        if "--trace" in options:
            from layertrace import Tracer  # next to this file

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        record["exit_code"] = cli.main(argv)
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["layers"] = tracer.metrics(record["wall_s"])
            tracer.write_spans(options[options.index("--trace") + 1])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
