"""``rolp-bench serve`` with the span wrappers and the stack sampler
installed (the serve workload's traced pass).  When the server stops it
writes the layer totals to ``--stats-out`` and the spans as a Chrome
trace to ``--trace-out``.

    PYTHONPATH=src python3 perfbench/serve_child.py --stats-out s.json \\
        --trace-out t.json -- serve --jobs 1 --no-cache --port 0
"""

from __future__ import annotations

import argparse
import json
import sys

from tracing import Tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from repro.bench import cli

    tracing = Tracing()
    tracing.install()
    tracing.install_server()
    tracing.start_sampler()
    try:
        code = cli.main(cli_args)
    finally:
        tracing.stop_sampler()
        tracing.uninstall()
    stats = {
        "layers": tracing.layer_metrics(),
        "runner": tracing.runners[0].stats.as_dict(),
        "handle": tracing.handle_spans(),
        "queue_waits": tracing.queue_waits,
        "batch_sizes": tracing.batch_sizes,
    }
    tracing.write_chrome(args.trace_out)
    with open(args.stats_out, "w") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
