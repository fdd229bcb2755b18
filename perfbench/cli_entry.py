"""Traced ``riskengine`` command for the cli-mix workload.

Times ``import riskengine.cli``, installs the span wrappers, runs
``riskengine.cli.main(argv)``, restores the originals and writes the spans
as JSON for the benchmark process to merge.

Usage: python3 perfbench/cli_entry.py SPANS.json COMMAND [ARGS...]
"""

import json
import sys
import time

from tracer import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import riskengine.cli
    t1 = time.perf_counter()
    recorder = Recorder()
    recorder.add_span("cli.import", t0, t1, 0)
    recorder.install()
    try:
        code = riskengine.cli.main(argv)
    finally:
        recorder.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
