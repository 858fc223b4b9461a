"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON SPANS_JSONL|- [CLI ARGS...]

Imports ``twinbeam_transfer.cli`` from the checkout's ``src`` and notes the
monotonic time when the import is done (the parent subtracts its spawn time
to get the set-up time). With CLI arguments it then times
``cli.main(argv)``; with SPANS_JSONL other than ``-`` the package's public
functions are traced first and the spans written there. Without CLI
arguments it only measures the import. RESULT_JSON receives the import
time, the exit code, the wall time and this process's peak RSS.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from twinbeam_transfer import cli  # noqa: E402

READY = time.monotonic()


def main() -> int:
    import json
    import resource

    result_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    record = {"ready": READY}
    if argv:
        entry, tracer = cli.main, None
        if spans_path != "-":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            entry = tracer.wrap("cli.main", cli.main)
        start = time.perf_counter()
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        record["wall_s"] = time.perf_counter() - start
        record["exit_code"] = code
        if tracer is not None:
            tracer.dump(spans_path)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
