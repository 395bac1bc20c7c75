"""``python -m kquad`` with the benchmark's span wrappers installed.

    python3 perfbench/cli_traced.py SPANS_FILE <kquad arguments>

Runs ``kquad.cli.main`` on the arguments and writes the recorded spans to
SPANS_FILE when it returns.  Spans come from this process only; work done
in the pool workers of ``run --threads K`` shows up inside ``harness.run``.
"""

import sys

from spans import Recorder, installed

import kquad.cli


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.next_call()
    try:
        with installed(recorder):
            return kquad.cli.main(argv)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
