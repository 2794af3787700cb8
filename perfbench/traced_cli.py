"""Run the trapnets CLI with spans around each layer's public functions.

Usage: python traced_cli.py SPANS_JSON <trapnets arguments...>

Prints exactly what ``python -m trapnets.cli <arguments>`` prints and exits
with the same code; the spans are written to SPANS_JSON at exit, also when
the call ends in an exception or is stopped with SIGTERM at its deadline.
"""

import signal
import sys
import traceback

from tracing import Tracer


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import trapnets.cli

    signal.signal(signal.SIGTERM, _stop)
    try:
        status = trapnets.cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except BaseException:
        traceback.print_exc()
        status = 1
    # Leaving the handler above released the frames of a failed call, so
    # the spans can be written even after a MemoryError.
    sys.stdout.flush()
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
