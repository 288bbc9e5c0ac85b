"""Run one amg command with tracing on: amg_child.py SPANS_JSON ARGV...

The command runs through amg.cli.run inside a "cli.run" span; the span
totals are written to SPANS_JSON and the exit code is the command's.
"""

import sys

from tracing import Tracer

if __name__ == "__main__":
    import amg.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli.run", amg.cli.run, (sys.argv[2:],), {})
        sys.stdout.flush()
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
