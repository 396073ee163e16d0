"""Run the dtaflow CLI with the benchmark's tracer installed.

    python3 bench/cli_traced.py TRACE_JSON dnl --network ... (CLI arguments)

Expects the package's src/ on PYTHONPATH. Writes the trace of the one
`dtaflow.cli.main` call to TRACE_JSON and exits with its return code.
"""

import sys

from tracing import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin("cli")
    import dtaflow.cli

    code = dtaflow.cli.main(argv)
    tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
