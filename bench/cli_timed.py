"""Run the dtaflow CLI while sampling the machine's speed.

    python3 bench/cli_timed.py SAMPLES_JSON dnl --network ... (CLI arguments)

Expects the package's src/ on PYTHONPATH. Writes the speed samples taken
during the `dtaflow.cli.main` call (see speed.py) to SAMPLES_JSON and exits
with its return code.
"""

import sys

import speed


def main() -> int:
    samples_file, argv = sys.argv[1], sys.argv[2:]
    meter = speed.Meter()
    meter.start()
    import dtaflow.cli

    code = dtaflow.cli.main(argv)
    meter.stop()
    meter.dump(samples_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
