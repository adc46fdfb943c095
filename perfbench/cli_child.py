"""``python -m schwarzian.cli`` with spans: the traced cli workload runs
this in place of the module and reads its spans from $PERFBENCH_SPANS.

Usage: PERFBENCH_SPANS=out.npz python cli_child.py <subcommand> [flags]
"""

import os
import sys

import tracing


def main():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin(0)
    from schwarzian import cli

    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.save(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
