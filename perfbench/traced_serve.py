"""Run ``krad serve`` with the benchmark's timing wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS.json [serve flags...]``
with ``src`` on ``PYTHONPATH``.  The wrappers go in before the CLI's
``serve`` entry point runs; the spans stay in memory and are written to
``SPANS.json`` when the server exits after its drain.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install_service_layers()
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    with open(out, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
