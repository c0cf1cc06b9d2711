"""Spawn entry of one benchmark fleet process.

Usage: ``node.py INDEX SPEC_JSON TRACE_FILE`` with ``PYTHONPATH`` naming
the program's ``src`` directory.  With a non-empty TRACE_FILE the span
wrappers are installed before :func:`repro.fleet.serve_process` runs,
and the spans are written there once the process has drained.
"""

import json
import sys

from repro.fleet import FleetSpec, serve_process


def main(argv: list[str]) -> int:
    index, spec = int(argv[1]), FleetSpec.from_dict(json.loads(argv[2]))
    trace_file = argv[3]
    tracer = None
    if trace_file:
        from spans import Tracer

        own = {
            FleetSpec.server_name(index).raw[:4].hex(),
            FleetSpec.router_metadata(index).name.raw[:4].hex(),
        }
        tracer = Tracer(f"server{index}", own)
        tracer.install_server()
    serve_process(index, spec)
    if tracer is not None:
        tracer.dump(trace_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
