"""A traced ``qfpsim`` command-line process.

    python3 perfbench/cli_child.py <spans.json> <qfpsim arguments...>

Runs what ``python -m qfpsim.cli <arguments>`` runs, with a span around
the import of qfpsim.cli, a span around ``main`` and the wrappers of
:mod:`tracing` on qfpsim, then writes the spans and counters as JSON for
the parent run to merge.
"""

import json
import sys
from pathlib import Path

import machine
import tracing

machine.pin_blas_threads()


def main(argv):
    spans_path, args = Path(argv[0]), argv[1:]
    tracer = tracing.Tracer()
    idx = tracer.open("cli.import")
    import qfpsim.cli
    tracer.close(idx)
    undo = tracing.install(tracer)
    idx = tracer.open("cli.main")
    try:
        code = qfpsim.cli.main(args)
    finally:
        tracer.close(idx)
        tracing.uninstall(undo)
        tracer.end_op()
        spans_path.write_text(json.dumps({"spans": tracer.spans,
                                          "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
