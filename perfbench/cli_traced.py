"""Run the sphere-twobody CLI with tracing, for cli_cold's traced run.

    python perfbench/cli_traced.py TRACE_FILE ARG...

behaves like ``python -m sphere_twobody.cli ARG...`` (same stdout, stderr
and exit code) and also writes TRACE_FILE: the import time and module counts
of ``sphere_twobody.cli``, the traced call statistics and the spans.
The package must be importable (src/ on PYTHONPATH).
"""

import sys
import time

before = set(sys.modules)
start = time.perf_counter()
import sphere_twobody.cli as cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start
loaded = set(sys.modules) - before

import json  # noqa: E402

from tracing import Tracer  # noqa: E402


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(with_cli=True)
    tracer.op_id = 0
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        doc = {
            "import": {"import_s": import_s, "modules": len(loaded),
                       "scipy_modules": sum(1 for m in loaded
                                            if m == "scipy" or m.startswith("scipy."))},
            "state": tracer.state(),
            "spans": tracer.spans,
        }
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
