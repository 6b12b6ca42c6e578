"""Run one ``selfnorm`` command in a fresh interpreter, as the console script would.

The package declares a ``selfnorm`` console script but has no ``__main__``,
and the repository is used uninstalled, so the benchmark starts every CLI
request through this file:

    python3 bench/launcher.py [--spans FILE] -- ci --stat mean series.txt

With ``--spans`` the calls into each selfnorm module are traced (see
spans.py) and the spans are written to FILE as JSON when the command ends.
The exit status is the command's.
"""

import os
import sys
import time

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans_path is None:
        from selfnorm.cli import main as cli_main

        return cli_main(argv)

    import json

    from spans import Tracer, install

    tracer = Tracer()
    try:
        with tracer.span("cli.import", start=T0):
            from selfnorm.cli import main as cli_main
        install(tracer)
        with tracer.span("cli.main"):
            return cli_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
