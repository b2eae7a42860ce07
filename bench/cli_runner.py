"""``trischmidt check FILE`` in a fresh process, with spans, for the traced run.

    python3 bench/cli_runner.py --spans OUT.json FILE   # traced check; report on stdout
    python3 bench/cli_runner.py --import-only           # print the import time of trischmidt

The traced form times ``import trischmidt``, installs the wrappers of
``spans.py``, calls ``cli.main(["check", FILE])`` and writes the import time
and the spans to OUT.json.  Its stdout and exit code are those of the CLI.
The caller puts trischmidt's sources on PYTHONPATH.
"""

import json
import sys
import time

from spans import Tracer


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import trischmidt  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start
    if argv == ["--import-only"]:
        print(repr(import_s))
        return 0
    if len(argv) != 3 or argv[0] != "--spans":
        print("usage: cli_runner.py --spans OUT.json FILE | --import-only", file=sys.stderr)
        return 64
    tracer = Tracer()
    tracer.install()
    from trischmidt import cli

    code = cli.main(["check", argv[2]])
    sys.stdout.flush()
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
