"""`handgrasp serve` with the benchmark's spans installed.

    python3 bench/traced_serve.py SPANS.jsonl serve --port 0 --scene ...

Times `import handgrasp.cli`, installs the same wrappers as the file
workloads, runs `cli.main` with the remaining arguments and, once the
server stops (SIGINT), writes the spans with the import time as header.
"""

from __future__ import annotations

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import handgrasp.cli as cli

    import_s = time.perf_counter() - start
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1], import_s=import_s)
    sys.exit(code)
