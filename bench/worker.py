"""Runs the file workloads' passes in a process of its own.

    python3 bench/worker.py JOB.json

A round runs, for each stream in the job, one `cli.main` pass (argv and the
file its stdout goes to, with `{round}` filled in), and notes when each
stdout line was written, in seconds since the pass started. Rounds repeat
until the job's run length is used up, always ending on a whole round.
With `trace` set, every other round runs with spans installed, so traced
and untraced rates come from the same process and the same minutes. The
report (pass times, exit codes, line times, peak RSS) goes to the job's
`report`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import handgrasp.cli as cli
from live import peak_rss_kb
from spans import Tracer


class StampedOut:
    """Writes through to `out` and notes the time each line is completed."""

    def __init__(self, out, start: float):
        self.out, self.start, self.stamps = out, start, []

    def write(self, text: str) -> int:
        self.out.write(text)
        if "\n" in text:
            self.stamps.extend([time.perf_counter() - self.start] * text.count("\n"))
        return len(text)

    def flush(self) -> None:
        self.out.flush()


def cli_pass(spec: dict, number: int) -> dict:
    argv = [arg.replace("{round}", str(number)) for arg in spec["argv"]]
    with open(spec["stdout"].replace("{round}", str(number)), "w") as out:
        start = time.perf_counter()
        stamped = StampedOut(out, start)
        with contextlib.redirect_stdout(stamped):
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    return {"code": code, "seconds": seconds, "line_s": stamped.stamps}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = Tracer() if job["trace"] else None
    rounds = []
    deadline = time.perf_counter() + job["seconds"]
    while True:
        number = len(rounds)
        traced = tracer is not None and number % 2 == 0
        if traced:
            tracer.install()
        passes = [cli_pass(spec, number) for spec in job["passes"]]
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "passes": passes})
        whole = tracer is None or len(rounds) % 2 == 0
        if whole and time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.write(job["spans"])
    with open(job["report"], "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_kb": peak_rss_kb()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
