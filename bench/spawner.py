"""Runs the benchmark's child commands one at a time and reports their cost.

A child's ``ru_maxrss`` also counts the peak memory of the process that
spawned it (CPython spawns with vfork, and the kernel keeps the old
address space's high-water mark at exec). So the benchmark does not
spawn its commands itself: it starts this small process, whose own
high-water mark of about 10 MB is then the floor of a reported peak,
and sends it one JSON request per stdin line,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
and reads one JSON reply per stdout line,
``{"code": int, "wall": seconds, "maxrss_kb": int}``.
The process exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
