"""Spawn the benchmark's child processes from a small process.

On Linux an exec'd child starts its peak-RSS record at the peak RSS of the
process that spawned it, so children spawned by the benchmark itself (which
holds numpy and scipy) would all report at least its size.  This process
imports neither and spawns them instead.

Protocol: one JSON request per stdin line, {"cmd", "stdout", "stderr"}; one
JSON reply per stdout line, {"seconds", "exit_code", "maxrss_kb"}, where
seconds runs from spawn to reaped exit.  Children inherit this process's
environment and working directory.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "exit_code": proc.returncode,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
