"""Start one worker, wait for it, and record its exit code and peak memory.

    python3 -S launch.py USAGE_FILE PROGRAM ARGS...

A child's ``ru_maxrss`` starts from its parent's resident size at the exec, so
run.py, which holds the recorded answers, does not start workers itself:
this process, without site packages and with nothing imported, does, and the
figure is the worker's own.  stdin and stdout pass through to the worker.
USAGE_FILE receives "<exit code> <ru_maxrss in KiB>".
"""

import os
import sys

pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
