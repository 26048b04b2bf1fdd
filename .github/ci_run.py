"""Fresh-process runs for the workflow's measured steps.

``run(*argv, stdout=None)`` spawns ``argv`` as its own process, with its
standard output sent to the file ``stdout`` when one is named, waits for
it, asserts that it exited 0 and returns its wall time in seconds and its
max RSS in MB.  ``startup()`` runs the start of a computing command,
importing numpy and the CLI (a bare ``--version`` loads no numpy), so that
a bound can be set on what a command takes above it.
"""

import os
import time


def run(*argv, stdout=None):
    actions = []
    if stdout is not None:
        fd = os.open(stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1)]
    begin = time.monotonic()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    if stdout is not None:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - begin
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return wall, usage.ru_maxrss / 1024


def startup():
    return run("python", "-c", "import numpy, raschdesign.cli")
