"""Run the gridring command line in a fresh process, timing its import.

    PYTHONPATH=src python3 bench/cli_shim.py --json standardize DOC.json

takes the arguments of ``python3 -m gridring.cli`` and exits with its exit
code.  As its last line on standard error it writes
``bench cli.import_s=<seconds> before=<seconds>,... after=<seconds>,...``:
the import time of ``gridring.cli`` and the durations of the speed probes
(``probe.py``) run just before the import and just after the command, with
which the caller rescales the process's wall time to the reference speed.
"""

import sys
import time

from probe import probe_times

before = probe_times(10)
t0 = time.perf_counter()
import gridring.cli  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - t0
code = gridring.cli.run(sys.argv[1:])
after = probe_times(10)
sys.stderr.write("bench cli.import_s=%r before=%s after=%s\n" % (
    import_s, ",".join(map(repr, before)), ",".join(map(repr, after))))
sys.exit(code)
