"""Time `import ergopt` in this fresh interpreter, between two runs of the
interpreter reference loop.

    python3 import_probe.py

Prints the import's wall time and the two loop times, in seconds.
"""

import time

from reference import interpreter_seconds

before = interpreter_seconds()
start = time.perf_counter()
import ergopt  # noqa: E402,F401
took = time.perf_counter() - start
print(took, before, interpreter_seconds())
