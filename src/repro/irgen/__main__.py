import os
import sys

from repro.irgen.cli import main

code = main()
# The process now holds the whole artifact, and freeing it object by
# object at interpreter exit takes a tenth of a second or more.  The
# artifact is durably written and nothing else is pending, so flush and
# leave without the teardown.
sys.stdout.flush()
sys.stderr.flush()
os._exit(code)
