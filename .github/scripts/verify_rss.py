"""Allpass test of a system file in bounded memory.

    python .github/scripts/verify_rss.py SYSTEM.json

Runs ``uniallpass verify SYSTEM.json`` in this process, prints the peak
resident set size to stderr, and exits non-zero when the command fails or
the peak exceeds 200 MB.
"""

import resource
import sys

from uniallpass.cli import main

code = main(["verify", sys.argv[1]])
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"peak RSS {peak_mb:.0f} MB", file=sys.stderr)
sys.exit(code or int(peak_mb > 200))
