"""Set-up cost of one CLI call: import mvspectra, then build the job's algebra.

Run in a fresh interpreter with src on the path:

    python3 perfbench/setup_probe.py INPUT.json

Prints the seconds from before the import to the built algebra.  The
algebra is built with validation off, as the check command does, so the
axiom scan is not part of set-up.
"""

import json
import sys
import time


def main(path):
    t0 = time.perf_counter()
    from mvspectra import algebra_from_json

    with open(path, encoding="utf-8") as fh:
        algebra_from_json(json.load(fh), validate=False)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
