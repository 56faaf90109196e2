"""
How fast the uncertainty bound tightens
=======================================

The reported bound is distribution free: it depends only on stream
length, alphabet size and confidence level.  The estimator weighs
extensions exactly and draws none, so no sampling term enters it.  Print
the curve for a binary and a 27-letter alphabet.
"""

import numpy as np

from syncrate import bound_curve

lengths = [int(n) for n in np.geomspace(1e5, 1e9, 9)]

for k in (2, 27):
    rows = bound_curve(k, 0.95, None, None, lengths)
    print(f"alphabet size {k}")
    for n, bound in rows:
        print("  %12d  E = %.4f" % (n, bound))
