"""
How fast the uncertainty bound tightens
=======================================

The reported bound is distribution free: it depends only on stream
length, alphabet size, confidence level and the extension count N.  The
estimator weighs extensions exactly and draws none, so N is the sample
size the bound's sampling term assumes; by default it is large enough
for that term to vanish.  Print the curve for a binary and a 27-letter
alphabet.
"""

import numpy as np

from syncrate import bound_curve
from syncrate.estimator import default_sample_size

lengths = [int(n) for n in np.geomspace(1e5, 1e9, 9)]

for k in (2, 27):
    samples = default_sample_size(k)
    rows = bound_curve(k, 0.95, samples, None, lengths)
    print(f"alphabet size {k}, N = {samples} extensions")
    for n, bound in rows:
        print("  %12d  E = %.4f" % (n, bound))
