"""
Symbolic dynamics of a quadratic map
====================================

Iterate x <- 1 - r x^2 and record only the sign of each iterate.  Right
at r = 1.75 the orbit locks into a periodic window and the symbol stream
carries no information; a hair below, intermittent chaos returns and the
entropy rate jumps to a positive value.
"""

from syncrate import ChaoticMapConfig, EstimatorConfig, chaotic_stream, estimate_entropy_rate

cfg = EstimatorConfig(
    epsilon=0.05,
    max_extension_length=5,
    min_count=200,
)

for r in (1.7499, 1.75):
    stream = chaotic_stream(ChaoticMapConfig(r=r, n=100_000))
    report = estimate_entropy_rate(stream, cfg)
    ones = int(stream.data.sum())
    print("r = %.4f  ones fraction %.3f  estimated rate %.4f bits/symbol"
          % (r, ones / len(stream), report.entropy_rate))
