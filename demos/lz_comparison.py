"""
Head to head against incremental parsing
========================================

The non-synchronizable machine is the hard case: no finite word pins the
state exactly.  The derivative estimator still lands within a few
hundredths of the true rate while the parse-count baseline converges at
its usual glacial pace.
"""

from syncrate import EstimatorConfig, estimate_entropy_rate, lz78_entropy_estimate
from syncrate.pfsa import analytical_entropy_rate, simulate, two_state_nonsynchronizable

machine = two_state_nonsynchronizable()
truth = analytical_entropy_rate(machine)
stream = simulate(machine, 30_000, seed=0)

cfg = EstimatorConfig(
    epsilon=0.05,
    max_extension_length=8,
    min_count=200,
)

print("true rate %.6f" % truth)
print("%8s %12s %12s" % ("length", "estimator", "lz78"))
for n in (5_000, 10_000, 20_000, 30_000):
    prefix = stream.prefix(n)
    h = estimate_entropy_rate(prefix, cfg, collect_min_count=n // 5).entropy_rate
    lz = lz78_entropy_estimate(prefix)
    print("%8d %12.6f %12.6f" % (n, h, lz))
