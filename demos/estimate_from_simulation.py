"""
Estimating the rate of a simulated stream
=========================================

Simulate the synchronizable two-state machine, then hand the raw symbol
stream to the estimator and compare its answer against the closed form.
"""

from syncrate import EstimatorConfig, estimate_entropy_rate
from syncrate.pfsa import analytical_entropy_rate, simulate, two_state_synchronizable

machine = two_state_synchronizable()
truth = analytical_entropy_rate(machine)

stream = simulate(machine, 30_000, seed=0)

cfg = EstimatorConfig(
    epsilon=0.05,
    alpha=0.95,
    max_extension_length=4,
    min_count=200,
)
report = estimate_entropy_rate(stream, cfg, collect_min_count=200, search_length=1)

print("true rate        %.6f" % truth)
print("estimated rate   %.6f" % report.entropy_rate)
print("absolute error   %.6f" % abs(report.entropy_rate - truth))
print("bound            %.6f at confidence %.2f" % (report.bound, report.alpha))
print("sync word        %r occurring %.1f%% of the time"
      % (report.sync_word, 100 * report.sync_frequency))
# every word x0·w seen more than min_count times is one term of the mean
print("words            %d" % report.cluster_count)

# The bound is loose at this stream length; the point is that the actual
# error sits far inside it.
assert abs(report.entropy_rate - truth) <= report.bound
