"""Known-answer calibration of the Wilson bounds behind the assurance verdicts.

``analysis.assurance.wilson_interval`` and ``wilson_lower_bound`` turn a
count of met assurances into the {ν, ρ} verdicts and the campaign's
confidence statements.  Their *coverage* — the probability, over
Binomial(n, p) outcomes, that the bound holds the true p — is a known
answer: it is the sum of the binomial pmf over the counts whose bound
covers p.  These tests compute it exactly (no sampling) on a grid and
compare it with the nominal confidence.

Chosen bounds, for n ∈ {30, 100, 300} and p ∈ [0.1, 0.9] in steps of
0.01, at nominal confidence 0.90 and 0.95:

* **mean coverage within ±0.01 of nominal.**  The Wilson score interval
  is close to exact on average (Brown, Cai & DasGupta 2001); the measured
  means lie within 0.005 of nominal.  A wrong quantile (say the one-sided
  z in the two-sided interval) moves the mean by about 0.05.
* **minimum coverage at least nominal − 0.05.**  Coverage oscillates with
  p because the count is discrete, and the Wilson interval dips below
  nominal at some p.  The measured worst case on this grid is 0.914 at
  0.95 (one-sided, n = 30) and 0.857 at 0.90 (one-sided, n = 30), so the
  floor leaves about 0.01 of margin where the dips are deepest.
"""

import math

import pytest

from repro.analysis.assurance import wilson_interval, wilson_lower_bound

SIZES = (30, 100, 300)
#: p from 0.1 to 0.9 in steps of 0.01 (81 points).
PROBABILITIES = [round(0.1 + 0.01 * i, 2) for i in range(81)]
#: Allowed distance of the mean coverage from nominal.
MEAN_TOLERANCE = 0.01
#: Allowed shortfall of the worst-case coverage below nominal.
MIN_SHORTFALL = 0.05


def _pmf(k: int, n: int, p: float) -> float:
    """Binomial(n, p) probability of exactly k successes (log space)."""
    log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
               + k * math.log(p) + (n - k) * math.log1p(-p))
    return math.exp(log_pmf)


def _coverage(covers, n: int, p: float) -> float:
    """Exact probability that the bound built from k ~ Binomial(n, p)
    covers p; ``covers(k, p)`` tells whether the bound from count k does."""
    return math.fsum(_pmf(k, n, p) for k in range(n + 1) if covers(k, p))


def _coverage_grid(bound_covers, confidence: float):
    out = []
    for n in SIZES:
        covers = bound_covers(n, confidence)
        out.extend(_coverage(covers, n, p) for p in PROBABILITIES)
    return out


def _two_sided(n, confidence):
    intervals = [wilson_interval(k, n, confidence) for k in range(n + 1)]
    return lambda k, p: intervals[k][0] <= p <= intervals[k][1]


def _one_sided(n, confidence):
    lows = [wilson_lower_bound(k, n, confidence) for k in range(n + 1)]
    return lambda k, p: lows[k] <= p


@pytest.mark.parametrize("confidence", [0.90, 0.95])
@pytest.mark.parametrize("bound", [_two_sided, _one_sided],
                         ids=["wilson_interval", "wilson_lower_bound"])
def test_wilson_coverage_is_nominal(bound, confidence):
    coverage = _coverage_grid(bound, confidence)
    mean = math.fsum(coverage) / len(coverage)
    assert abs(mean - confidence) <= MEAN_TOLERANCE, mean
    assert min(coverage) >= confidence - MIN_SHORTFALL, min(coverage)


def test_coverage_sum_is_exact_on_a_known_case():
    """The pmf sum itself: a bound that covers every count has coverage
    1, and one that covers only k = n has coverage p**n."""
    assert _coverage(lambda k, p: True, 30, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert _coverage(lambda k, p: k == 30, 30, 0.9) == pytest.approx(0.9 ** 30, rel=1e-9)
