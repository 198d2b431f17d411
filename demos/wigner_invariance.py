"""Translation invariance of normalized Wigner densities.

|U|^2 is the squared modulus of the continued restriction on one strip
line, normalized to unit mass.  Pairing it with a shifted symbol should
give the same answer as with the unshifted one in the high-frequency
limit; the gap between the two pairings is the invariance defect.  A
single-frequency mode has constant |U|^2 and a zero gap identically; a
random-wave ensemble shows the gap shrinking with lambda at the
semiclassical height tau = 0.5 / lambda.
"""

import numpy as np

import striplab as sl

# exact invariance for one frequency
spec1 = sl.OrbitalSpectrum(40.0, 2 * np.pi, {40: 0.3 + 0.4j})
iv = sl.Interval(0.0, 2 * np.pi)
gap, _ = sl.translation_invariance_stat(
    spec1, 0.1, iv, sl.GaussianSymbol(iv.mid - 0.25, 0.5), 0.5)
print("single frequency: gap = %.2e (exactly invariant)" % gap)

# ensemble decay along the diagonal geodesic (period 2 pi sqrt 2 leaves
# room for a width-1 symbol plus the shift), with artifacts on disk
rec = sl.run_experiment({
    "experiment": "wigner", "lambdas": [100, 200, 400],
    "seeds": list(range(20)), "geodesic": {"q": [1, 1]},
    "surface": {"kind": "RandomWaveTorus", "delta": 1.0}})
sl.write_results(rec, "wigner-results")
for lam, gap in rec.aggregate["mean_gap_by_lambda"].items():
    print("lambda=%4.0f: mean gap %.4f  (20 seeds)" % (float(lam), gap))
print("-> wigner-results/")
