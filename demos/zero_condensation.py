"""Where do the complex zeros of a restricted eigenfunction live?

For sin(N t) the answer is exact: 2N zeros, all on the real axis, evenly
spaced.  For a random wave the zeros of the analytic continuation
condense onto the real axis with density 2/pi per unit length as the
eigenvalue grows.  This script finds both zero sets and draws them.
"""

import numpy as np

import striplab as sl
from striplab.experiments import sine_spectrum
from striplab.svgplot import Figure

# -- the exact benchmark ----------------------------------------------------
N = 25
zs = sl.laurent_roots(sine_spectrum(N), tau_max=0.5)
print("sin(%dt): %d zeros (expected %d), max |tau| = %.2e"
      % (N, zs.count(), 2 * N, np.max(np.abs(zs.tau))))

# -- a random wave at increasing eigenvalue ---------------------------------
state = sl.torus_geodesic((1, 0))
fig = Figure("Zeros of continued restrictions", "t", "tau")
for lam, seed in [(60.0, 1), (240.0, 1)]:
    mode = sl.sample_random_wave(lam, 1.0, seed)
    spec = sl.exact_restriction_spectrum(mode, state)
    zset = sl.laurent_roots(spec, tau_max=0.25)
    # the box indicator's pairing (1/lambda) sum f(z) is count / lambda
    pairing = zset.count((0.0, 2 * np.pi, -0.25, 0.25)) / lam
    print("lambda=%4.0f: %3d zeros, pairing %.3f vs reference 2, "
          "near-axis fraction %.2f"
          % (lam, zset.count(), pairing, zset.real_axis_fraction(0.05)))
    fig.scatter(zset.t, zset.tau, label="lambda=%g" % lam)
fig.hline(0.0, label="real axis")

with open("zero_condensation.svg", "w") as fh:
    fh.write(fig.render())
print("wrote zero_condensation.svg")
