"""Complexified geodesics: isometry, path independence, return maps.

On the flat torus the complexified geodesic t + i tau -> x + (t + i tau) xi
embeds the strip isometrically: the Grauert tube function sqrt(rho) equals
|tau| exactly.  On a conformally perturbed torus the continuation must be
computed by integrating the complex geodesic equation, and holomorphy
shows up numerically as path independence of the result.
"""

import math

import numpy as np

import striplab as sl

# -- isometric embedding (exact identity, spot checked) ---------------------
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(2000):
    theta = rng.uniform(0, 2 * np.pi)
    st = sl.GeodesicState((rng.uniform(0, 2 * np.pi),
                           rng.uniform(0, 2 * np.pi)),
                          (math.cos(theta), math.sin(theta)))
    z = complex(rng.uniform(-10, 10), rng.uniform(-0.5, 0.5))
    zeta = sl.flat_complex_geodesic(st, z)
    worst = max(worst, abs(sl.flat_sqrt_rho(zeta) - abs(z.imag)))
print("sqrt(rho) = |tau| on 2000 random inputs, worst error %.1e" % worst)

# -- path independence on a perturbed torus ---------------------------------
pert = sl.SurfaceModel(perturbation=(((1, 0), 0.05, 0.0),))
st = sl.torus_geodesic((1, 0), (0.3, 0.4))
target = 1.0 + 0.1j
a = sl.integrate_complex_geodesic(pert, st, [0, 1.0, target], step=0.02)
b = sl.integrate_complex_geodesic(pert, st, [0, 0.1j, target], step=0.02)
print("perturbed torus, two paths to %s: endpoints differ by %.1e"
      % (target, float(np.max(np.abs(a - b)))))

# -- first returns to a horizontal section ----------------------------------
section = sl.HorizontalSection(0.0)
flat = sl.SurfaceModel()
print("first-return times vs 2 pi / |sin theta|:")
for theta in (np.pi / 2, np.pi / 6, 1.0):
    start = sl.GeodesicState((1.0, 0.0), (math.cos(theta), math.sin(theta)))
    rec = sl.first_return(flat, section, start, horizon=30.0, step=0.2)
    exact = 2 * np.pi / abs(math.sin(theta))
    print("  theta=%.3f: %.9f (exact %.9f)" % (theta, rec.time, exact))

# -- the asymmetry diagnostic -----------------------------------------------
# straight sections on the flat torus are reflection symmetric, so the
# Monte-Carlo symmetric fraction should be (close to) 1
report = sl.asymmetry_diagnostic(flat, section, samples=30, horizon=40.0)
print("flat-torus reflection symmetry: %.2f of %d tested states match"
      % (report["estimate"], report["tested"]))
