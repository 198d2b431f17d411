"""Complexified geodesics: isometry, path independence, return maps.

On the flat torus the complexified geodesic t + i tau -> x + (t + i tau) xi
embeds the strip isometrically: the Grauert tube function sqrt(rho) equals
|tau| exactly.  On a conformally perturbed torus the continuation must be
computed by integrating the complex geodesic equation, and holomorphy
shows up numerically as path independence of the result.
"""

import striplab as sl

# -- the geometry experiment ------------------------------------------------
# sqrt(rho) = |tau| on random complexified geodesics of the flat torus,
# path independence of the complex geodesic on a perturbed torus, and
# first-return times 2 pi / |sin theta| to a horizontal section
rec = sl.run_experiment({"experiment": "geometry", "samples": 2000})
for key, value in rec.aggregate.items():
    print("%s: %.3g" % (key, value))
print("geometry checks %s" % ("pass" if rec.passed else "FAIL"))

# -- the asymmetry diagnostic -----------------------------------------------
# straight sections on the flat torus are reflection symmetric, so the
# Monte-Carlo symmetric fraction should be (close to) 1
flat, section = sl.SurfaceModel(), sl.HorizontalSection(0.0)
report = sl.asymmetry_diagnostic(flat, section, samples=30, horizon=40.0)
print("flat-torus reflection symmetry: %.2f of %d tested states match"
      % (report["estimate"], report["tested"]))
