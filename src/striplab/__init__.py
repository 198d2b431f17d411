"""striplab: complexified eigenfunction restrictions along geodesics.

Builds restrictions of model-surface eigenmodes to geodesics, continues
them into complex strips, finds their zeros, and measures the growth,
band-mass and Wigner-invariance statistics that govern how the zeros
condense onto the real geodesic at high frequency.
"""

__version__ = "0.1.0"

from . import errors
from .surfaces import (Eigenmode, GeodesicState, SurfaceModel,
                       annulus_lattice_points, make_torus_mode,
                       sample_random_wave, torus_geodesic)
from .geodesics import (HorizontalSection, ReturnRecord,
                        asymmetry_diagnostic, first_return,
                        flat_complex_geodesic, flat_sqrt_rho,
                        integrate_complex_geodesic, reflect_state)
from .fourier import (OrbitalSpectrum, RestrictionSamples,
                      WindowedSpectrum, band_mass,
                      exact_restriction_spectrum, plancherel_check,
                      sample_arc, sphere_equator_spectrum,
                      windowed_transform)
from .growth import (GrowthProfile, Strip, check_growth_bound,
                     continue_periodic_grid, continue_windowed, growth_profile,
                     l2_growth_exponent, select_window, sup_growth_exponent,
                     tempered_weyl_sum)
from .zeros import (ZeroSet, argument_principle_count, laurent_roots,
                    lelong_box_integral, lelong_density)
from .wigner import (BandCutoff, GaussianSymbol, Interval, WignerDensity,
                     normalized_pullback, qer_matrix_element,
                     translation_invariance_stat, wigner_pairing)
from .experiments import (ResultRecord, emit_plots, run_experiment,
                          sine_spectrum, validate_config, write_results)
