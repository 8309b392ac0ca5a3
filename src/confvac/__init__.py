"""Conformal accelerated frames of Minkowski spacetime and the invariance of
vacuum field correlations under them.

Modules
-------
minkowski     four-vector algebra, worldlines, kinematic states
conformal     conformal maps, scale factors, tetrads, light rays, Ricci check
kinematics    Abraham vector, motion classification, images of kinematic states
correlations  vacuum/thermal two-point functions and invariance checks
lightcone2d   2D light-cone maps, homographies, mirror scattering
suites        randomized verification sweeps
cli           batch front end (``confvac`` console script)
"""

from .conformal import (AcceleratedFrameForm, ConformalMap, Dilation, Inversion,
                        LightRay, LorentzTransform, Translation, apply_map, compose,
                        jacobian_tetrad, map_from_dict, map_to_dict, ricci_conformal,
                        transform_light_ray, verify_interval_law)
from .correlations import (SpectralPoint, em_potential_correlation,
                           minkowski_field_tensor_correlation,
                           momentum_space_oracle,
                           scalar_vacuum_correlation, tetrad_contraction,
                           thermal_spectra, transformed_em_correlation,
                           vacuum_spectra, verify_em_invariance,
                           verify_scalar_invariance)
from .errors import (BoundaryError, ConstraintViolationError, ConvergenceError,
                     InternalConsistencyError, PoleError, SingularPointError)
from .kinematics import (AbrahamVector, MotionClass, abraham_vector, classify_motion,
                         image_state, transform_abraham)
from .lightcone2d import (Homography2D, MirrorVerdict, RayMap2D, RayRule,
                          accelerated_frame_maps_2d, homography_compose, is_homographic,
                          mirror_scattering_map, schwarzian, vacuum_verdict)
from .minkowski import (ETA, SIGNATURE, HyperbolicWorldline, KinematicState,
                        SampledWorldline, as_event, interval, minkowski_dot,
                        rest_worldline)
from .suites import SuiteConfig, SuiteReport, run_suite

__version__ = "0.1.0"
