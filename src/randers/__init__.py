"""Randers-metric travel-time workbench.

Forward problem: build the least-time norm of a moving medium (Zermelo
navigation), trace its geodesics, and assemble non-symmetric boundary
travel-time matrices.  Inverse problem: split the data into the reversible
part and the 1-form line integrals, recover the boundary potential linking
two gauge-equivalent scenarios, and invert radial sound-speed profiles.
"""

from .boundary import (BoundaryDistanceData, BoundarySamples, add_noise,
                       decompose, distance_matrix, load, sample_boundary, save)
from .config import Scenario, build_scenario, emit_config, parse_config
from .errors import (ConfigError, ConnectivityError, ConvexityError,
                     CsvFormatError, DegenerateInputError, DomainError,
                     InvalidMediumError, InvalidNormError, NonAdmissibleError,
                     RandersError, RecoveryError, SpecMismatchError,
                     TrappedGeodesicError, TriplicationError)
from .fields import (ComponentForm, ConformalMetric, ConstantField,
                     ConstantForm, Domain, EuclideanMetric,
                     ExactForm, ExprField, PotentialBump, RadialProfile,
                     RotationalForm, ScaledForm, SumForm, ZeroForm,
                     circle_directions, disk_grid)
from .geodesics import (GeodesicPath, ReversalReport, ShootingResult,
                        SolverOptions, integrate_geodesic, polyline_hausdorff,
                        reversed_geodesic_check, shoot_pairs, solve_bvp, spray)
from .norms import (LengthParts, RandersSpec, ValidityReport,
                    closedness_residual, curve_length, dual_norm,
                    fundamental_tensor, reverse_norm, riemannian_norm,
                    validate_norm)
from .recovery import (GaugeReport, PotentialRecovery, ProfileRecovery,
                       RecoveryReport, herglotz_invert,
                       recover_beta_integrals, recover_boundary_potential,
                       recover_symmetric_data, rigidity_report, verify_gauge)
from .zermelo import (HerglotzReport, MediumModel, conformal_specialize,
                      herglotz_check, linearize, travel_time_consistency,
                      zermelo_construct)

__version__ = "0.1.0"
