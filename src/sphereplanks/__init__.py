"""Computational convex geometry on the unit sphere.

Covering bounds (sum of inradii), the sharp volume-inradius inequality,
polar duality, gnomonic projection, and weighted hyperplane measures, all
with seeded Monte Carlo verification.
"""

from .bodies import (BodyError, BodyMetrics, ConvexBody, Lune, circumradius,
                     contains, hyperplane_meets, inradius,
                     intersect_with_hemisphere, make_body, make_lune,
                     make_lune_from_angle, polar)
from .covering import (CoveringError, CoveringInstance, LuneFan,
                       check_covering, make_hemisphere_fan, make_lune_fan,
                       verify_antipodal_argument, verify_thm1)
from .gnomonic import (EuclideanPolytope, ProjectionFrame, WeightFunction,
                       check_projection_consistency, circumcenter_frame,
                       constant_weight, frame_at, hyperplane_param,
                       project_body, project_point, spherical_weight,
                       support_function, tabulated_weight, uf,
                       unproject_point)
from .linhart import (SimplexInBall, check_7_1, constant_C, make_simplex,
                      min_uf_search, normal_cone_membership, random_simplex,
                      regular_triangle, segment_simplex,
                      smallest_enclosing_ball, uf_lower_bound)
from .measure import (Estimate, VerificationReport, check_identity_2_1,
                      mean_width_mc, verify_thm2, volume_mc)
from .randgen import cap_polytope, octant_body, random_body, random_lune
from .sphere import (SphericalCap, cap_area, geodesic_distance, make_stream,
                     sample_uniform_cap, sample_uniform_sphere, sphere_area,
                     substreams)

__version__ = "0.1.0"
