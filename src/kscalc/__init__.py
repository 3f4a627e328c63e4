"""Energy calculus for metric-valued maps on sampled metric measure spaces."""

__version__ = "0.1.0"

from .charts import (
    Atlas,
    Chart,
    alignment_defect,
    aplip_estimate,
    chart_audit,
    default_fit_radius,
    fit_metric_differential,
)
from .dirichlet import (
    DirichletProblem,
    SolveReport,
    discrete_energy,
    midpoint_test,
    poincare_estimate,
    relax_sweep,
    relaxation_energy,
    solve,
)
from .energy import (
    EnergyReport,
    FitConfig,
    MetricMap,
    contraction_check,
    density_extrapolated,
    density_via_mdiff,
    energy_sweep,
    hajlasz_gradient,
    hs_energy,
    ks_at_scale,
    ks_profile,
    locality_check,
    midpoint_scale_gap,
)
from .errors import AuditError, ConvergenceError, FitError, ValidationError
from .seminorms import (
    QuadratureSpec,
    Seminorm,
    ball_nodes,
    consistency_constant,
    hs_norm,
    op_norm,
    size_p,
    size_p_report,
    sn_distance,
    sn_distance_report,
)
from .spaces import (
    Ball,
    PartitionOfUnity,
    PointCloudSpace,
    ball,
    build_space,
    density_theta,
    doubling_constant,
    maximal_bound,
    maximal_function,
    partition_of_unity,
)
from .synth import Fixture, FixtureSpec, ReferenceMap, make_aligned_family, make_fixture
from .targets import (
    EuclideanTarget,
    GeodesicTarget,
    HyperbolicTarget,
    ProductTarget,
    SphereTarget,
    TreeTarget,
    barycenter,
    build_target,
    cat0_audit,
    kuratowski_embed,
)
