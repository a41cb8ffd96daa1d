"""Exact-arithmetic toolkit for rational H-polyhedra: vertex enumeration by
basis pivoting, normal-fan triangulations, subdeterminant statistics,
diameter certificates, the barycentric-subdivision generator family, and an
exact integer-point count."""

from .counting import (
    CountReport,
    count_integer_points_bruteforce,
    estimate_counting_cost,
)
from .errors import (
    BoundViolated,
    BudgetExceeded,
    DeltahullError,
    DimensionMismatch,
    DisconnectedGraph,
    DuplicateRow,
    EmptyAlphaInterval,
    Infeasible,
    InfeasiblePoint,
    NotAVertex,
    NotPointed,
    ParseError,
    RankDeficient,
    SingularBasis,
    SingularMatrix,
    SingularUpdate,
    Unbounded,
    UnboundedLine,
)
from .graphs import build_polytope_graph, graph_diameter
from .hull import (
    EnumerationResult,
    OracleEnumeration,
    Triangulation,
    WorkCounters,
    enumerate_all_bases_oracle,
    enumerate_vertices,
    pivot_neighbors,
    redundant_rows,
    run_enumeration,
    triangulate_normal_cone,
)
from .model import (
    HPolyhedron,
    Point,
    VertexRecord,
    basis_vertex,
    find_initial_vertex,
    is_feasible_basis,
    make_polyhedron,
    phase_one,
    rational_point,
    redundancy_scan,
    strict_interior_point,
    tight_set,
)
from .serialize import (
    InstanceDocument,
    canonical_dumps,
    dump_fan,
    dump_instance,
    load_instance_csv,
    load_instance_json,
    load_instance_path,
    parse_json,
    parse_point,
    parse_rational,
    rational_str,
)
from .stats import (
    BoundReport,
    DistanceCertificate,
    FanStats,
    WidenessReport,
    check_diameter,
    check_fan_bounds,
    delta_max,
    triangulation_stats,
    unit_ball_volume,
    wideness_and_diameter_bound,
)
from .subdivision import (
    LiftedPolytope,
    SubdivisionFan,
    base_fan,
    base_simplex,
    build_subdivision_fans,
    expected_counts,
    lift_polytope,
    normalize_rays,
    subdivide_fan,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
