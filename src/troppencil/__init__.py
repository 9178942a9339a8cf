"""troppencil: exact computations with linear pencils of min-plus plane curves.

The library works over exact rationals throughout.  Its pieces:

- ``core``: rationals, projective points, support sets, exact predicates
- ``subdivision``: lower-hull subdivisions and their dual plane curves
- ``trees``: tropical lines as labelled metric trees, pair coordinates
- ``pencil``: fixed loci of pencils and the hyperplane-skeleton machinery
- ``stable``: tropical determinants, generality, stable pencils
- ``compat``: tree/support compatibility and the constructive round trip
  between compatible lines and general configurations
- ``oracle``: slow reference implementations for differential checks;
  import them from ``troppencil.oracle``, the package does not load it
- ``cli``: the ``troppencil`` command
"""

from .core import MinProfile, ProjPoint, SupportSet, TropError, dot, min_profile, orient2d
from .subdivision import (
    CurveGraph,
    RegularSubdivision,
    cell_dual_point,
    curve_contains,
    dual_curve,
    is_maximal,
    regular_subdivision,
    secondary_cone_contains,
)
from .trees import (
    EmbeddedLine,
    PlueckerError,
    PlueckerVector,
    TreeTopology,
    embed,
    line_contains,
    plucker_to_tree,
    tree_to_plucker,
)
from .pencil import (
    FixedLocusCell,
    fixed_locus,
    fixed_locus_pieces,
    is_fixed,
    pi_gamma,
    pi_set,
    shifted_line,
    skeleton_level,
)
from .stable import (
    GeneralityVerdict,
    TropdetResult,
    curves_through,
    is_general,
    stable_pencil,
    tropdet,
    value_matrix,
)
from .compat import (
    CompatibilityVerdict,
    QuartetVerdict,
    compatible_types,
    construct_configuration,
    count_compatible,
    enumerate_types,
    is_compatible,
    quartet_ok,
    rainbow_triangle,
    realize_type,
    support_graph,
    type_count,
    unique_matching,
    vertex_fixed_point,
)

__version__ = "0.1.0"
