"""Bijections between permutation classes and Motzkin-type lattice paths,
statistic transport along them, and exact generating functions for the
joint distributions, all verified against brute-force enumeration.

The central objects: involutions avoiding 3412 correspond to plain
Motzkin paths; permutations avoiding the two vincular patterns 1_32 and
1_23 correspond to involutions (Foata) and to labeled Motzkin paths;
permutations avoiding 132 and consecutive 123 correspond to Motzkin paths
through their tunnels.  Statistics (inversions, descents, fixed points,
consecutive patterns of length three) translate into path statistics and
from there into exact truncated power series.
"""

from .errors import BoundExceededError, InvariantError
from .permutations import (
    Permutation,
    ascending_runs,
    coinv_count,
    des_count,
    enumerate_involutions,
    enumerate_permutations,
    fix_count,
    format_cycles,
    inv_count,
    is_involution,
    parse_cycles,
    reverse_complement,
    run_anatomy,
    standard_cycles,
)
from .patterns import PatternSpec, avoids, avoids_all, consecutive_occurrences, enumerate_class, occurrences
from .paths import (
    BicoloredMotzkinWord,
    LabeledMotzkinPath,
    LaguerreHistory,
    MotzkinWord,
    Tunnel,
    area,
    enumerate_bicolored,
    enumerate_histories,
    enumerate_labeled,
    enumerate_motzkin,
    height_list,
    named_statistic,
    subword_count,
    tunnels,
)
from .bijections import (
    CONSECUTIVE_OF_WINDOW,
    check_diagram,
    foata,
    foata_inverse,
    foata_of,
    history_to_perm,
    involution_to_path,
    motzkin_to_perm,
    path_to_involution,
    perm_to_history,
    transport_statistics,
)
from .series import (
    SeriesRing,
    TruncatedSeries,
    continued_fraction,
    fixed_point_solve,
    rescale_x,
    solve_quadratic,
)
from .genfun import (
    ClassSpec,
    ClusterSpec,
    DistributionTable,
    cluster_count_gf,
    cluster_gfs,
    coinv_des_gf,
    distribution_oracle,
    f123_inv,
    f132_inv,
    f213_inv,
    f213_perm,
    f231_inv,
    f231_perm,
    f312_inv,
    f312_perm,
    f312_via_t1t2,
    f321_inv,
    f321_perm,
    inv_des_fix_gf,
    weak_valley_gf,
)

__version__ = "0.1.0"
