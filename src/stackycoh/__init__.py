"""Exact cohomology of line bundles on complete simplicial stacky fans.

Everything is computed over exact integer and rational arithmetic: fan
validation, class group structure, cohomology dimensions, H-triviality
scans, and the search for degenerate piecewise-linear functions that
certify infinite families of classes with vanishing cohomology.
"""

from .catalog import catalog_fan, catalog_names
from .cohomline import (
    CapExceededError,
    ForbiddenCone,
    Limits,
    PropernessError,
    cohomology,
    forbidden_cone,
    is_h_trivial,
    outside_all_interiors,
    scan_h_trivial,
)
from .exactlin import DEFAULT_CAP, smith_normal_form
from .fan import (
    FanError,
    FanFormatError,
    FanValidationError,
    StackyFan,
    collinear_pairs,
    fan_fingerprint,
    fan_to_json,
    load_fan,
    make_fan,
    neighborhood,
)
from .homology import (
    DeltaCapError,
    delta_family,
    delta_fast_lowdim,
    delta_set,
)
from .picard import (
    LineBundleClass,
    PicStructure,
    box_classes,
    box_points,
    class_at,
    class_from_canonical,
    class_of,
    class_to_json,
    pic_structure,
)
from .plsearch import (
    CriterionReport,
    PLFunction,
    criterion_report,
    degenerate_space,
    family_class,
    find_degenerate_psi,
    normalize_at_ray,
    pl_function,
    sign_changes,
)

__version__ = "0.1.0"
