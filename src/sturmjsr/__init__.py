"""Joint spectral radius of positive 2x2 matrix pairs via Sturmian measures.

The package computes, bounds, and certifies the joint spectral radius of
scaled pairs (A0, t*A1) of positive matrices whose induced projective maps
are respectively concave and convex with separated images.  For such pairs
the maximizing measure of every scale is Sturmian, the scale thresholds of
the two domination regimes have closed forms, and the scale-to-parameter
map is a devil's staircase.
"""

from .certify import (
    CertificateReport,
    Verdict,
    certify,
    delta_extremal,
    delta_numeric,
    domination_check,
    gamma_of_t,
    phi_extremal,
    phi_series,
    thresholds,
)
from .classify import (
    MatrixClassReport,
    MatrixConvexity,
    PairClassReport,
    classify_matrix,
    d2_pair,
    pair_report,
    scale_pair,
)
from .dynamics import (
    Domination,
    InducedSystem,
    Interval,
    SturmianIntervalSpec,
    ThresholdPair,
    f_eval,
    induced_system,
    periodic_point,
    sturmian_interval_endpoints,
)
from .errors import SturmJsrError
from .jsr import (
    JsrEstimate,
    ergodic_average_f,
    jsr_lower_bruteforce,
    jsr_upper_norm,
    sturmian_restricted_max,
    sturmian_value,
)
from .matrices import (
    Matrix2,
    MatrixPair,
    ProjectiveData,
    eigenvalues,
    projective_data,
    spectral_radius,
    word_product,
)
from .pairfile import load_pair, parse_pair
from .staircase import (
    CounterexampleResult,
    PlateauEstimate,
    StaircaseSample,
    counterexample_search,
    parameter_bracket_of_coordinate,
    parameter_map,
    plateau_bounds,
    staircase_scan,
)
from .words import (
    ParameterBracket,
    RationalParameter,
    is_balanced,
    mechanical_word,
    orbit_min_max,
)

__version__ = "0.1.0"
