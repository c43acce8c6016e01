"""Prime labelings of ladder graphs and the number theory behind them.

A ladder of order 2n is the 2xn grid graph; a prime labeling assigns 1..2n
to its vertices so adjacent labels are coprime. This package provides:

* closed-form labelings for orders 2p and 2p+q (``constructions``),
* an independent backtracking searcher for small orders (``oracle``),
* labeling verification and a CSV interchange format (``ladder``),
* an array-wise text codec for rows of integers, behind the CSV files
  (``textio``),
* canonical/strong prime partitions of integers (``partitions``),
* witness search and range verification for the 2p+q decomposition of odd
  integers and Goldbach pairs for even ones (``conjectures``),
* a prime sieve shared by all of the above (``numtheory``),
* a command-line interface (``cli``).
"""

from .conjectures import (
    CheckpointError,
    LemoineWitness,
    RangeReport,
    WitnessNotFoundError,
    find_goldbach,
    find_lemoine,
    verify_lemoine_range,
)
from .constructions import (
    ColumnJStar,
    ConstructionFailedError,
    SwapPlan,
    UnsupportedOrderError,
    column_jstar,
    construct_ladder,
    extended_labeling,
    lemma_base_labeling,
    lemma_ladder_2p,
    plan_theorem_swaps,
    theorem_ladder_2p_q,
)
from .ladder import (
    Labeling,
    MalformedLabelingError,
    Violation,
    format_labeling_csv,
    load_labeling_csv,
    neighbor_labels,
    parse_labeling_csv,
    position_of,
    swap_labels,
    verify_labeling,
)
from .numtheory import CoverageExceededError, PrimeSet, is_prime, primes_in, sieve_primes
from .oracle import SearchResult, brute_force_labeling
from .partitions import (
    Partition,
    SigmaTau,
    enumerate_canonical,
    find_canonical,
    is_canonical,
    is_strong,
    sigma_tau,
    verify_strong_range,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ColumnJStar",
    "ConstructionFailedError",
    "CoverageExceededError",
    "Labeling",
    "LemoineWitness",
    "MalformedLabelingError",
    "Partition",
    "PrimeSet",
    "RangeReport",
    "SearchResult",
    "SigmaTau",
    "SwapPlan",
    "UnsupportedOrderError",
    "Violation",
    "WitnessNotFoundError",
    "brute_force_labeling",
    "column_jstar",
    "construct_ladder",
    "enumerate_canonical",
    "extended_labeling",
    "find_canonical",
    "find_goldbach",
    "find_lemoine",
    "format_labeling_csv",
    "is_canonical",
    "is_prime",
    "is_strong",
    "lemma_base_labeling",
    "lemma_ladder_2p",
    "load_labeling_csv",
    "neighbor_labels",
    "parse_labeling_csv",
    "plan_theorem_swaps",
    "position_of",
    "primes_in",
    "sieve_primes",
    "sigma_tau",
    "swap_labels",
    "theorem_ladder_2p_q",
    "verify_labeling",
    "verify_lemoine_range",
    "verify_strong_range",
    "__version__",
]
