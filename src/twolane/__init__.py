"""Two-lane erasure-coded link toolkit.

Building blocks for a transmission system that sends the K native symbols
of each coding generation over a fast lossy main lane and R systematically
coded symbols over a slower error-free auxiliary lane:

  gf256     GF(2^8) arithmetic (polynomial 0x11B)
  codec     systematic random linear encoder/decoder over generations
  fec       FEC correction-budget model (residual BER / SER)
  planner   redundancy, combined code rate, lane timing, delay-matched
            auxiliary rate and its distance feasibility bound
  sim       Monte Carlo two-lane channel simulator
  bertable  tabular channel-BER ingestion plus the synthetic fixture
  scenario  scenario files, sweeps, technology labels, CSV output
  cli       'twolane' command line front end
"""

from .fec import FecDerived, FecParams, derive
from .codec import (
    DecodeError,
    DecodeStats,
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
    decode,
    encode,
    make_coefficients,
)
from .planner import (
    InfeasibleAuxDistanceError,
    LinkParams,
    LinkPlan,
    aux_distance_bound,
    aux_rate,
    lane_times,
    main_rate_from_baud,
    overhead,
    plan,
    redundancy,
    total_code_rate,
)
from .sim import SimConfig, SimReport, corrupt_bits, erase_symbols, run
from .bertable import BerTable, BerTableError, load_ber_table, synthetic_ber_table
from .scenario import (
    Scenario,
    ScenarioError,
    classify_aux_technology,
    load_scenario,
    simulate,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "FecParams",
    "FecDerived",
    "derive",
    "Generation",
    "ReceivedGeneration",
    "ReceivedSymbol",
    "DecodeStats",
    "DecodeError",
    "InsufficientSymbolsError",
    "SingularSystemError",
    "make_coefficients",
    "encode",
    "decode",
    "LinkParams",
    "LinkPlan",
    "InfeasibleAuxDistanceError",
    "redundancy",
    "total_code_rate",
    "overhead",
    "lane_times",
    "aux_rate",
    "aux_distance_bound",
    "main_rate_from_baud",
    "plan",
    "SimConfig",
    "SimReport",
    "erase_symbols",
    "corrupt_bits",
    "run",
    "BerTable",
    "BerTableError",
    "load_ber_table",
    "synthetic_ber_table",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "sweep",
    "simulate",
    "classify_aux_technology",
]
