"""Desk-scale toolkit for total search problems.

Boolean circuit restrictions, sink-finding problem verifiers and solvers,
inter-reductions with solution pullbacks, downward self-reductions with
query monitoring, state-graph compilation of query programs, a
verifiable-line construction for unique-solution problems, and integer
factoring oracles.
"""

from .bits import all_bitstrings, complement, from_int, parity, splice, to_int, xor_bits, zeros
from .circuit import (
    AND,
    CONST,
    INPUT,
    NOT,
    OR,
    Circuit,
    Gate,
    circuit_from_table,
    emit_netlist,
    evaluate,
    identity_circuit,
    output_masks,
    parse_netlist,
    project_outputs,
    random_circuit,
    restrict_half,
    restrict_input,
    restrict_output,
    size,
    successor_table,
)
from .dsr import (
    MODE_CIRCUIT,
    MODE_CIRCUIT_POLY,
    MODE_DSR,
    MonitoredOracle,
    QueryRecord,
    QueryTrace,
    SelfReductionOracle,
    dsr_iter,
    dsr_iter_with_source,
    dsr_sod,
    dsr_sod_with_source,
    monitored,
    run_dsr,
    self_oracle,
)
from .dsr2pls import CompiledPls, DsrProgram, StateSpace, check_circuit_sizing, compile_pls
from .errors import (
    DimensionError,
    InvalidStateError,
    MalformedInstanceError,
    MonitorViolation,
    NetlistError,
    OracleContractError,
    PromiseViolation,
    PullbackContractError,
    RestrictionError,
    SizingError,
    SolveBoundError,
    TfnpError,
)
from .fixtures import HalvingIterProgram, RecursiveCombineProblem
from .numbertheory import (
    PRIME,
    all_factors,
    all_factors_via_factor,
    factor,
    factor_via_all_factors,
    is_prime,
)
from .problems import (
    EolInstance,
    IterInstance,
    SodInstance,
    SuccessorOracle,
    SvlInstance,
    emit_instance,
    instance_size,
    io_dims,
    kind_of,
    parse_instance,
    random_instance,
    verify_solution,
    well_formed,
)
from .reductions import ReductionResult, add_source, drop_source, iter_to_sod, sod_to_iter
from .solvers import enumerate_solutions, solve_exhaustive, solve_path
from .svl import PromiseReport, check_promise, compile_svl, path_length, position
