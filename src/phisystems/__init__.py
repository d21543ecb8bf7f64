"""phisystems: executable forms of classical prime statements.

Primality as a system of Fermat congruences, the prime-between-n-and-2n-2
statement and the two- and three-prime split conjectures as solvable
systems of totient equations, each verified at desk scale against
independent brute-force oracles.
"""

from .arith import (
    DEFAULT_MEMORY_BUDGET,
    MemoryBudgetError,
    PrimePi,
    SpfTable,
    build_spf,
)
from .bertrand import (
    BertrandWitness,
    bertrand_count,
    bertrand_solutions,
    count_identity_check,
    first_bertrand_witness,
)
from .certify import (
    Certificate,
    CongruenceCheck,
    Verdict,
    VerdictTable,
    certify,
    certify_block,
    certify_verdict,
    fermat_congruence_holds,
)
from .goldbach import (
    BinaryWitness,
    TernaryWitness,
    binary_count,
    binary_solutions,
    count_table,
    decomposition_to_xy,
    fermat_system_solutions,
    first_binary_witness,
    first_peculiar_witness,
    first_ternary_witness,
    peculiar_count,
    peculiar_solutions,
    proposition_check,
    raw_form_solutions,
    substitution_bijection_check,
    ternary_count,
    ternary_solutions,
    two_prime_sum_exists,
)
from .oracle import (
    ORACLE_LIMIT,
    PairDecomposition,
    oracle_is_prime,
    oracle_pairs,
    oracle_triples,
    trial_primes_upto,
)
from .sweep import (
    CSV_HEADER,
    RangeReport,
    SweepOptions,
    TASKS,
    emit_counts,
    emit_report,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BertrandWitness",
    "BinaryWitness",
    "CSV_HEADER",
    "Certificate",
    "CongruenceCheck",
    "DEFAULT_MEMORY_BUDGET",
    "MemoryBudgetError",
    "ORACLE_LIMIT",
    "PairDecomposition",
    "PrimePi",
    "RangeReport",
    "SpfTable",
    "SweepOptions",
    "TASKS",
    "TernaryWitness",
    "Verdict",
    "VerdictTable",
    "bertrand_count",
    "bertrand_solutions",
    "binary_count",
    "binary_solutions",
    "build_spf",
    "certify",
    "certify_block",
    "certify_verdict",
    "count_identity_check",
    "count_table",
    "decomposition_to_xy",
    "emit_counts",
    "emit_report",
    "fermat_congruence_holds",
    "fermat_system_solutions",
    "first_bertrand_witness",
    "first_binary_witness",
    "first_peculiar_witness",
    "first_ternary_witness",
    "oracle_is_prime",
    "oracle_pairs",
    "oracle_triples",
    "peculiar_count",
    "peculiar_solutions",
    "proposition_check",
    "raw_form_solutions",
    "run_sweep",
    "substitution_bijection_check",
    "ternary_count",
    "ternary_solutions",
    "trial_primes_upto",
    "two_prime_sum_exists",
]
