"""Decision procedures and proof tools for a choice-quantifier logic
fragment, with a polynomial reduction from prenex 3-CNF sentences."""

from .formula import (
    Atom, BOT, Bot, ChoAll, ChoAnd, ChoEx, ChoOr, Constant, Formula,
    FormulaError, LetterId, ParAnd, ParOr, ParseError, Path,
    SubstitutionError, TOP, Term, Top, Variable, parse_formula,
    render_formula, substitute_var, validate_formula,
)
from .elementary import is_stable
from .prover import (
    CheckResult, ChooseDisjunct, ChooseTerm, Logic, MatchPair, Move,
    MoveError, ProofNode, ProverConfig, ProverError, SearchStats, WAIT,
    Wait, apply_move, check_proof, enumerate_moves, measure,
    proof_from_json, proof_to_json, prove, prove_with_stats, wait_premises,
)
from .qbf import (
    Lit, Qbf, QbfError, Quantifier, StrategyNode, check_strategy_tree,
    eval_qbf, normalize_qbf, parse_qbf, play_path, render_qbf,
    render_qdimacs, strategy_from_json, strategy_to_json,
    winning_strategy_tree,
)
from .reduction import reduce_to_cl3, reduce_to_cl4
from .bridge import (
    BridgeError, canonicalize_proof, proof_to_strategy, strategy_to_proof,
)

__version__ = "0.1.0"
