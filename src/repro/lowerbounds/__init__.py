"""Executable lower-bound constructions (Sections 5.3 and 6)."""

from .encoding_nonrec import NonrecEncoding, encode_nonrecursive, trace_database
from .encoding_space import (
    AlternatingEncoding,
    DecodedStep,
    SpaceEncoding,
    decode_expansion,
    encode_alternating,
    encode_deterministic,
    standard_carries,
    synthesize_trace_query,
)
from .turing import (
    AlternatingTuringMachine,
    TuringMachine,
    local_relations,
    simple_accepting_machine,
    simple_rejecting_machine,
    sweeping_machine,
    symbol_name,
    tiny_accepting_machine,
)

__all__ = [
    "AlternatingEncoding",
    "AlternatingTuringMachine",
    "DecodedStep",
    "NonrecEncoding",
    "SpaceEncoding",
    "TuringMachine",
    "decode_expansion",
    "encode_alternating",
    "encode_deterministic",
    "encode_nonrecursive",
    "local_relations",
    "simple_accepting_machine",
    "simple_rejecting_machine",
    "standard_carries",
    "sweeping_machine",
    "symbol_name",
    "synthesize_trace_query",
    "tiny_accepting_machine",
    "trace_database",
]
