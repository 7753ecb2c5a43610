"""The reconfigurable match+action (RMT) pipeline substrate.

PANIC's heavyweight switch brain (Figure 3b): a programmable parser turns
packet bytes into a packet header vector (PHV); a sequence of match+action
stages looks fields up in exact/ternary/LPM/range tables and runs actions
(set fields, build offload chains, compute slack).  The decisions travel
in the PHV; a header field an action writes is put back on the frame by
the deparser (:func:`repro.rmt.parser.deparse`).

The substrate is *pure* -- :class:`RmtPipeline.process` is a function from
packet to decisions with no simulated time -- so it can be unit-tested
directly.  Timing (1 packet/cycle/pipeline, latency = stage count) is added
by the engine wrapper in :mod:`repro.engines.rmt_engine`.
"""

from repro.rmt.phv import Phv, PhvError
from repro.rmt.parser import ParseGraph, ParserState, default_parse_graph
from repro.rmt.table import (
    MatchKind,
    MatchKey,
    Table,
    TableEntry,
    TableError,
    ternary_match,
)
from repro.rmt.action import (
    Action,
    ActionContext,
    ActionError,
    Register,
    standard_actions,
)
from repro.rmt.pipeline import RmtPipeline, RmtProgram, Stage

__all__ = [
    "Action",
    "ActionContext",
    "ActionError",
    "MatchKey",
    "MatchKind",
    "ParseGraph",
    "ParserState",
    "Phv",
    "PhvError",
    "Register",
    "RmtPipeline",
    "RmtProgram",
    "Stage",
    "Table",
    "TableEntry",
    "TableError",
    "default_parse_graph",
    "standard_actions",
    "ternary_match",
]
