"""Offload engines: the self-contained tiles of the PANIC architecture.

Everything on the PANIC mesh is an engine (Figure 3): the offloads (IPSec,
compression, KV cache, RDMA, DPI, checksum), the heavyweight RMT pipeline
tiles, and the components a conventional NIC would hide in fixed logic --
Ethernet MACs, the DMA engine, the PCIe engine -- and the embedded CPU
core a manycore NIC puts between every offload call (Figure 2b).

All engines share :class:`~repro.engines.base.Engine`: a PIFO scheduling
queue ranked by RMT-computed slack, a lightweight lookup table for routing
chain-exhausted messages, a NoC port, and a cost model expressed in engine
cycles.
"""

from repro.engines.base import Engine, EngineOutput, LocalLookupTable, LOOKUP_CYCLES
from repro.engines.checksum_engine import ChecksumEngine
from repro.engines.compression import (
    CompressionEngine,
    CompressionError,
    compress,
    decompress,
)
from repro.engines.dcqcn import (
    CnpResponder,
    DcqcnEngine,
    DcqcnRateController,
    EcnMarkerEngine,
    build_cnp,
    parse_cnp,
)
from repro.engines.dma import DmaEngine
from repro.engines.ethernet import EthernetPort
from repro.engines.ipsec import IpsecEngine, IpsecError, IpsecSa, keystream, xor_bytes
from repro.engines.kvcache import KvCacheEngine
from repro.engines.orchestration import OrchestrationCore
from repro.engines.pcie import PcieEngine
from repro.engines.ratelimit import RateLimiterEngine, TokenBucket
from repro.engines.rdma import RdmaEngine
from repro.engines.regex_engine import AhoCorasick, RegexEngine
from repro.engines.rmt_engine import RmtPipelineEngine
from repro.engines.taxonomy import (
    Beneficiary,
    ENGINE_CLASSES,
    OffloadClass,
    Placement,
    Resource,
    TABLE1,
    coverage,
    table1_rows,
)

__all__ = [
    "AhoCorasick",
    "Beneficiary",
    "ChecksumEngine",
    "CompressionEngine",
    "CompressionError",
    "CnpResponder",
    "DcqcnEngine",
    "DcqcnRateController",
    "EcnMarkerEngine",
    "DmaEngine",
    "ENGINE_CLASSES",
    "Engine",
    "EngineOutput",
    "EthernetPort",
    "IpsecEngine",
    "IpsecError",
    "IpsecSa",
    "KvCacheEngine",
    "LOOKUP_CYCLES",
    "LocalLookupTable",
    "OffloadClass",
    "OrchestrationCore",
    "PcieEngine",
    "Placement",
    "RateLimiterEngine",
    "RdmaEngine",
    "RegexEngine",
    "Resource",
    "RmtPipelineEngine",
    "TABLE1",
    "TokenBucket",
    "build_cnp",
    "compress",
    "coverage",
    "decompress",
    "keystream",
    "parse_cnp",
    "xor_bytes",
    "table1_rows",
]
