"""The regular-expression / DPI offload engine.

The paper's introduction lists "regular expression engines" among the
offload types PANIC must host.  This engine runs a from-scratch
Aho-Corasick multi-pattern matcher over the transport payload -- the
textbook hardware-DPI algorithm -- annotating matches, and optionally
dropping packets that hit a blocklist pattern.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, Iterable, List, Set, Tuple

from repro.engines.base import Engine, EngineOutput
from repro.packet.builder import parse_frame
from repro.packet.headers import HeaderError
from repro.packet.packet import Packet
from repro.sim.kernel import Simulator

#: Cycles per scan on top of ``cycles_per_byte * frame bytes``.
FIXED_CYCLES = 16


class AhoCorasick:
    """A from-scratch Aho-Corasick automaton over byte patterns."""

    def __init__(self, patterns: Iterable[bytes]):
        self._patterns = [bytes(p) for p in patterns]
        if any(not p for p in self._patterns):
            raise ValueError("empty patterns are not allowed")
        # goto function: list of dicts byte -> state
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[Set[int]] = [set()]
        for index, pattern in enumerate(self._patterns):
            self._insert(pattern, index)
        self._build_failure_links()
        # Scan accelerators: per-state output tuples (avoids set iteration
        # on the no-match path), and a compiled character class of the
        # root's transition bytes -- while in the root state the scan can
        # jump straight to the next byte any pattern starts with.
        self._out: List[Tuple[int, ...]] = [tuple(s) for s in self._output]
        self._root_skip = (
            re.compile(
                b"[" + b"".join(
                    re.escape(bytes([b])) for b in self._goto[0]
                ) + b"]"
            )
            if self._goto[0] else None
        )

    def _insert(self, pattern: bytes, index: int) -> None:
        state = 0
        for byte in pattern:
            nxt = self._goto[state].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._output.append(set())
                self._goto[state][byte] = nxt
            state = nxt
        self._output[state].add(index)

    def _build_failure_links(self) -> None:
        queue = deque()
        for byte, state in self._goto[0].items():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            current = queue.popleft()
            for byte, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] |= self._output[self._fail[nxt]]

    def search(self, data: bytes) -> List[Tuple[int, int]]:
        """Return ``(end_offset, pattern_index)`` for every match."""
        matches = []
        state = 0
        goto = self._goto
        fail = self._fail
        out = self._out
        skip = self._root_skip
        length = len(data)
        offset = 0
        while offset < length:
            if state == 0 and skip is not None:
                # Root state: no partial match pending, so bytes outside
                # every pattern's first-byte set cannot change anything.
                found = skip.search(data, offset)
                if found is None:
                    break
                offset = found.start()
            byte = data[offset]
            while state and byte not in goto[state]:
                state = fail[state]
            state = goto[state].get(byte, 0)
            hits = out[state]
            if hits:
                for index in hits:
                    matches.append((offset + 1, index))
            offset += 1
        return matches

    @property
    def patterns(self) -> List[bytes]:
        return list(self._patterns)


class RegexEngine(Engine):
    """DPI over payloads: annotate matches, optionally drop blocked ones."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        patterns: Iterable[bytes] = (),
        block_patterns: Iterable[bytes] = (),
        cycles_per_byte: float = 1.0,
        **engine_kwargs,
    ):
        super().__init__(sim, name, **engine_kwargs)
        block = [bytes(p) for p in block_patterns]
        watch = [bytes(p) for p in patterns]
        self._block_count = len(block)
        self.automaton = AhoCorasick(block + watch) if (block or watch) else None
        self.cycles_per_byte = cycles_per_byte
        self.scanned = 0
        self.matched = 0
        self.blocked = 0

    def service_time_ps(self, packet: Packet) -> int:
        cycles = FIXED_CYCLES + self.cycles_per_byte * packet.frame_bytes
        return self.clock.cycles_to_ps(cycles)

    def handle(self, packet: Packet) -> List[EngineOutput]:
        if self.automaton is None:
            return [(packet, None)]
        try:
            payload = parse_frame(packet.data).payload
        except HeaderError:
            payload = packet.data
        matches = self.automaton.search(payload)
        self.scanned += 1
        if matches:
            self.matched += 1
            packet.meta.annotations["dpi_matches"] = [
                (end, self.automaton.patterns[idx]) for end, idx in matches
            ]
            if any(idx < self._block_count for _end, idx in matches):
                self.blocked += 1
                # Swallow the packet: DPI verdict is drop.
                return []
        return [(packet, None)]
