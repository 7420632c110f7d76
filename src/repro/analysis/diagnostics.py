"""Diagnostic model of the spreadlint static analyzer.

Every finding is a :class:`Diagnostic` with a stable ``SLnnn`` code drawn
from :data:`CATALOG`.  Codes are grouped by family:

===== ======================================================================
Range Family
===== ======================================================================
SL0xx front-end: the program or a pragma failed to parse / sema-check
SL1xx symbols and bounds: undefined names, out-of-bounds sections, devices
SL2xx intra-directive races: conflicting chunk footprints of one spread
SL3xx inter-directive races: unordered directives with conflicting footprints
SL4xx map flow: use-before-map, illegal extension, dead ``to``, redundant
      release
SL5xx depend graph: forward (unsatisfiable) dependences, dead sinks
SL6xx static performance smells (cost-model driven): transfer-bound
      spreads, halos crossing the inter-node network, redundant update
      round-trips, unfused latency-bound transfers
SL7xx cluster/resilience: failover-unsafe chunk writes, dynamic schedule
      over the network, device-memory overcommit
===== ======================================================================

The exit-code contract of ``repro lint`` is derived from severities: any
``error`` diagnostic → exit 1; only warnings (or nothing) → exit 0; usage
problems → exit 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


#: code -> (severity, one-line summary)
CATALOG = {
    "SL001": (Severity.ERROR, "pragma failed to tokenize or parse"),
    "SL002": (Severity.ERROR, "pragma is semantically ill-formed"),
    "SL003": (Severity.ERROR, "malformed program statement"),
    "SL101": (Severity.ERROR, "undefined identifier in directive expression"),
    "SL102": (Severity.ERROR, "array section out of bounds"),
    "SL103": (Severity.ERROR, "invalid devices clause"),
    "SL104": (Severity.ERROR, "invalid schedule or chunking"),
    "SL105": (Severity.ERROR, "executable directive without associated loop"),
    "SL201": (Severity.ERROR,
              "write-write overlap between chunks of one spread directive"),
    "SL202": (Severity.ERROR,
              "read-write overlap between chunks of one spread directive"),
    "SL301": (Severity.ERROR,
              "unordered write-write conflict between directives"),
    "SL302": (Severity.ERROR,
              "unordered read-write conflict between directives"),
    "SL401": (Severity.ERROR, "use of device data that was never mapped"),
    "SL402": (Severity.ERROR,
              "mapping would extend an already-mapped section"),
    "SL403": (Severity.WARNING,
              "dead 'to' map: section copied to device but never read"),
    "SL404": (Severity.WARNING, "redundant release of unmapped data"),
    "SL501": (Severity.ERROR,
              "dependence on a section produced only by a later directive"),
    "SL502": (Severity.WARNING,
              "dependence sink never produced by any directive"),
    "SL601": (Severity.WARNING,
              "transfer-bound spread: non-resident copy-ins outweigh the "
              "kernel"),
    "SL602": (Severity.WARNING,
              "halo exchange crosses the inter-node network"),
    "SL603": (Severity.WARNING,
              "redundant update round-trip: device copy is already current"),
    "SL604": (Severity.WARNING,
              "per-call transfer latency dominates: consider fuse_transfers"),
    "SL701": (Severity.WARNING,
              "chunk writes outside its owned range: node-loss failover "
              "would corrupt survivors"),
    "SL702": (Severity.WARNING,
              "dynamic schedule on a networked machine"),
    "SL703": (Severity.WARNING,
              "resident footprint overcommits device memory"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, renderable as text (with caret) or JSON."""

    code: str
    message: str
    path: str = ""
    line: int = 0              # 1-based line of the statement; 0 = whole file
    source: str = ""           # statement text the caret points into
    offset: Optional[int] = None
    length: Optional[int] = None   # span width for a ^~~~ underline
    related: Tuple[str, ...] = field(default=())  # extra context lines

    @property
    def severity(self) -> Severity:
        return CATALOG[self.code][0]

    def render(self) -> str:
        where = self.path or "<input>"
        if self.line:
            where += f":{self.line}"
        lines = [f"{where}: {self.severity.value}: {self.code}: "
                 f"{self.message}"]
        if self.source:
            lines.append(f"  {self.source}")
            if self.offset is not None:
                # Span-clamped caret.  Offsets are computed against the
                # *joined* pragma text, so a clause that started on a
                # backslash-continuation line can carry an offset at (or,
                # with stale sources, past) the end of the rendered text —
                # clamp both the anchor and the underline so the caret
                # always lands under the statement.  The pad mirrors the
                # source's own whitespace (tabs stay tabs) so the anchor
                # stays aligned under tab-indented continuations too.
                off = max(0, min(self.offset, len(self.source)))
                pad = "".join(ch if ch == "\t" else " "
                              for ch in self.source[:off])
                span = self.length if self.length and self.length > 0 else 1
                span = max(1, min(span, len(self.source) - off) if
                           off < len(self.source) else 1)
                lines.append("  " + pad + "^" + "~" * (span - 1))
        lines.extend(f"  note: {note}" for note in self.related)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "source": self.source,
            "offset": self.offset,
            "length": self.length,
            "related": list(self.related),
        }
