"""``# repro: allow(...)`` suppression comments.

One form, naming the rule id(s) explicitly:
``x = pa // bpp  # repro: allow(RAW-GEOM): capacity math`` silences the
named rule(s) for findings anchored on that physical line.  There is no
file-wide form: every suppression sits on the line it excuses.

The trailing ``: justification`` is part of the contract: a suppression
without one is itself reported (``ALLOW-REASON``), so every escape hatch in
the tree documents *why* the banned pattern is safe where it stands.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\s*"
    r"\(\s*(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\s*\)"
    r"(?P<reason>\s*:\s*\S.*)?")


@dataclass
class SuppressionIndex:
    """Parsed suppression comments of one module."""

    #: physical line -> rule ids allowed on that line.
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: ``(line, col)`` of every allow() comment missing a justification.
    missing_reason: List[Tuple[int, int]] = field(default_factory=list)

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether a finding of *rule* at *line* is silenced."""
        return rule in self.by_line.get(line, set())


def scan_suppressions(text: str) -> SuppressionIndex:
    """Extract every suppression comment from module source *text*."""
    index = SuppressionIndex()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return index
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _ALLOW_RE.search(token.string)
        if match is None:
            continue
        rules = {name.strip().upper()
                 for name in match.group("rules").split(",")}
        line = token.start[0]
        index.by_line.setdefault(line, set()).update(rules)
        if match.group("reason") is None:
            index.missing_reason.append((line, token.start[1]))
    return index
