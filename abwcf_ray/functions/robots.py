"""robots.txt parsing and rule matching (RFC 9309).

Reimplements the semantics the reference gets from crawler-commons'
``SimpleRobotRulesParser`` / ``SimpleRobotRules`` (used at
src/main/scala/abwcf/actors/HostManager.scala:112-136):

- Groups are selected by ``User-agent`` product token, case-insensitive;
  tokens the crawler obeys come from config (``abwcf.robots.user-agents``,
  default empty). Rules from ALL matched groups are merged; the ``*`` group
  applies only when no configured token matches (reference.conf:200-205).
- ``Allow`` / ``Disallow`` values are path prefixes with ``*`` wildcards and
  a ``$`` end anchor (Google/crawler-commons extension).
- Matching: most-specific (longest pattern) rule wins; on a tie an Allow
  beats a Disallow (RFC 9309 §2.2.2). No matching rule -> allowed.
  ``/robots.txt`` itself is always allowed.
- Empty ``Disallow:`` is ignored (allows everything).
- ``Crawl-delay`` (seconds, may be fractional) -> milliseconds; unset or
  negative -> default; always clamped into [min, max]
  (HostManager.scala:126-136).
- Rule modes mirror crawler-commons: ``ALLOW_ALL`` (robots unavailable /
  no rules), ``ALLOW_NONE`` (unreachable), ``ALLOW_SOME``
  (SlickHostRepository.scala:52-57 uses the same three-valued mode).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np
import pandas as pd

ALLOW_ALL = "ALLOW_ALL"
ALLOW_NONE = "ALLOW_NONE"
ALLOW_SOME = "ALLOW_SOME"


def _pattern_body(pattern: str) -> tuple[str, bool]:
    """(escaped regex body with '*'→'.*', is-'$'-anchored) for a robots
    rule — the ONE place rule translation lives; the Python and Rust
    builders differ only in the end-anchor token they append."""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    return ".*".join(re.escape(part) for part in pattern.split("*")), anchored


def _pattern_to_regex(pattern: str) -> re.Pattern:
    body, anchored = _pattern_body(pattern)
    return re.compile("^" + body + (r"\Z" if anchored else ""))


def _pattern_to_rust(pattern: str) -> str:
    """Rust-regex/RE2 form of a robots rule (the robots filters match it
    with arrow's RE2 kernel, stages/transform._HostRulesIndex; both
    dialects read it the same way) — built from the RULE, not by
    string-rewriting the compiled Python pattern: a blanket
    ``.replace('\\Z', '\\z')`` on the compiled form would also rewrite an
    escaped literal backslash-Z inside the rule's path (``\\\\Z`` ends in
    the same two characters), silently changing what the rule matches. The
    end anchor differs by dialect only (`\\Z` in Python, `\\z` in Rust
    and RE2); a pattern the fast engine rejects falls back to the Python
    form at the call site."""
    body, anchored = _pattern_body(pattern)
    return "^" + body + (r"\z" if anchored else "")


@dataclass
class RobotRules:
    """Parsed, clamped per-host rules (the rebuild's ``HostInformation`` payload)."""

    mode: str = ALLOW_ALL
    # (pattern, allow) sorted most-specific-first (len desc, Allow before
    # Disallow on ties) — the evaluation order.
    rules: tuple[tuple[str, bool], ...] = ()
    crawl_delay_ms: int = 1000
    _regexes: list[re.Pattern] | None = field(default=None, repr=False, compare=False)

    def compiled(self) -> list[re.Pattern]:
        if self._regexes is None:
            self._regexes = [_pattern_to_regex(p) for p, _ in self.rules]
        return self._regexes

    def is_allowed(self, url: str) -> bool:
        if self.mode == ALLOW_ALL:
            return True
        if self.mode == ALLOW_NONE:
            return False
        target = _path_query(url)
        if target == "/robots.txt":
            return True
        for rx, (_, allow) in zip(self.compiled(), self.rules):
            if rx.match(target):
                return allow
        return True

    def is_allowed_batch(self, urls: pd.Series) -> np.ndarray:
        """Vectorized evaluation over many URLs of the same host: one regex
        pass per rule instead of a Python loop per URL."""
        if self.mode == ALLOW_ALL:
            return np.ones(len(urls), dtype=bool)
        if self.mode == ALLOW_NONE:
            return np.zeros(len(urls), dtype=bool)
        targets = urls.map(_path_query).astype("string")
        allowed = np.ones(len(urls), dtype=bool)
        undecided = np.ones(len(urls), dtype=bool)
        for rx, (_, allow) in zip(self.compiled(), self.rules):
            if not undecided.any():
                break
            hits = targets.str.match(rx).fillna(False).to_numpy(dtype=bool) & undecided
            if hits.any():
                allowed[hits] = allow
                undecided &= ~hits
        allowed[(targets == "/robots.txt").to_numpy(dtype=bool)] = True
        return allowed

    # --- flat serialization for the hosts parquet checkpoint -------------
    def serialize_rules(self) -> str:
        """Newline-joined ``allow: p`` / ``disallow: p`` lines, mirroring the
        reference's DB encoding (SlickHostRepository.scala:43-50)."""
        return "\n".join(f"{'allow' if a else 'disallow'}: {p}" for p, a in self.rules)

    @classmethod
    def deserialize(cls, mode: str, rules_str: str, crawl_delay_ms: int) -> "RobotRules":
        rules = []
        for line in rules_str.splitlines():
            kind, _, pattern = line.partition(": ")
            rules.append((pattern, kind == "allow"))
        return cls(mode=mode, rules=tuple(rules), crawl_delay_ms=int(crawl_delay_ms))


def _path_query(url: str) -> str:
    try:
        parts = urlsplit(url)
    except ValueError:
        return "/"
    path = parts.path or "/"
    return f"{path}?{parts.query}" if parts.query else path


def clamp_delay_ms(
    delay_ms: float | None, default_ms: int, min_ms: int, max_ms: int
) -> int:
    """HostManager.scala:126-136: unset/negative -> default, then clamp."""
    if delay_ms is None or delay_ms < 0:
        delay_ms = default_ms
    return int(min(max(delay_ms, min_ms), max_ms))


_LINE_RE = re.compile(r"^\s*([A-Za-z\-]+)\s*:\s*(.*?)\s*$")


def parse_robots_txt(
    body: bytes,
    user_agents: tuple[str, ...] = (),
    *,
    default_delay_ms: int = 1000,
    min_delay_ms: int = 0,
    max_delay_ms: int = 20000,
    max_bytes: int = 500 * 1024,
) -> RobotRules:
    """Parse a (2xx, text/plain) robots.txt body into clamped rules."""
    text = body[:max_bytes].decode("utf-8", errors="replace")
    agents_lc = tuple(a.lower() for a in user_agents)

    # group collection: {frozen token set} -> rules; crawl-delay per group
    specific_rules: list[tuple[str, bool]] = []
    wildcard_rules: list[tuple[str, bool]] = []
    specific_delay: float | None = None
    wildcard_delay: float | None = None

    cur_specific = False  # current group matches a configured token
    cur_wildcard = False  # current group is the * group
    in_agent_run = False  # consecutive User-agent lines accumulate one group

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        m = _LINE_RE.match(line)
        if not m:
            continue
        key, value = m.group(1).lower(), m.group(2)
        if key == "user-agent":
            if not in_agent_run:
                cur_specific = cur_wildcard = False
                in_agent_run = True
            tok = value.lower()
            if tok == "*":
                cur_wildcard = True
            elif any(tok == a or a.startswith(tok) or tok in a for a in agents_lc):
                cur_specific = True
            continue
        in_agent_run = False
        if key in ("disallow", "allow"):
            if value == "":
                continue  # empty Disallow/Allow carries no rule
            rule = (value, key == "allow")
            if cur_specific:
                specific_rules.append(rule)
            if cur_wildcard:
                wildcard_rules.append(rule)
        elif key == "crawl-delay":
            try:
                d = float(value) * 1000.0
            except ValueError:
                continue
            if cur_specific and specific_delay is None:
                specific_delay = d
            if cur_wildcard and wildcard_delay is None:
                wildcard_delay = d

    if agents_lc and (specific_rules or specific_delay is not None):
        rules, delay = specific_rules, specific_delay
    else:
        rules, delay = wildcard_rules, wildcard_delay

    delay_ms = clamp_delay_ms(delay, default_delay_ms, min_delay_ms, max_delay_ms)
    if not rules:
        return RobotRules(mode=ALLOW_ALL, crawl_delay_ms=delay_ms)
    ordered = tuple(sorted(rules, key=lambda r: (-len(r[0]), not r[1])))
    return RobotRules(mode=ALLOW_SOME, rules=ordered, crawl_delay_ms=delay_ms)
