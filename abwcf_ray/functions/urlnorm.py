"""RFC-3986 URL normalization.

Reimplements the semantics of the reference's
``UrlNormalizationService`` (src/main/scala/abwcf/services/
UrlNormalizationService.scala:21-79) and ``UrlUtils.getSchemeAndAuthority``
(src/main/scala/abwcf/util/UrlUtils.scala:12-15) on top of Python stdlib
parsing — no code is shared with the reference.

Behavior contract (validated by the 15 conformance vectors in
UrlNormalizationServiceSpec.scala:16-60, ported to tests/test_urlnorm.py):

- scheme lowercased; host lowercased.
- IDN hosts -> punycode ASCII (IDNA2003-with-unassigned, like Java
  ``IDN.toASCII(host, ALLOW_UNASSIGNED)``): Python's ``idna`` codec first,
  per-label raw punycode as fallback for post-Unicode-3.2 codepoints.
- default ports elided (80/http, 443/https); empty port elided.
- path: Java ``URI.normalize()`` semantics — when the path contains ``.``/
  ``..`` segments or duplicate slashes, segments are re-joined with single
  slashes after dot-segment removal (i.e. empty segments collapse); an
  untouched path is preserved verbatim. Empty path -> ``/``.
- percent-encoding preserved (components are never decoded/re-encoded).
- userinfo / query / fragment removed per config (reference defaults:
  remove userinfo + fragment, keep query — reference.conf:101-113).
- invalid URLs (whitespace, missing scheme/host, bad port) -> ``None``
  (the reference logs + drops on URISyntaxException,
  UrlNormalizer.scala:35-39).
"""

from __future__ import annotations

import encodings.idna as _idna
import re
from urllib.parse import urljoin, urlsplit

from abwcf_ray.config import NormalizationConfig

_DEFAULT_PORTS = {"http": 80, "https": 443}
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*$")
_WHITESPACE_RE = re.compile(r"\s")
# RFC 3986 reg-name: unreserved / pct-encoded / sub-delims (plus we require
# at least one char). Applied to ASCII hosts only.
_REG_NAME_RE = re.compile(r"^[A-Za-z0-9._~%!$&'()*+,;=\-]+$")

DEFAULT_CONFIG = NormalizationConfig()


def _encode_host_label(label: str) -> str:
    """One DNS label -> ASCII (IDNA2003 nameprep via the idna codec, raw
    punycode fallback for codepoints the codec rejects, mirroring Java's
    ALLOW_UNASSIGNED)."""
    if label.isascii():
        return label.lower()
    try:
        return _idna.ToASCII(_idna.nameprep(label)).decode("ascii").lower()
    except UnicodeError:
        return "xn--" + label.lower().encode("punycode").decode("ascii")


def _normalize_host(host: str) -> str | None:
    if not host:
        return None
    if host.startswith("["):  # IPv6 literal — keep as-is, lowercased hex
        return host.lower() if host.endswith("]") else None
    if host.isascii():
        if not _REG_NAME_RE.match(host):
            return None
        return host.lower()
    try:
        return ".".join(_encode_host_label(l) for l in host.split("."))
    except UnicodeError:
        return None


def _split_netloc(netloc: str) -> tuple[str | None, str, str | None] | None:
    """netloc -> (userinfo|None, host, port-str|None); None if unparseable."""
    userinfo: str | None = None
    hostport = netloc
    if "@" in netloc:
        userinfo, _, hostport = netloc.rpartition("@")
    if hostport.startswith("["):  # IPv6 literal, optional :port after ]
        end = hostport.find("]")
        if end < 0:
            return None
        host = hostport[: end + 1]
        rest = hostport[end + 1 :]
        if rest == "":
            port = None
        elif rest.startswith(":"):
            port = rest[1:]
        else:
            return None
    else:
        host, sep, port_s = hostport.rpartition(":")
        if sep:
            port = port_s
        else:
            host, port = hostport, None
    return userinfo, host, port


def _normalize_path(path: str) -> str:
    """Java URI.normalize() path semantics (see module docstring).

    Normalization triggers only on dot segments or INTERIOR empty segments
    (``//``); a single trailing slash is neither (Java's needsNormalization
    checks for duplicate slashes), so ``/a/b/`` passes through verbatim and
    a trailing slash survives normalization of e.g. ``/a/./b/``."""
    if path == "":
        return "/"
    segments = path.split("/")
    interior_empty = "" in segments[1:-1]
    if "." not in segments and ".." not in segments and not interior_empty:
        return path
    trailing = path.endswith("/")
    out: list[str] = []
    for seg in segments:
        if seg in ("", "."):
            continue
        if seg == "..":
            if out and out[-1] != "..":
                out.pop()
            else:
                out.append("..")
        else:
            out.append(seg)
    res = "/" + "/".join(out)
    if trailing and res != "/":
        res += "/"
    return res


def normalize_url(url: str, config: NormalizationConfig = DEFAULT_CONFIG) -> str | None:
    """Normalize one URL; return ``None`` to signal "drop this candidate"."""
    if not url or _WHITESPACE_RE.search(url):
        return None
    try:
        parts = urlsplit(url)
    except ValueError:
        return None

    scheme = parts.scheme
    if not scheme or not _SCHEME_RE.match(scheme):
        return None
    scheme = scheme.lower()

    if not parts.netloc:
        return None
    split = _split_netloc(parts.netloc)
    if split is None:
        return None
    userinfo, raw_host, port_s = split

    host = _normalize_host(raw_host)
    if host is None:
        return None

    port: int | None
    if port_s is None or port_s == "":
        port = None
    elif port_s.isdigit():
        port = int(port_s)
    else:
        return None
    if port is not None and _DEFAULT_PORTS.get(scheme) == port:
        port = None

    path = _normalize_path(parts.path)

    out = [scheme, "://"]
    if userinfo and not config.remove_userinfo:
        out += [userinfo, "@"]
    out.append(host)
    if port is not None:
        out += [":", str(port)]
    out.append(path)
    # urlsplit cannot distinguish an absent component from an empty one
    # ("http://a/?" vs "http://a/"); treat empty as absent.
    if parts.query and not config.remove_query:
        out += ["?", parts.query]
    if parts.fragment and not config.remove_fragment:
        out += ["#", parts.fragment]
    return "".join(out)


def normalize_urls(urls, config: NormalizationConfig = DEFAULT_CONFIG) -> list[str | None]:
    """Batch variant: list in, list out (None = dropped). The per-batch Ray
    stage wraps this and filters the Nones (counting them as the reference
    counts normalization failures, UrlNormalizerMetrics)."""
    return [normalize_url(u, config) for u in urls]


def resolve_location(page_url: str, location: str) -> str:
    """A redirect's ``Location`` against the url of the page that sent it:
    a relative reference (``/c``, legal per RFC 9110 §10.2.2) is joined with
    ``page_url``; an absolute one, or one that does not parse, is returned
    unchanged, byte for byte (the normalizer decides what to drop)."""
    try:
        if urlsplit(location).scheme:
            return location
        return urljoin(page_url, location)
    except ValueError:
        return location


def get_scheme_and_authority(url: str) -> str | None:
    """``scheme://authority`` of a URL (UrlUtils.scala:12-15) — the reference's
    host key for robots state and politeness (HostInformation.scala:10-12)."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if not parts.scheme or not parts.netloc:
        return None
    return f"{parts.scheme}://{parts.netloc}"
