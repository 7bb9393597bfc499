"""Byte and token units with the conventions the FPDT paper uses.

The paper (and the HPC literature it sits in) mixes decimal and binary
units freely: "A100 80 GB" is 80 GiB of HBM for capacity purposes, PCIe
"32 GB/s" is decimal, and sequence lengths like "256K" and "2M" are binary
token counts (256 * 1024, 2 * 1024 * 1024).  We pin those conventions down
here once so that every other module agrees on them.
"""

from __future__ import annotations

import re

# Decimal byte units (bandwidths, link rates).
KB: int = 1000
MB: int = 1000**2
GB: int = 1000**3
TB: int = 1000**4

# Binary byte units (memory capacities).
KIB: int = 1024
MIB: int = 1024**2
GIB: int = 1024**3
TIB: int = 1024**4

# Token-count units.  "128K context" means 128 * 1024 tokens; "2M" means
# 2 * 1024 * 1024 tokens.  These match Table 1 / Fig. 11 of the paper.
K_TOKENS: int = 1024
M_TOKENS: int = 1024**2

_TOKEN_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([kKmM]?)\s*$")


def parse_tokens(text: str | int) -> int:
    """Parse a sequence length written the way the paper writes it.

    ``"256K" -> 262144``, ``"2M" -> 2097152``, ``"4096" -> 4096``.
    Integers pass through unchanged.

    Raises
    ------
    ValueError
        If the string is not a number optionally suffixed with K or M.
    """
    if isinstance(text, int):
        return text
    match = _TOKEN_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse token count: {text!r}")
    value = float(match.group(1))
    suffix = match.group(2).upper()
    scale = {"": 1, "K": K_TOKENS, "M": M_TOKENS}[suffix]
    result = value * scale
    if result != int(result):
        raise ValueError(f"token count {text!r} is not an integer")
    return int(result)


def format_tokens(n: int) -> str:
    """Format a token count the way the paper's tables do (256K, 2M, ...)."""
    if n % M_TOKENS == 0:
        return f"{n // M_TOKENS}M"
    if n % K_TOKENS == 0:
        return f"{n // K_TOKENS}K"
    return str(n)


def format_bytes(n: float, *, binary: bool = True) -> str:
    """Human-readable byte count. ``binary=True`` uses GiB-style units
    but prints the paper's bare suffixes (G, M, K) since that is how the
    paper reports HBM usage (e.g. "68.0G")."""
    units = (
        [(TIB, "T"), (GIB, "G"), (MIB, "M"), (KIB, "K")]
        if binary
        else [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]
    )
    for scale, suffix in units:
        if abs(n) >= scale:
            return f"{n / scale:.1f}{suffix}"
    return f"{n:.0f}B"
