"""Bit-size accounting for headers and tables (Section 1.1.4).

The paper's compactness claims are stated in bits: headers are
``O(log^2 n)`` bits, tables ``~O(sqrt(n))`` entries of ``O(polylog)``
bits each.  This module assigns every header/table value a principled
bit size so experiments can check the claims:

* identifiers (names, vertex ids, ports, block indices):
  ``ceil(log2 n)`` bits;
* tree addresses: two identifier fields;
* mode/enumeration tags: 3 bits;
* booleans: 1 bit; small counters: ``ceil(log2 (k+1))`` treated as
  identifiers for simplicity;
* containers: sum of elements plus an identifier-sized length field.

Objects may implement ``header_bits(n) -> int`` to control their own
accounting; the structured labels in :mod:`repro.rtz` do.
"""

from __future__ import annotations

import math
from typing import Any

from repro.tree_routing.fixed_port import id_bits  # noqa: F401 (re-export)


#: bits charged for a mode / enum tag
MODE_BITS = 3


def bit_size(value: Any, n: int) -> int:
    """Recursively estimate the encoded size of ``value`` in bits.

    Args:
        value: header field or table entry.
        n: network size (sets identifier width).

    Raises:
        TypeError: for values with no defined encoding.
    """
    if value is None:
        return 1
    custom = getattr(value, "header_bits", None)
    if callable(custom):
        return custom(n)
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return id_bits(n)
    if isinstance(value, float):
        return 32
    if isinstance(value, str):
        return MODE_BITS
    if isinstance(value, (list, tuple)):
        return id_bits(n) + sum(bit_size(x, n) for x in value)
    if isinstance(value, dict):
        return id_bits(n) + sum(
            bit_size(k, n) + bit_size(v, n) for k, v in value.items()
        )
    raise TypeError(f"no bit-size rule for {type(value).__name__}")


def header_bits(header: dict, n: int) -> int:
    """Total bit size of a packet header (field tags included)."""
    total = 0
    for key, value in header.items():
        total += MODE_BITS  # field tag
        total += bit_size(value, n)
    return total


def entries_to_bits(entries: int, n: int, entry_fields: int = 2) -> int:
    """Convert a table-entry count to bits assuming ``entry_fields``
    identifier-sized fields per entry (key + value by default)."""
    return entries * entry_fields * id_bits(n)


def log2_squared(n: int) -> float:
    """``log2(n)^2`` — the header budget the paper allows."""
    return math.log2(max(n, 2)) ** 2
