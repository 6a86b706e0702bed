"""IPv4 networking primitives used across the library.

Everything in this package represents IPv4 addresses as plain Python
integers (``0 <= a < 2**32``) for speed, with :class:`Prefix` as the
canonical prefix type. Higher-level containers:

* :class:`PrefixSet` — compressed, immutable set of address intervals
  supporting union/intersection/containment and /24-equivalent sizing,
  plus numpy-vectorised bulk membership tests.
"""

from repro.net.addr import (
    MAX_IPV4,
    addr_to_int,
    int_to_addr,
    parse_prefix,
    random_addr_in_prefix,
)
from repro.net.errors import AddressError, PrefixError
from repro.net.prefix import Prefix
from repro.net.prefixset import PrefixSet
from repro.net.sampling import IntervalSampler

__all__ = [
    "MAX_IPV4",
    "AddressError",
    "IntervalSampler",
    "Prefix",
    "PrefixError",
    "PrefixSet",
    "addr_to_int",
    "int_to_addr",
    "parse_prefix",
    "random_addr_in_prefix",
]
