"""Setchain elements.

An element is the client-created unit stored by the Setchain (paper §2): it is
signed by its creating client, can be validated by servers for syntactic and
semantic correctness, and — by assumption — cannot be forged by a server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import InvalidElementError

_element_counter = itertools.count()


def element_signing_payload(element_id: int, client: str, size_bytes: int,
                            body_digest: str) -> str:
    """Canonical string a client signs when creating an element."""
    return f"element|{element_id}|{client}|{size_bytes}|{body_digest}"


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A client-created Setchain element.

    Attributes
    ----------
    element_id:
        Unique identifier (stands in for the transaction hash of the Arbitrum
        trace element).
    client:
        Identifier of the creating client.
    size_bytes:
        Modelled wire size of the element (dominates all throughput results).
    body_digest:
        Digest of the element body; the simulation does not carry the raw
        payload bytes around, only their digest and size.
    signature:
        Client signature over :func:`element_signing_payload`.  Empty for
        deliberately invalid elements injected by fault tests.
    created_at:
        Simulated creation time (latency stage 0).
    valid:
        Syntactic/semantic validity flag checked by ``valid_element``.
        Byzantine clients and servers may circulate elements with
        ``valid=False``; correct servers discard them.
    """

    element_id: int
    client: str
    size_bytes: int
    body_digest: str
    signature: bytes = b""
    created_at: float = 0.0
    valid: bool = True
    #: Cached canonical encoding — every batch/epoch hash re-reads it, so it
    #: is computed once at construction (the fields are frozen).
    _canonical: bytes = field(init=False, repr=False, compare=False, default=b"")
    #: Cached ``hash()`` — elements live in epoch/history sets rebuilt on hot
    #: paths, and the fields never change.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __init__(self, element_id: int, client: str, size_bytes: int,
                 body_digest: str, signature: bytes = b"",
                 created_at: float = 0.0, valid: bool = True) -> None:
        # Hundreds of thousands of elements are built per run, so the frozen
        # fields are written through their slot descriptors (bound once below
        # the class) instead of one ``object.__setattr__`` call each.
        if size_bytes <= 0:
            raise InvalidElementError("element size must be positive")
        _set_element_id(self, element_id)
        _set_client(self, client)
        _set_size_bytes(self, size_bytes)
        _set_body_digest(self, body_digest)
        _set_signature(self, signature)
        _set_created_at(self, created_at)
        _set_valid(self, valid)
        _set_canonical(self, element_signing_payload(
            element_id, client, size_bytes, body_digest).encode())
        # Same tuple the dataclass-generated __hash__ would hash (the compare
        # fields, in declaration order), so set iteration orders are unchanged.
        _set_hash(self, hash((element_id, client, size_bytes, body_digest,
                              signature, created_at, valid)))

    def __hash__(self) -> int:
        return self._hash

    def canonical_bytes(self) -> bytes:
        """Stable encoding used for batch/epoch hashing (cached)."""
        return self._canonical

    @property
    def is_element(self) -> bool:
        """Type tag used when unpacking mixed batches (elements + epoch-proofs)."""
        return True


(_set_element_id, _set_client, _set_size_bytes, _set_body_digest,
 _set_signature, _set_created_at, _set_valid, _set_canonical, _set_hash) = (
    getattr(Element, name).__set__ for name in Element.__slots__)


def make_element(client: str, size_bytes: int, body_digest: str = "",
                 created_at: float = 0.0, valid: bool = True,
                 signature: bytes = b"") -> Element:
    """Create a fresh element with a globally unique id."""
    element_id = next(_element_counter)
    return Element(element_id=element_id, client=client, size_bytes=size_bytes,
                   body_digest=body_digest or f"digest-{element_id}",
                   signature=signature, created_at=created_at, valid=valid)


def make_elements(client: str, sizes: list[int],
                  created_at: float = 0.0) -> list[Element]:
    """Create one valid element per size — ids identical to ``make_element``
    called once per size, with the constructor lookups hoisted."""
    counter = _element_counter
    make = Element
    return [make(eid := next(counter), client, size, f"digest-{eid}", b"",
                 created_at)
            for size in sizes]
