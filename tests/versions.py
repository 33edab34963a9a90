"""Test-only introspection of version lists."""

from chronocas import INVALID_NEXTV


def version_chain(cell) -> list:
    """The records of ``cell``'s version list, newest first, up to its end
    (None) or a link reclamation has cut (``INVALID_NEXTV``).  Not
    linearizable: call it only while no other thread updates the cell."""
    chain = []
    node = cell._head.read()
    while node is not None and node is not INVALID_NEXTV:
        chain.append(node)
        node = node.nextv
    return chain
