"""Test-only introspection of version lists."""

from chronocas import INVALID_NEXTV


def head(cell):
    """The newest record of ``cell``'s version list (the shared sentinel
    while a direct cell is empty)."""
    return cell._head


def version_chain(cell) -> list:
    """The records of ``cell``'s version list, newest first, up to its end
    (None) or a link reclamation has cut (``INVALID_NEXTV``).  Not
    linearizable: call it only while no other thread updates the cell."""
    chain = []
    node = head(cell)
    while node is not None and node is not INVALID_NEXTV:
        chain.append(node)
        node = node.nextv
    return chain
