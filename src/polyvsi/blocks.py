"""Node-indexed block matrices.

A polyphase network matrix is naturally indexed by (node, phase) pairs.
BlockMatrix wraps a dense complex array together with the node orderings of
its rows and columns so that P x P blocks can be addressed by node id instead
of raw offsets.  The wrapper is immutable; every operation returns a new
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BlockMatrix:
    """Dense complex matrix with P x P blocks addressed by node ids.

    data has shape (len(row_nodes) * p, len(col_nodes) * p).  Node ids may be
    any hashable values; ordering is the tuple order given at construction.
    """

    data: np.ndarray
    row_nodes: tuple
    col_nodes: tuple
    p: int
    _row_index: dict = field(init=False, repr=False, compare=False)
    _col_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._freeze(np.array(self.data, dtype=complex))

    @classmethod
    def _adopt(cls, data: np.ndarray, row_nodes, col_nodes, p: int) -> "BlockMatrix":
        """Wrap an array the library has just built, taking it over uncopied.

        The array becomes read-only.  Arrays from callers go through the
        public constructor, which copies them.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "row_nodes", row_nodes)
        object.__setattr__(out, "col_nodes", col_nodes)
        object.__setattr__(out, "p", p)
        out._freeze(np.asarray(data, dtype=complex))
        return out

    def _freeze(self, data: np.ndarray):
        """Validate, then store data (owned by this instance) read-only."""
        expected = (len(self.row_nodes) * self.p, len(self.col_nodes) * self.p)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} does not match {expected}")
        if self.p < 1:
            raise ValueError("phase count must be >= 1")
        if len(set(self.row_nodes)) != len(self.row_nodes):
            raise ValueError("duplicate row node ids")
        if len(set(self.col_nodes)) != len(self.col_nodes):
            raise ValueError("duplicate column node ids")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "row_nodes", tuple(self.row_nodes))
        object.__setattr__(self, "col_nodes", tuple(self.col_nodes))
        object.__setattr__(self, "_row_index", {n: i for i, n in enumerate(self.row_nodes)})
        object.__setattr__(self, "_col_index", {n: i for i, n in enumerate(self.col_nodes)})

    @property
    def square(self) -> bool:
        return self.row_nodes == self.col_nodes

    def _flat(self, index: dict, nodes) -> np.ndarray:
        first = np.array([index[n] for n in nodes], dtype=int).reshape(-1, 1) * self.p
        return (first + np.arange(self.p)).ravel()

    def row_slice(self, node) -> slice:
        i = self._row_index[node]
        return slice(i * self.p, (i + 1) * self.p)

    def col_slice(self, node) -> slice:
        i = self._col_index[node]
        return slice(i * self.p, (i + 1) * self.p)

    def block(self, row_node, col_node) -> np.ndarray:
        """Return the P x P block coupling row_node to col_node (read-only view)."""
        return self.data[self.row_slice(row_node), self.col_slice(col_node)]

    def row_indices(self, nodes) -> np.ndarray:
        """Flat row indices covering the given nodes, in the given order."""
        return self._flat(self._row_index, nodes)

    def col_indices(self, nodes) -> np.ndarray:
        return self._flat(self._col_index, nodes)

    def submatrix(self, row_nodes, col_nodes) -> "BlockMatrix":
        """Extract the sub-blockmatrix over the given node orderings."""
        rows = self.row_indices(row_nodes)
        cols = self.col_indices(col_nodes)
        sub = self.data[np.ix_(rows, cols)]
        return BlockMatrix._adopt(sub, tuple(row_nodes), tuple(col_nodes), self.p)

    def __eq__(self, other):
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.row_nodes == other.row_nodes
            and self.col_nodes == other.col_nodes
            and np.array_equal(self.data, other.data)
        )
