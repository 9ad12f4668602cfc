"""Discrete cube vertex sets and vertex-indexed function tuples.

A vertex ``alpha`` of the k-cube ``{0,1}^k`` is stored as a bitmask: bit ``i``
selects whether the shift ``h_i`` enters the factor at that vertex, so
``alpha . h = sum_i bit_i(alpha) * h_i``. The punctured cube drops the all
zero vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import common_frame, union_box


@dataclass(frozen=True)
class VertexSet:
    """The cube ``{0,1}^k`` (or its punctured version) as bitmask vertices."""

    k: int
    punctured: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"vertex set requires k >= 1, got {self.k}")

    @property
    def members(self):
        start = 1 if self.punctured else 0
        return tuple(range(start, 1 << self.k))

    def __len__(self):
        return (1 << self.k) - (1 if self.punctured else 0)


class FunctionTuple:
    """A complete family ``(f_alpha)`` over ``V_k`` or its punctured version.

    All members must share the lattice spacing; they are embedded into their
    common bounding box once, so kernels can index a dense stack.
    """

    def __init__(self, vertex_set, functions):
        self.vertex_set = vertex_set
        members = vertex_set.members
        if isinstance(functions, dict):
            missing = [a for a in members if a not in functions]
            if missing:
                raise ValueError(f"function tuple is missing vertices {missing}")
            ordered = [functions[a] for a in members]
        else:
            ordered = list(functions)
            if len(ordered) != len(members):
                raise ValueError(
                    f"expected {len(members)} functions for k={vertex_set.k}"
                    f"{' punctured' if vertex_set.punctured else ''},"
                    f" got {len(ordered)}"
                )
        self.functions = tuple(ordered)
        self.spacing = self.functions[0].spacing
        self.dim = self.functions[0].dim

    @classmethod
    def full(cls, k, functions):
        return cls(VertexSet(k), functions)

    @classmethod
    def punctured(cls, k, functions):
        return cls(VertexSet(k, punctured=True), functions)

    @classmethod
    def constant(cls, f, k, punctured=False):
        """The all-equal tuple ``f_alpha = f``."""
        vs = VertexSet(k, punctured=punctured)
        return cls(vs, [f] * len(vs))

    @property
    def k(self):
        return self.vertex_set.k

    def __getitem__(self, alpha):
        members = self.vertex_set.members
        return self.functions[members.index(alpha)]

    def __iter__(self):
        return iter(self.functions)

    @property
    def extent(self):
        """The largest per-axis extent of the members' common box."""
        lo, hi = union_box([f.box for f in self.functions])
        return max(h - l for l, h in zip(lo, hi))

    def stacked(self):
        """``(lo, hi, stack)``: members embedded into the common box, in vertex order."""
        return common_frame(self.functions)

    def is_nonnegative(self):
        return all(float(f.values.min()) >= 0.0 for f in self.functions)
