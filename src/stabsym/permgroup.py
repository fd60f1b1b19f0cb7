"""Permutation groups with a stabilizer chain (deterministic Schreier-Sims).

Permutations are tuples p of length `degree` with p[i] = image of i; they
compose as functions acting on the left: (p * q)(x) = p(q(x)).  Each level of
the chain keeps the inverse of every coset representative beside it, so
sifting and the Schreier generators compose with stored inverses and never
invert (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
"""

from __future__ import annotations

import time
from operator import itemgetter

from .errors import SearchTimeout


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """p * q as one C-level gather of p at the points of q."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    return tuple(p[x] for x in q)  # itemgetter of one point returns no tuple


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_identity(p):
    return tuple(p) == identity_perm(len(p))


class PermGroup:
    """A permutation group certified by a stabilizer chain."""

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = identity_perm(degree)
        self.base = []
        self.level_gens = []  # level_gens[l]: generators stabilizing base[:l]
        self.transversals = []  # transversals[l]: dict point -> coset rep u, u(base[l]) = point
        self.inverse_transversals = []  # inverse_transversals[l]: dict point -> u^-1
        self.generators = []  # the externally supplied generators

    @classmethod
    def from_generators(cls, gens, degree=None, base_hint=None, order=None, deadline=None):
        """The chain of the group the generators generate.

        `order`, when given, must be that group's certified order: sifting
        then stops once the transversal sizes multiply to it (the known-order
        criterion, Seress 2003, section 4.5), which leaves a complete base and
        strong generating set.  `deadline`, a `time.monotonic()` value, bounds
        the build as in `add_generator`.
        """
        gens = [tuple(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("need degree for the trivial group")
            degree = len(gens[0])
        grp = cls(degree)
        if base_hint:
            for b in base_hint:
                grp._append_base_point(b)
        for g in gens:
            grp.add_generator(g, order=order, deadline=deadline)
        return grp

    # -- chain maintenance -------------------------------------------------
    def _append_base_point(self, b):
        self.base.append(b)
        self.level_gens.append([])
        self.transversals.append({b: self.identity})
        self.inverse_transversals.append({b: self.identity})

    def _rebuild_orbit(self, l):
        """BFS orbit of base[l] under level_gens[l]; returns new points."""
        trans, invs = self.transversals[l], self.inverse_transversals[l]
        queue = list(trans)
        new_points = []
        qi = 0
        while qi < len(queue):
            beta = queue[qi]
            qi += 1
            u = trans[beta]
            for g in self.level_gens[l]:
                gamma = g[beta]
                if gamma not in trans:
                    u_gamma = compose(g, u)
                    trans[gamma] = u_gamma
                    invs[gamma] = inverse(u_gamma)
                    queue.append(gamma)
                    new_points.append(gamma)
        return new_points

    def _sift(self, p, start=0):
        base, invs = self.base, self.inverse_transversals
        for l in range(start, len(base)):
            u_inv = invs[l].get(p[base[l]])
            if u_inv is None:
                return p, l
            p = compose(u_inv, p)
        return p, len(base)

    def sift(self, p):
        """Residue of p against the chain; identity iff p is a member."""
        residue, _ = self._sift(tuple(p))
        return residue

    def contains(self, p):
        return self.sift(p) == self.identity

    __contains__ = contains

    def add_generator(self, g, order=None, deadline=None):
        """Insert g (and all induced Schreier generators) into the chain.

        With `order`, the certified order of the group the chain then
        generates, sifting stops as soon as the chain reaches that order.
        With `deadline`, a `time.monotonic()` value, each step checks the
        clock first and raises `SearchTimeout`, carrying the partial chain,
        once the deadline is reached.
        """
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError("degree mismatch")
        self.generators.append(g)
        if order is not None and self.order() == order:
            return
        ident = self.identity
        stack = [(0, g)]
        while stack:
            if deadline is not None and time.monotonic() >= deadline:
                raise SearchTimeout("stabilizer chain deadline reached", partial=self)
            start, p = stack.pop()
            residue, l = self._sift(p, start)
            if residue == ident:
                continue
            if l == len(self.base):
                b = next(i for i, x in enumerate(residue) if x != i)
                self._append_base_point(b)
            # the residue stabilizes base[:l], so it strengthens levels <= l
            for i in range(l, -1, -1):
                self.level_gens[i].append(residue)
            new_pts = [self._rebuild_orbit(i) for i in range(l + 1)]
            if order is not None:
                reached = self.order()
                if reached > order:
                    raise ValueError(f"generators exceed the stated order {order}")
                if reached == order:
                    return
            for i in range(l + 1):
                # Schreier generators: new generator against the whole orbit,
                # old generators against the newly reached points
                trans, invs = self.transversals[i], self.inverse_transversals[i]
                for beta, u in trans.items():
                    s = compose(invs[residue[beta]], compose(residue, u))
                    if s != ident:
                        stack.append((i + 1, s))
                for beta in new_pts[i]:
                    u = trans[beta]
                    for h in self.level_gens[i]:
                        s = compose(invs[h[beta]], compose(h, u))
                        if s != ident:
                            stack.append((i + 1, s))

    def order(self) -> int:
        n = 1
        for trans in self.transversals:
            n *= len(trans)
        return n

    def orbit_of(self, l, points):
        """Orbit of a point set under the level-l stabilizer generators."""
        gens = self.level_gens[l] if l < len(self.level_gens) else []
        seen = set(points)
        queue = list(points)
        while queue:
            beta = queue.pop()
            for g in gens:
                gamma = g[beta]
                if gamma not in seen:
                    seen.add(gamma)
                    queue.append(gamma)
        return seen

    def to_json(self):
        strong = self.level_gens[0] if self.level_gens else []
        return {
            "degree": self.degree,
            "order": str(self.order()),
            "base": list(self.base),
            "strong_generators": [list(g) for g in strong],
        }


def schreier_sims(gens, degree=None) -> PermGroup:
    """Build a certified PermGroup (stabilizer chain) from generators."""
    return PermGroup.from_generators(gens, degree=degree)
