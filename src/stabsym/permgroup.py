"""Permutation groups with a stabilizer chain (deterministic Schreier-Sims).

Permutations are tuples p of length `degree` with p[i] = image of i; they
compose as functions acting on the left: (p * q)(x) = p(q(x)).  Each level of
the chain keeps the inverse of every coset representative beside it, so
sifting and the Schreier generators compose with stored inverses and never
invert (Seress, *Permutation Group Algorithms*, 2003, ch. 4).  A complete
chain moves to another base by sifting random elements of the group until
the known order is reached (`PermGroup.rebased`, Seress 2003, section 5.4).
"""

from __future__ import annotations

import random
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
    def from_generators(cls, gens, degree=None, deadline=None):
        """The chain of the group the generators generate.

        `deadline`, a `time.monotonic()` value, bounds the build as in
        `add_generator`.
        """
        gens = [tuple(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("need degree for the trivial group")
            degree = len(gens[0])
        grp = cls(degree)
        for g in gens:
            grp.add_generator(g, deadline=deadline)
        return grp

    def rebased(self, base, deadline=None):
        """The same group on a chain whose base starts with `base`.

        Draws uniformly random elements of this complete chain (one random
        coset representative per level, multiplied u_0 * u_1 * ..., from
        `random.Random(0)`), sifts each into the new chain and adds every
        non-identity residue to the generators of every level up to the one
        it sifted to, until the transversal sizes multiply to `self.order()`.
        This is exact: for any chain the product of the transversal sizes is
        at most |<S_0>| <= |G|, and equality forces <S_i> to be the full
        stabilizer of base[:i] at every level.  `deadline`, a
        `time.monotonic()` value checked once per drawn element, raises
        `SearchTimeout` carrying the partial chain.
        """
        grp = PermGroup(self.degree)
        grp.generators = list(self.generators)
        for b in base:
            grp._append_base_point(b)
        order, ident = self.order(), self.identity
        reps = [list(trans.values()) for trans in self.transversals]
        rng = random.Random(0)
        while grp.order() < order:
            if deadline is not None and time.monotonic() >= deadline:
                raise SearchTimeout("stabilizer chain deadline reached", partial=grp)
            p = ident
            for level in reps:
                p = compose(p, rng.choice(level))
            residue, l = grp._sift(p)
            if residue != ident:
                grp._add_strong_generator(residue, l)
        return grp

    # -- chain maintenance -------------------------------------------------
    def _append_base_point(self, b):
        self.base.append(b)
        self.level_gens.append([])
        self.transversals.append({b: self.identity})
        self.inverse_transversals.append({b: self.identity})

    def _add_strong_generator(self, residue, l):
        """Add a residue that sifted to level l (so it fixes base[:l]) to the
        generators of levels <= l; returns each level's new orbit points."""
        if l == len(self.base):
            self._append_base_point(next(i for i, x in enumerate(residue) if x != i))
        for gens in self.level_gens[:l + 1]:
            gens.append(residue)
        return [self._rebuild_orbit(i) for i in range(l + 1)]

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
            b = base[l]
            if p[b] == b:  # the representative is the identity
                continue
            u_inv = invs[l].get(p[b])
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

    def add_generator(self, g, deadline=None):
        """Insert g (and all induced Schreier generators) into the chain.

        Each Schreier generator is sifted once per call: transversals and the
        base only grow and a stored representative never changes, so a perm
        that once sifted to the identity always does, and one that left a
        residue lies in the group of the strong generators from then on.
        With `deadline`, a `time.monotonic()` value, each step checks the
        clock first and raises `SearchTimeout`, carrying the partial chain,
        once the deadline is reached.
        """
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError("degree mismatch")
        self.generators.append(g)
        ident = self.identity
        stack = [(0, g)]
        pushed = set()  # (level, perm) of every Schreier generator stacked
        while stack:
            if deadline is not None and time.monotonic() >= deadline:
                raise SearchTimeout("stabilizer chain deadline reached", partial=self)
            start, p = stack.pop()
            residue, l = self._sift(p, start)
            if residue == ident:
                continue
            new_pts = self._add_strong_generator(residue, l)
            for i in range(l + 1):
                # Schreier generators: new generator against the whole orbit,
                # old generators against the newly reached points
                trans, invs = self.transversals[i], self.inverse_transversals[i]
                schreier = [compose(invs[residue[beta]], compose(residue, u))
                            for beta, u in trans.items()]
                for beta in new_pts[i]:
                    u = trans[beta]
                    schreier.extend(compose(invs[h[beta]], compose(h, u))
                                    for h in self.level_gens[i])
                for s in schreier:
                    key = (i + 1, s)
                    if s != ident and key not in pushed:
                        pushed.add(key)
                        stack.append(key)

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
