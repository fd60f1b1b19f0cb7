"""Permutation groups with a stabilizer chain.

Permutations are tuples p of length `degree` with p[i] = image of i; they
compose as functions acting on the left: (p * q)(x) = p(q(x)).  Each level of
the chain keeps a Schreier tree of its orbit: every orbit point gamma other
than the base point has an edge (beta, i) with level_gens[l][i][beta] = gamma
(Seress, *Permutation Group Algorithms*, 2003, section 4.1).  A coset
representative and its inverse are built only when asked for, by walking the
tree to the nearest cached ancestor, and cached per level; sifting composes
with these cached inverses, built from the stored generator inverses, and
never inverts.  A new strong generator extends each level's orbit
incrementally, from the old points under the new generator and from the new
points under every generator, one gather per generator and frontier and no
composition.

Two ways build a chain.  `add_generator` (`from_generators`, `schreier_sims`)
is deterministic Schreier-Sims: every Schreier generator is sifted, so the
chain is complete.  `random_chain` sifts the generators and then random
products of them (Seress 2003, section 4.3): the result is a chain of a
subgroup of the generated group on a base of the caller's choosing, and it is
complete only once a caller certifies its order.
"""

from __future__ import annotations

import random
import time
from operator import itemgetter

from .errors import SearchTimeout

# `random_chain` stops after this many consecutive random elements sift to the
# identity; its callers certify the chain, so the count affects speed only
RANDOM_SIFT_STOP = 24
# product-replacement state size (Celler, Leedham-Green, Murray, Niemeyer and
# O'Brien, Comm. Algebra 23 (1995))
_PRODUCT_SLOTS = 10


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


class PermGroup:
    """A permutation group certified by a stabilizer chain."""

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = identity_perm(degree)
        self.base = []
        self.level_gens = []  # level_gens[l]: generators stabilizing base[:l]
        self.level_gen_inverses = []  # level_gen_inverses[l][i]: level_gens[l][i]^-1
        # transversals[l]: the Schreier tree, dict orbit point gamma -> edge
        # (beta, i) with level_gens[l][i][beta] = gamma, None at base[l]
        self.transversals = []
        # _reps[l], _inverse_reps[l]: dict point gamma -> the coset
        # representative u_gamma (u_gamma(base[l]) = gamma) or its inverse,
        # for the points asked for so far and their tree ancestors
        self._reps = []
        self._inverse_reps = []
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

    @classmethod
    def random_chain(cls, gens, base, degree, deadline=None):
        """A chain of a subgroup of <gens> on a base starting with `base`.

        Sifts each generator, then product-replacement products of `gens`
        (the "rattle" accumulator over `_PRODUCT_SLOTS` slots, drawn from
        `random.Random(0)`), and adds every non-identity residue as a strong
        generator, until `RANDOM_SIFT_STOP` consecutive elements sift to the
        identity.  No Schreier generator is formed, so the chain may be
        incomplete: its membership answers "yes" are sound, its orbits are
        orbits of subgroups of the pointwise stabilizers, and it is complete
        only once a caller certifies its order (the automorphism search does).
        `deadline`, a `time.monotonic()` value checked once per drawn element,
        raises `SearchTimeout` carrying the partial chain.
        """
        grp = cls(degree)
        grp.generators = [tuple(g) for g in gens]
        for b in base:
            grp._append_base_point(b)

        def check_deadline():
            if deadline is not None and time.monotonic() >= deadline:
                raise SearchTimeout("stabilizer chain deadline reached", partial=grp)

        for g in grp.generators:
            check_deadline()
            grp._add_residue(g)
        if not grp.generators:
            return grp
        rng = random.Random(0)
        slots = [grp.generators[i % len(grp.generators)]
                 for i in range(max(_PRODUCT_SLOTS, len(grp.generators)))]
        acc = grp.identity
        identity_run = 0
        while identity_run < RANDOM_SIFT_STOP:
            check_deadline()
            i, j = rng.sample(range(len(slots)), 2)
            slots[i] = compose(slots[i], slots[j]) if rng.random() < 0.5 else compose(
                slots[j], slots[i])
            acc = compose(acc, slots[i])
            identity_run = 0 if grp._add_residue(acc) else identity_run + 1
        return grp

    def adjoin(self, g, deadline=None):
        """Add g to the generators and its residue to the strong generators.

        Orbits close under the residue, but no Schreier generator is formed:
        the chain stays a chain of a subgroup of <generators> (as from
        `random_chain`), complete only once a caller certifies its order.
        With `deadline`, a `time.monotonic()` value, the clock is checked
        first and a reached deadline raises `SearchTimeout`, carrying the
        chain as it was, as in `add_generator`.
        """
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError("degree mismatch")
        if deadline is not None and time.monotonic() >= deadline:
            raise SearchTimeout("stabilizer chain deadline reached", partial=self)
        self.generators.append(g)
        self._add_residue(g)

    # -- chain maintenance -------------------------------------------------
    def _append_base_point(self, b):
        self.base.append(b)
        self.level_gens.append([])
        self.level_gen_inverses.append([])
        self.transversals.append({b: None})
        self._reps.append({b: self.identity})
        self._inverse_reps.append({b: self.identity})

    def _add_residue(self, p):
        """Sift p and add a non-identity residue as a strong generator;
        returns whether it did."""
        residue, l = self._sift(p)
        if residue == self.identity:
            return False
        self._add_strong_generator(residue, l)
        return True

    def _add_strong_generator(self, residue, l):
        """Add a residue that sifted to level l (so it fixes base[:l]) to the
        generators of levels <= l; returns each level's new orbit points."""
        if l == len(self.base):
            self._append_base_point(next(i for i, x in enumerate(residue) if x != i))
        residue_inv = inverse(residue)
        new_points = []
        for i in range(l + 1):
            self.level_gens[i].append(residue)
            self.level_gen_inverses[i].append(residue_inv)
            new_points.append(self._extend_orbit(i))
        return new_points

    def _extend_orbit(self, l):
        """Close level l's orbit after a generator joined it last: that
        generator on every old point, then every generator on the new points,
        a frontier at a time.  Each new point gamma gets the edge (beta, i)
        with beta = h^-1[gamma] for h = level_gens[l][i]; nothing is
        composed.  Returns the new points."""
        tree = self.transversals[l]
        gens, gen_inverses = self.level_gens[l], self.level_gen_inverses[l]
        new_points = []
        frontier, movers = list(tree), [len(gens) - 1]
        while frontier:
            reached = []
            for i in movers:
                h = gens[i]
                images = itemgetter(*frontier)(h) if len(frontier) > 1 else (h[frontier[0]],)
                h_inv = gen_inverses[i]
                for gamma in set(images).difference(tree):
                    tree[gamma] = (h_inv[gamma], i)
                    reached.append(gamma)
            new_points += reached
            frontier, movers = reached, range(len(gens))
        return new_points

    def _representative(self, l, gamma, inverted=False):
        """u_gamma, or u_gamma^-1 when `inverted`, from the nearest cached
        ancestor of gamma in level l's tree: u_gamma = h * u_beta and
        u_gamma^-1 = u_beta^-1 * h^-1 along the edge (beta, i), h =
        level_gens[l][i].  Caches every representative on the way."""
        tree = self.transversals[l]
        cache = (self._inverse_reps if inverted else self._reps)[l]
        gens = (self.level_gen_inverses if inverted else self.level_gens)[l]
        path = []
        while gamma not in cache:
            path.append(gamma)
            gamma = tree[gamma][0]
        u = cache[gamma]
        for gamma in reversed(path):
            h = gens[tree[gamma][1]]
            u = cache[gamma] = compose(u, h) if inverted else compose(h, u)
        return u

    def _sift(self, p, start=0):
        base, trees, invs = self.base, self.transversals, self._inverse_reps
        for l in range(start, len(base)):
            b = base[l]
            gamma = p[b]
            if gamma == b:  # the representative is the identity
                continue
            u_inv = invs[l].get(gamma)
            if u_inv is None:
                if gamma not in trees[l]:
                    return p, l
                u_inv = self._representative(l, gamma, inverted=True)
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

        Each Schreier generator is sifted once per call: trees and the base
        only grow and a tree edge never changes, so neither does a
        representative, and a perm that once sifted to the identity always
        does, and one that left a residue lies in the group of the strong
        generators from then on.  With `deadline`, a `time.monotonic()`
        value, each step checks the clock first and raises `SearchTimeout`,
        carrying the partial chain, once the deadline is reached.
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
            rep = self._representative
            for i in range(l + 1):
                # Schreier generators u_{h beta}^-1 h u_beta: new generator
                # against the whole orbit, every generator against the newly
                # reached points
                schreier = [compose(rep(i, residue[beta], inverted=True),
                                    compose(residue, rep(i, beta)))
                            for beta in self.transversals[i]]
                for beta in new_pts[i]:
                    u = rep(i, beta)
                    schreier.extend(compose(rep(i, h[beta], inverted=True), compose(h, u))
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
