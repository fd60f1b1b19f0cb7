"""Symmetry groups of finite state families: certified Gram-matrix
automorphism groups via individualization-refinement, the predicted groups of
the four classification cases, and their mutual-containment verification."""

from __future__ import annotations

import math
import os
import random
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .clifford import (
    k_alpha,
    primitive_root,
    qubit_gate_action,
    real_clifford_closure,
    real_clifford_orbit,
    sp_generators,
    sp_order_formula,
    transpose_action,
)
from .errors import Mismatch, NotBasisPreserving, OddOnly, SearchTimeout, Unsupported
from .operators import GramMatrix, character_keys, stabilizer_set, stabilizer_states
from .permgroup import PermGroup, schreier_sims
from .phase_space import (
    all_vectors,
    code_points,
    enumerate_lagrangians,
    jvec,
    label_permutations,
    lagrangian_index,
    lagrangian_tables,
    wreath_compose,
    wreath_decompose,
)


def budget_seconds(value) -> float:
    """A time budget in seconds: a finite number >= 0, else ValueError (a NaN
    or infinite deadline would never be reached)."""
    budget = float(value)
    if not 0 <= budget < math.inf:
        raise ValueError(f"time budget must be a finite number >= 0, got {value!r}")
    return budget


def default_time_budget() -> float:
    """The search time budget in seconds: $STABSYM_BUDGET_SECONDS, else 600.
    A value that `budget_seconds` rejects is a usage error."""
    raw = os.environ.get("STABSYM_BUDGET_SECONDS", "600")
    try:
        return budget_seconds(raw)
    except ValueError:
        raise Unsupported(
            f"STABSYM_BUDGET_SECONDS must be a finite number >= 0, got {raw!r}") from None


class AutomorphismSearch:
    """Complete individualization-refinement search for the color
    automorphisms of a Gram: the permutations that preserve its codes.

    Refinement is exact and splitter-driven (McKay & Piperno, "Practical graph
    isomorphism, II", J. Symb. Comput. 60 (2014); Junttila & Kaski, bliss,
    ALENEX 2007).  Each round takes every queued splitter cell in cell-id
    order and gives each vertex of a non-singleton cell the signature (cell
    id, the multiset of its edge colors into each splitter), held exactly as
    small integers: its colors into each splitter, sorted.  Cells split by
    signature; new cell ids follow the sorted signatures, so labels depend
    only on the labelled partition, never on the branch.  The root starts
    with every cell queued; a child starts with just its individualized
    singleton, since the parent was equitable.  Of each split cell all
    fragments but the first largest are queued (Hopcroft): after a round the
    partition is stable against the old cell and the queued fragments, hence
    against the skipped one.  An empty queue therefore leaves an equitable
    partition.

    Target cell: the first largest non-singleton cell.  Its choice depends
    only on the labelled partition, so nodes in one automorphism orbit pick
    corresponding cells and the orbit and invariant pruning below stay sound.
    Individualizing in a large cell splits the partition furthest, so the
    first path is short and few sibling subtrees survive the pruning: the
    seeded (3,2) search refines 5 times instead of 6 821 times with the
    first smallest cell.

    Node invariant: the split trace, i.e. every round's sorted signatures and
    fragment sizes.  It is a function of the labelled partition, so nodes in
    one automorphism orbit share it, and a node whose trace differs from the
    first path's at its depth cannot lead to an automorphism of the first
    leaf.  Such a node stops refining at the first round that departs from
    the path's trace.

    Soundness: the seeds and every emitted generator are verified against
    the color matrix, so the chain holds automorphisms only.

    Completeness, by the orbit-product certificate (the group order of nauty:
    McKay & Piperno 2014).  Once the first path fixes the search base
    b_0, ..., b_(m-1), the chain is `PermGroup.random_chain` of the seeds on
    that base: a chain of a subgroup of <seeds>, possibly incomplete.  Each
    level k of the chain acts with a subgroup of Aut_(b_0..b_(k-1)), the
    pointwise stabilizer, so pruning by its orbits discards only vertices
    with no automorphism to find or whose automorphisms the chain already
    has, and a "yes" from its membership test is always sound.  A found
    automorphism gamma outside the chain is `PermGroup.adjoin`ed: its residue
    becomes a strong generator and the orbits close under it, with no
    Schreier generators.  At depth k every vertex of the target cell is
    either searched (an automorphism fixing b_0..b_(k-1) and taking b_k to
    it is found whenever one exists) or lies in the chain's orbit of a
    searched vertex, so once the tree is exhausted the level-k transversal is
    the orbit of b_k under all of Aut_(b_0..b_(k-1)).  An automorphism
    fixing the whole base fixes the discrete first leaf, hence is the
    identity, so |Aut| is the product of the transversal sizes, `order()`.
    That product is at most the order of the group the strong generators
    generate, a subgroup of Aut; equality makes the chain complete.
    """

    def __init__(self, gram: GramMatrix, time_budget=None, seeds=None):
        self.n = gram.size
        self.ncolors = len(gram.legend)
        self.m = gram.codes
        self.budget = default_time_budget() if time_budget is None else budget_seconds(time_budget)
        self.deadline = None
        self.seeds = [tuple(int(x) for x in s) for s in (() if seeds is None else seeds)]
        for s in self.seeds:
            if not self._is_automorphism(np.array(s, dtype=np.int64)):
                raise Mismatch("seed permutation does not preserve the Gram", witness=s)

    # -- partition refinement -------------------------------------------
    def refine(self, labels, splitter=None, expect=None):
        """Equitable refinement of `labels` (cell ids 0..k-1) driven by the
        cell `splitter` (all cells when None).

        Returns (labels, invariant): canonical cell ids and the split trace.
        Given the trace `expect` to match, it stops at the first round that
        departs from it and returns (None, the trace so far).
        """
        k = self.ncolors
        ncells = int(labels.max()) + 1  # cell ids fit the 4-byte key: ncells <= n
        queue = np.arange(ncells) if splitter is None else np.array([splitter])
        trace = []
        while queue.size:
            sizes = np.bincount(labels, minlength=ncells)
            rows = np.flatnonzero(sizes[labels] > 1)
            if rows.size == 0:
                break
            # splitter vertices grouped by cell, in cell-id order
            in_queue = np.zeros(ncells, dtype=bool)
            in_queue[queue] = True
            cols = np.flatnonzero(in_queue[labels])
            cols = cols[np.argsort(labels[cols], kind="stable")]
            colors = self.m[rows][:, cols]
            if cols.size > queue.size:
                # sort each row's colors within each splitter, so that a row
                # holds the multiset of its colors into every splitter
                offset = np.searchsorted(queue, labels[cols]) * k
                offset = offset.astype(np.min_scalar_type(queue.size * k))
                colors = (np.sort(colors + offset, axis=1) - offset).astype(self.m.dtype)
            # big-endian bytes sort in numeric order: by cell id, then colors
            sig = np.empty((rows.size, 4 + colors.shape[1] * colors.itemsize), dtype=np.uint8)
            sig[:, :4] = labels[rows].astype(">u4").view(np.uint8).reshape(rows.size, 4)
            sig[:, 4:] = np.ascontiguousarray(colors, colors.dtype.newbyteorder(">")).view(
                np.uint8).reshape(rows.size, -1)
            keys = sig.view(np.dtype((np.void, sig.shape[1]))).ravel()
            uniq, first, inverse, frag_sizes = np.unique(
                keys, return_index=True, return_inverse=True, return_counts=True)
            trace.append((uniq.tobytes(), frag_sizes.tobytes()))
            if expect is not None and expect[len(trace) - 1:len(trace)] != (trace[-1],):
                return None, tuple(trace)  # departs from (or outruns) `expect`
            frag_cell = labels[rows[first]]
            nfrag = np.bincount(frag_cell, minlength=ncells)
            if uniq.size == np.count_nonzero(nfrag):
                break  # nothing split: stable against every cell
            nfrag = np.maximum(nfrag, 1)
            start = np.cumsum(nfrag) - nfrag
            rank = np.arange(uniq.size) - np.searchsorted(frag_cell, frag_cell)
            frag_id = start[frag_cell] + rank
            new_labels = start[labels]
            new_labels[rows] = frag_id[inverse.ravel()]
            # queue every fragment of a split cell except its first largest
            by_size = np.lexsort((np.arange(uniq.size), -frag_sizes, frag_cell))
            keep = nfrag[frag_cell] > 1
            lead = by_size[np.r_[True, frag_cell[by_size][1:] != frag_cell[by_size][:-1]]]
            keep[lead] = False
            queue = frag_id[keep]
            labels, ncells = new_labels, int(start[-1] + nfrag[-1])
        trace = tuple(trace)
        if expect is not None and trace != expect:
            return None, trace
        return labels, trace

    def _target_cell(self, labels):
        counts = np.bincount(labels)
        nonsingleton = np.flatnonzero(counts > 1)
        if nonsingleton.size == 0:
            return None
        return int(nonsingleton[np.argmax(counts[nonsingleton])])

    def _individualize(self, labels, v):
        """Move v into a new singleton cell; returns (labels, its cell id)."""
        out = labels.copy()
        out[v] = labels.max() + 1
        return out, int(out[v])

    def _leaf_order(self, labels):
        order = np.empty(self.n, dtype=np.int64)
        order[labels] = np.arange(self.n)
        return order

    def _is_automorphism(self, g):
        return bool(np.array_equal(self.m.take(g, 0).take(g, 1), self.m))

    # -- search ------------------------------------------------------------
    def run(self) -> PermGroup:
        self.deadline = time.monotonic() + self.budget
        self.nodes = 0
        self.base_seq = []
        self.first_leaf = None
        self.path_invariants = {}
        self.chain = None
        self._dfs(np.zeros(self.n, dtype=np.int64), None, 0, True)
        if self.chain is None:  # a discrete root: the base is empty
            self._grow_chain(0)
        chain = self.chain
        for g in chain.generators[len(self.seeds):]:
            if not self._is_automorphism(np.array(g, dtype=np.int64)):
                raise Mismatch("search produced a non-automorphism", witness=g)
        return chain

    def _timeout(self, depth, partial):
        return SearchTimeout(f"automorphism search budget of {self.budget:g} s exhausted",
                             partial=partial, nodes=self.nodes, depth=depth)

    def _grow_chain(self, depth, gamma=None):
        """Build the seeds' random chain on the search base if there is no
        chain yet, under the search deadline, then adjoin `gamma` to it."""
        if self.chain is None:
            # created only once the first path (and hence the base) is complete
            try:
                self.chain = PermGroup.random_chain(self.seeds, self.base_seq, self.n,
                                                    deadline=self.deadline)
            except SearchTimeout as exc:
                raise self._timeout(depth, exc.partial) from exc
        if gamma is not None:
            self.chain.adjoin(gamma)

    def _dfs(self, labels, splitter, depth, on_path):
        self.nodes += 1
        if time.monotonic() >= self.deadline:
            raise self._timeout(depth, self.chain)
        if on_path:
            labels, self.path_invariants[depth] = self.refine(labels, splitter)
        else:
            # only a node with the first path's trace at its depth can lead
            # to an automorphic image of the first leaf
            expect = self.path_invariants.get(depth)
            if expect is None:
                return None
            labels, _ = self.refine(labels, splitter, expect)
            if labels is None:
                return None
        cell = self._target_cell(labels)
        if cell is None:
            return self._handle_leaf(labels)
        candidates = np.flatnonzero(labels == cell)
        if on_path:
            v0 = int(candidates[0])
            self.base_seq.append(v0)
            self._dfs(*self._individualize(labels, v0), depth + 1, True)
            self._grow_chain(depth)
            # v0 is base[depth], so its orbit is the level's Schreier tree;
            # an adjoined gamma takes v0 to its v, so after an adjoin only the
            # vertices that found no automorphism need their orbits again
            failed = []
            orbit = set(self.chain.transversals[depth])
            for v in candidates[1:]:
                v = int(v)
                if v in orbit:
                    continue
                gamma = self._dfs(*self._individualize(labels, v), depth + 1, False)
                if gamma is not None and not self.chain.contains(gamma):
                    self._grow_chain(depth, gamma)
                    orbit = set(self.chain.transversals[depth]) | self.chain.orbit_of(depth, failed)
                else:
                    failed.append(v)
                    orbit |= self.chain.orbit_of(depth, [v])
            return None
        for v in candidates:
            gamma = self._dfs(*self._individualize(labels, int(v)), depth + 1, False)
            if gamma is not None:
                return gamma
        return None

    def _handle_leaf(self, labels):
        order = self._leaf_order(labels)
        if self.first_leaf is None:
            self.first_leaf = order
            return None
        g = np.empty(self.n, dtype=np.int64)
        g[self.first_leaf] = order
        if self._is_automorphism(g):
            return tuple(int(x) for x in g)
        return None


def gram_automorphisms(gram: GramMatrix, time_budget=None, seeds=None) -> PermGroup:
    """The full, certified group of Gram-preserving state permutations.

    Optional seeds are a sequence of candidate automorphisms (e.g. a predicted
    group's generators); each is verified against the Gram before the search
    uses it.  The returned chain is complete; its `generators` are the seeds
    followed by every automorphism the search found outside their chain.
    """
    return AutomorphismSearch(gram, time_budget=time_budget, seeds=seeds).run()


# ---------------------------------------------------------------------------
# Predicted groups for the four cases

def _wreath_generators(blocks):
    """S_d wr S_(d+1) on the basis blocks, from wreath coordinates
    (`wreath_compose`): a transposition and a d-cycle within the first
    block, then a transposition and a cycle of the blocks."""
    def swap(m):
        return (1, 0, *range(2, m))

    def cycle(m):
        return (*range(1, m), 0)

    nblocks, size = len(blocks), len(blocks[0])
    fixed = tuple(range(size))
    inner = [(tuple(range(nblocks)), (g(size),) + (fixed,) * (nblocks - 1)) for g in (swap, cycle)]
    outer = [(g(nblocks), (fixed,) * nblocks) for g in (swap, cycle)]
    return tuple(wreath_compose(sigma, inners, blocks) for sigma, inners in inner + outer)


def default_variant(d, n, which):
    """The Theorem 1 case of the family: rebits, n = 1, qubits, else odd d."""
    if which == "rebit":
        return "real_clifford"
    if n == 1:
        return "wreath"
    if d == 2:
        return "extended_clifford"
    return "agsp"


def variant_name(d, n, variant):
    """The predicted group of a Theorem 1 case, by name."""
    return {
        "wreath": f"S_{d} wr S_{d + 1}",
        "extended_clifford": "extended Clifford group",
        "agsp": f"AGSp(Z_{d}^{2 * n})",
        "real_clifford": "real Clifford group",
    }[variant]


@lru_cache(maxsize=None)
def predicted_generators(d, n, variant) -> tuple:
    """Generators of the predicted symmetry group, as permutations of the
    family's states (of the rebit orbit for "real_clifford")."""
    if variant == "real_clifford":
        if d != 2:
            raise Unsupported("the rebit states are d = 2")
        return real_clifford_closure(n)[1]
    fam = stabilizer_set(d, n)
    if variant == "wreath":
        if n != 1:
            raise Unsupported("the wreath case is n = 1")
        return _wreath_generators(lagrangian_index(fam.labels).blocks)
    if variant == "extended_clifford":
        if d != 2:
            raise Unsupported("the extended Clifford case is d = 2")
        gates = [(g, i) for i in range(n) for g in ("H", "S")]
        gates += [("CZ", i, j) for i in range(n) for j in range(i + 1, n)]
        actions = [qubit_gate_action(n, *g) for g in gates] + [transpose_action(n)]
        return tuple(label_permutations(fam.labels, actions))
    if variant == "agsp":
        if d == 2:
            raise OddOnly("the AGSp label action requires odd d")
        zero = (0,) * (2 * n)
        eye = np.eye(2 * n, dtype=np.int64)
        maps = [(s, zero) for s in sp_generators(d, n)]
        maps.append((k_alpha(d, n, primitive_root(d)), zero))
        maps += [(eye, tuple(1 if i == k else 0 for i in range(2 * n))) for k in range(2 * n)]
        return tuple(label_permutations(fam.labels, maps))
    raise ValueError(f"unknown variant {variant!r}")


def predicted_order_formula(d, n, variant) -> int:
    """The order of the predicted group of a Theorem 1 case acting on the
    states, from its closed form: (d + 1)! (d!)^(d+1) for S_d wr S_(d+1),
    d^(2n) |Sp(2n, d)| (d - 1) for AGSp, 2 2^(n^2+2n) prod_(j<=n) (4^j - 1)
    for the extended Clifford group (the Clifford group mod phases, times
    transposition) and 2^(n^2+n+1) (2^n - 1) prod_(j<n) (4^j - 1) for the
    real Clifford group mod its centre +-1 (Nebe, Rains & Sloane, Des.
    Codes Cryptogr. 24, 99 (2001))."""
    if variant == "wreath":
        return math.factorial(d + 1) * math.factorial(d) ** (d + 1)
    if variant == "agsp":
        return d ** (2 * n) * sp_order_formula(d, n) * (d - 1)
    if variant == "extended_clifford":
        return 2 * 2 ** (n * n + 2 * n) * math.prod(4 ** j - 1 for j in range(1, n + 1))
    if variant == "real_clifford":
        return 2 ** (n * n + n + 1) * (2 ** n - 1) * math.prod(4 ** j - 1 for j in range(1, n))
    raise ValueError(f"unknown variant {variant!r}")


@lru_cache(maxsize=None)
def predicted_group(d, n, variant) -> PermGroup:
    """The predicted symmetry group's chain, by deterministic Schreier-Sims."""
    return schreier_sims(predicted_generators(d, n, variant))


def rebit_gram(n) -> GramMatrix:
    return real_clifford_orbit(n).gram


def family_gram(which, d, n) -> GramMatrix:
    """The Gram of the stabilizer states ("stab") or the rebit states
    ("rebit", which exist for d = 2 only)."""
    if which != "rebit":
        return stabilizer_states(d, n).gram
    if d != 2:
        raise Unsupported("the rebit states are d = 2")
    return rebit_gram(n)


# ---------------------------------------------------------------------------
# Theorem-1 verification

def verify_theorem1(d, n, variant, time_budget=None):
    """Compare computed Gram automorphisms against the predicted group.

    The predicted generators S are passed to the search as seeds; they are
    verified to preserve the Gram, and the exhausted search certifies the
    order of its chain.  When the search found no automorphism outside the
    seeds' random chain, every strong generator lies in <S> <= Aut, so
    <S> = Aut and the certified order is the predicted order.  Otherwise the
    deterministic Schreier-Sims chain of S decides, under what remains of the
    time budget.  A predicted order that differs from the paper's group
    (`predicted_order_formula`) is a Mismatch, so a wrong generating set
    that the search also matched does not pass.
    """
    gens = predicted_generators(d, n, variant)
    fam = real_clifford_orbit(n) if variant == "real_clifford" else stabilizer_states(d, n)
    budget = default_time_budget() if time_budget is None else budget_seconds(time_budget)
    deadline = time.monotonic() + budget
    computed = gram_automorphisms(fam.gram, time_budget=budget, seeds=gens)
    found = computed.generators[len(gens):]
    if found:
        try:
            predicted = PermGroup.from_generators(gens, deadline=deadline)
        except SearchTimeout as exc:
            raise SearchTimeout(
                f"time budget of {budget:g} s exhausted by the predicted group's chain",
                partial=exc.partial) from exc
        predicted_order = predicted.order()
        missing_bwd = [g for g in found if not predicted.contains(g)]
    else:
        predicted_order = computed.order()
        missing_bwd = []
    missing_fwd = [g for g in gens if not computed.contains(g)]
    report = {
        "d": d,
        "n": n,
        "variant": variant,
        "predicted": variant_name(d, n, variant),
        "computed_order": computed.order(),
        "predicted_order": predicted_order,
    }
    report["orders_match"] = computed.order() == predicted_order
    report["predicted_in_computed"] = not missing_fwd
    report["computed_in_predicted"] = not missing_bwd
    if n == 1 and variant != "real_clifford":
        blocks = lagrangian_index(fam.labels).blocks
        try:
            for g in computed.generators:
                wreath_decompose(g, blocks)
            report["basis_partition_preserved"] = True
        except NotBasisPreserving:
            report["basis_partition_preserved"] = False
    report["match"] = (report["orders_match"] and report["predicted_in_computed"]
                       and report["computed_in_predicted"])
    if not report["match"]:
        witness = (missing_fwd or missing_bwd or [None])[0]
        raise Mismatch(
            f"computed and predicted symmetry groups differ for {(d, n, variant)}",
            witness=witness,
        )
    formula = predicted_order_formula(d, n, variant)
    if predicted_order != formula:
        raise Mismatch(f"the predicted group for {(d, n, variant)} has order {predicted_order}, "
                       f"not the closed form {formula}", witness=predicted_order)
    return report


# ---------------------------------------------------------------------------
# The S_f sum rule

def sf_checks(lags, reps, bs):
    """The S_f checks of the families given by reps (B, lags, 2n), the
    family of bs[k] (B, 2n) being the label (lags[l], reps[k, l]) of every
    Lagrangian l, as arrays over k: (pairwise non-orthogonal, the trace
    t = tr sum_l Pi, sum_l Pi = C (1 + A(b)) with C = t / (d^n + 1)).

    As Weyl sums, Pi_(L,rep) = d^-n sum_{v in L} omega^[rep,v] T(v) (odd d)
    and A(b) = d^-n sum_v omega^[b,v] T(v).  The T(v) are a basis, so the
    rule holds iff it holds in every coefficient: d^n times that of T(v) is
    sum_k hist[v, k] omega^k on the left, hist[v, k] the number of l with v
    in L_l and [rep_l, v] = k, and C (d^n [v = 0] + omega^[b,v]) on the
    right.  For prime d, sum_k h_k omega^k = 0 iff h is
    constant in k.  So t is rational iff hist[0, 1:] is constant, and the
    rule holds iff (d^n + 1) hist[v] - t (d^n [v = 0] e_0 + e_[b,v]) is
    constant in k for every v, in integers.  Non-orthogonality is the closed
    form on each family (`character_keys`): every two characters agree on
    the intersection of their Lagrangians.
    """
    d, n = lags[0].d, lags[0].ambient // 2
    dim, size = d ** n, d ** (2 * n)

    def pairing(a, v):  # [a, v] mod d
        return np.einsum("...a,...a", a, jvec(v)) % d

    tables = lagrangian_tables(lags)
    points, where = tables.points, tables.codes  # (lags, d^n, 2n), (lags, d^n)
    chi = pairing(reps[:, :, None], points)  # (B, lags, d^n)
    at = (np.arange(len(bs))[:, None, None] * size + where) * d + chi
    hist = np.bincount(at.ravel(), minlength=len(bs) * size * d).reshape(len(bs), size, d)
    zero = hist[:, 0]  # tr T(v) = d^n [v = 0]: the trace is sum_k zero[k] omega^k
    trace = zero[:, 0] - zero[:, 1]
    expected = np.zeros_like(hist)
    vectors = code_points(np.arange(size), d, 2 * n)
    np.put_along_axis(expected, pairing(bs[:, None], vectors)[..., None], 1, axis=2)
    expected[:, 0, 0] += dim
    diff = (dim + 1) * hist - trace[:, None, None] * expected
    holds = ((zero[:, 1:] == zero[:, 1:2]).all(1) & (trace > 0)
             & (diff == diff[..., :1]).all(axis=(1, 2)))
    keys = character_keys(lags, np.arange(len(lags)), reps)  # (B, lags, lags)
    nonorth = (keys == keys.transpose(0, 2, 1)).all(axis=(1, 2))
    return nonorth, trace, holds


_SF_CHUNK = 1 << 22  # histogram and key entries per `sf_checks` call


def _sf_families(d, n, bs):
    """`sf_checks` of the families {(L, b): L Lagrangian} of every b in bs,
    a few b at a time."""
    if d == 2:
        raise OddOnly("S_f machinery requires odd d")
    lags = enumerate_lagrangians(d, n)
    bs = np.array(bs, dtype=np.int64).reshape(-1, 2 * n) % d
    step = max(1, _SF_CHUNK // (d ** (2 * n + 1) + len(lags) ** 2))
    parts = []
    for chunk in (bs[i:i + step] for i in range(0, len(bs), step)):
        # b itself represents (L, b): [rep, v] = [b, v] for v in L
        reps = np.broadcast_to(chunk[:, None], (len(chunk), len(lags), 2 * n))
        parts.append(sf_checks(lags, reps, chunk))
    return tuple(np.concatenate(x) for x in zip(*parts))


def verify_sf_sum(d, n, seed, samples):
    """The S_f sum rule with one constant C for every b: {"tested_b", "C",
    "pass"}.  Every b is tested when d^(2n) <= 81, else `samples` points
    drawn from random.Random(seed)."""
    if d ** (2 * n) <= 81:
        bs = list(all_vectors(d, 2 * n))
    else:
        rng = random.Random(seed)
        bs = [tuple(rng.randrange(d) for _ in range(2 * n)) for _ in range(samples)]
    nonorth, trace, holds = _sf_families(d, n, bs)
    ok = bool((nonorth & holds).all()) and len(set(trace.tolist())) == 1
    return {"tested_b": len(bs), "C": str(Fraction(int(trace[0]), d ** n + 1)) if ok else None,
            "pass": ok}
