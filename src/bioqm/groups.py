"""Projective groups of basis transformations and their orbit structure.

A 2x2 matrix M preserves the biorthogonal structure when dagger(M) * M is a
nonzero base-field multiple of the identity; over p = 3 fields that multiple
is forced into {+1, -1}, and its sign is stored on each element.  Matrices
differing by a nonzero scalar act identically on projective states, so each
element is kept in leading-1 canonical form.  The members are constructed
from the physical one-particle points, not searched for, and their sorted
residue codes give both the element objects and the index tables.

Elements are named by the permutation they induce on the named one-particle
states (cycle notation, identity written "e").  Two-particle actions come in
four modes: the same matrix on both sides (global), or a matrix on one side
only (local_1 / local_2); the local group is the direct product acting
componentwise, with order the square of the one-particle group order.

A member acts on states one way, by ``_residue_permutation``: a state's flat
(re, im) residue code goes through the member code's 2x2 residue product
``residue_mul2``, is brought to leading-1 form and is looked up by code, so
no state object or ``act`` call is made.  A one-particle state (x, y) is
coded as the table [[x, 0], [y, 0]], which gives each element's permutation
and the PGL(2, p) check.  The index tables (generating set, Cayley tree, the
generators' left multiplication of the element indices, the inverse index
from each member's adjugate code) are built once per field from the
members' codes alone.  Conjugacy classes are the walk along each generator's
conjugation of the indices, and an element's order is read once per class.

The two-particle action table is built once per field on one fixed set,
the entangled physical states, read as flat residue codes from the
``two_particle_codes`` rows whose kind byte is PHYSICAL alone; it keeps
only the generators' permutations of those codes.  Side 1, psi -> M psi, is
the member code's product; side 2, psi -> psi M^T = (M psi^T)^T, is side 1
conjugated by the transposition psi -> psi^T.  Orbits and local-transform
words are walked along the generator rows by one breadth-first walk; a word
is a pair of element indices, inverted by the inverse index.  An orbit's
members are its codes in table order, which is ``sort_key`` order, and only
its representative, the least code, becomes a state object.  A stabilizer
order walks the Cayley tree once from its state and counts the elements
that fix it.  A Burnside count sums fixed points over class representatives
weighted by class size (pairs of classes for the local action), each
representative's permutation composed from the generator rows.  ``act``
stays the object path, and the tests check every residue row and every
element's image against it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from operator import eq, itemgetter, mul
from string import ascii_lowercase
from typing import Callable, Sequence

from .gf import FieldConfig, phi_map
from .linear import (
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    dagger,
    flat_residues,
    inverse2,
    mat_mul,
    mat_neg,
    mat_vec,
    matrix_make,
    residue_canonicalizer,
    residue_mul2,
    residue_state,
)
from .biortho import Observable, physical_states, spin_axes, spin_observable
from .entangle import (PHYSICAL, TwoParticleState, classify, representative_states,
                       two_particle_codes)

ACT_MODES = ("single", "global", "local_1", "local_2")


def canonicalize_matrix(m: Matrix) -> Matrix:
    """Scale so the first nonzero entry (row-major) becomes 1."""
    leading = next((x for row in m for x in row if not x.is_zero), None)
    if leading is None:
        raise ValueError("the zero matrix has no projective class")
    inv = leading.inverse()
    return tuple(tuple(x * inv for x in row) for row in m)


def _cycle_notation(perm: tuple[int, ...], letters: str) -> str:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(cycle)
    if not cycles:
        return "e"
    return "".join("(" + "".join(letters[i] for i in c) + ")" for c in cycles)


@dataclass(frozen=True)
class GroupElement:
    matrix: Matrix  # canonical leading-1 form
    label: str
    sign: int  # phi of the scalar c in dagger(M) M = c * identity
    perm: tuple[int, ...]  # action on the physical one-particle states

    def __str__(self) -> str:
        return self.label


class ProjectiveGroup:
    """The group of structure-preserving matrices modulo scalars."""

    def __init__(self, config: FieldConfig, elements: tuple[GroupElement, ...]):
        self.config = config
        self.elements = elements
        self.by_label = {g.label: g for g in elements}
        self.identity = self.by_label["e"]

    @property
    def order(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def _member_codes(config: FieldConfig) -> tuple[tuple[int, ...], ...]:
    """The members' canonical residue codes, in element order.

    A member's first column is a physical one-particle point (a, c), and its
    second is orthogonal to it with the same norm: mu (-conj(c), conj(a))
    with mu conj(mu) = 1.  Each (point, mu) is one member, so p^2 - p points
    and p + 1 values of mu make p(p^2 - 1) members over GF(p^2), and p + 1
    points and mu = +1 or -1 make 2(p + 1) over GF(p).
    """
    p = config.p
    canonical = residue_canonicalizer(config)
    units = [(x.re, x.im) for x in config.elements() if (x.re**2 + x.im**2) % p == 1]
    codes = []
    for s in physical_states(config):
        ar, ai, cr, ci = flat_residues(s.rep.components)
        for mr, mi in units:  # [[a, -mu conj(c)], [c, mu conj(a)]]
            codes.append(canonical((ar, ai, -mr * cr - mi * ci, mr * ci - mi * cr,
                                    cr, ci, mr * ar + mi * ai, mi * ar - mr * ai)))
    expected = p * (p * p - 1) if config.is_extension else 2 * (p + 1)
    if not len(set(codes)) == len(codes) == expected:
        raise AssertionError("the construction does not give p(p^2 - 1) or 2(p + 1) members")
    return tuple(sorted(codes))


def _residue_permutation(
    step: Callable[[tuple[int, ...]], list[int]],
    codes: Sequence[tuple[int, ...]],
    index: dict[tuple[int, ...], int],
    canonical: Callable[[list[int]], tuple[int, ...]],
) -> tuple[int, ...]:
    """The index of each code's canonical image under step."""
    try:
        return tuple([index[canonical(step(code))] for code in codes])
    except KeyError:
        raise ValueError("the action escapes the given state set") from None


@lru_cache(maxsize=None)
def enumerate_group(config: FieldConfig) -> ProjectiveGroup:
    """All canonical 2x2 matrices M with dagger(M) M a nonzero scalar, read
    from ``_member_codes``; a member's ``perm`` is its code's product on
    the physical states coded as [[x, 0], [y, 0]]."""
    states = physical_states(config)
    if len(states) > len(ascii_lowercase):
        raise ValueError("too many one-particle states to letter-label")
    letters = ascii_lowercase[: len(states)]
    canonical = residue_canonicalizer(config)
    points = [(xr, xi, 0, 0, yr, yi, 0, 0) for xr, xi, yr, yi in
              (flat_residues(s.rep.components) for s in states)]
    index = {code: k for k, code in enumerate(points)}

    zero = config.zero()
    found: list[GroupElement] = []
    for code in _member_codes(config):
        ar, ai, br, bi, cr, ci, dr, di = code
        m = matrix_make(config, (((ar, ai), (br, bi)), ((cr, ci), (dr, di))))
        c = config.element(ar * ar + ai * ai + cr * cr + ci * ci)
        if mat_mul(dagger(m), m) != ((c, zero), (zero, c)):
            raise AssertionError("dagger(M) M is not the scalar its first column gives")
        perm = _residue_permutation(partial(residue_mul2, code), points, index, canonical)
        found.append(GroupElement(matrix=m, label=_cycle_notation(perm, letters),
                                  sign=phi_map(c), perm=perm))
    return ProjectiveGroup(config, tuple(found))


def conjugacy_classes(group: ProjectiveGroup) -> list[tuple[GroupElement, ...]]:
    """Conjugacy classes, sorted by size then by representative matrix."""
    elements = group.elements
    return [tuple(elements[k] for k in c) for c in _group_index(group.config).classes]


def element_orders(group: ProjectiveGroup) -> tuple[int, ...]:
    """The order of each element, in the order of ``group.elements``."""
    return _group_index(group.config).orders


# -- abstract-group identification ---------------------------------------------


@dataclass(frozen=True)
class IsomorphismReport:
    order: int
    class_sizes: tuple[int, ...]
    abelian: bool
    element_order_profile: tuple[tuple[int, int], ...]  # (order, count)
    name: str  # 'D{p+1}' over GF(p), 'PGL(2,p)' over GF(p^2) ('S4' at p = 3), or 'unidentified'
    verified: bool


def _is_dihedral(index: _GroupIndex, n: int) -> bool:
    """Whether the indexed group is D_n = <r, s | r^n = s^2 = e, s r s = r^-1>.

    It must have order 2n, hold an r of order n and an involution s with
    r s an involution too, which is s r s = r^-1.  In <r> only r^(n/2) is an
    involution, so s and r s are not both in it, and <r> and s<r> fill the
    group.
    """
    r = next((x for x, k in enumerate(index.orders) if k == n), None)
    if r is None or len(index.orders) != 2 * n:
        return False
    left_r = index.compose(r, index.generator_left)
    return any(k == 2 and index.orders[left_r[s]] == 2 for s, k in enumerate(index.orders))


def _sharply_3_transitive(config: FieldConfig) -> bool:
    """Whether the members act regularly on the ordered triples of the
    self-orthogonal one-particle points (1, c), c conj(c) = -1 (none over GF(p)).

    The points are coded as in ``enumerate_group``.  An invertible member
    sends the first three points to three distinct ones, so the action is
    regular when these images are distinct and |G| = n(n - 1)(n - 2).
    """
    p, canonical = config.p, residue_canonicalizer(config)
    points = [(1, 0, 0, 0, x.re, x.im, 0, 0) for x in config.elements()
              if (1 + x.re**2 + x.im**2) % p == 0]
    index = {code: k for k, code in enumerate(points)}
    n, codes = len(points), _member_codes(config)
    images = {_residue_permutation(partial(residue_mul2, code), points[:3], index, canonical)
              for code in codes}
    return len(codes) == len(images) == n * (n - 1) * (n - 2)


def verify_isomorphism(group: ProjectiveGroup) -> IsomorphismReport:
    """Identify the abstract group: D_{p+1} over GF(p), PGL(2, p) over GF(p^2).

    Over GF(p) the index tables exhibit the presentation of D_{p+1}: order
    2(p + 1), an r of order p + 1 and an involution s with s r s = r^-1.
    Over GF(p^2) the group acts regularly on the ordered triples of the p + 1
    self-orthogonal one-particle points, and a sharply 3-transitive group of
    degree p + 1, p prime, is PGL(2, p) (Zassenhaus 1936; Dixon & Mortimer,
    Permutation Groups, ch. 7).  At p = 3 these are D4 and S4.  A failed
    check reports 'unidentified'.
    """
    config, p = group.config, group.config.p
    index = _group_index(config)
    class_sizes = tuple(sorted(len(c) for c in index.classes))
    # a group is abelian exactly when every element is its own class
    abelian = all(size == 1 for size in class_sizes)
    profile = tuple(sorted(Counter(index.orders).items()))
    if config.is_extension:
        name, verified = "S4" if p == 3 else f"PGL(2,{p})", _sharply_3_transitive(config)
    else:
        name, verified = f"D{p + 1}", _is_dihedral(index, p + 1)
    return IsomorphismReport(
        order=group.order,
        class_sizes=class_sizes,
        abelian=abelian,
        element_order_profile=profile,
        name=name if verified else "unidentified",
        verified=verified,
    )


# -- conjugation of observables --------------------------------------------------


@dataclass(frozen=True)
class SpinConjugation:
    axis: int
    sign: int
    matrix: Matrix


def conjugate_observable(g: GroupElement, obs: Observable) -> SpinConjugation:
    """Compute g A g^-1 and identify it as (+/-) a spin observable.

    Conjugation is insensitive to the phase representative.  A result outside
    the signed spin set signals a bug and raises.
    """
    config = obs.config
    transformed = mat_mul(mat_mul(g.matrix, obs.matrix), inverse2(g.matrix))
    for axis in spin_axes(config):
        sigma = spin_observable(config, axis).matrix
        if transformed == sigma:
            return SpinConjugation(axis=axis, sign=1, matrix=transformed)
        if transformed == mat_neg(sigma):
            return SpinConjugation(axis=axis, sign=-1, matrix=transformed)
    raise RuntimeError(f"conjugate of {g.label} is not a signed spin observable")


# -- one- and two-particle actions ------------------------------------------------


def act(
    g: GroupElement,
    state: ProjectiveState | TwoParticleState,
    mode: str = "single",
) -> ProjectiveState | TwoParticleState:
    """Apply a group element to a state; two-particle modes pick the sides.

    A two-particle amplitude is a 2x2 array psi (row = side 1, column =
    side 2), and (M kron N) psi = M psi N^T: local_1 is M psi, local_2 is
    psi M^T, global is both.
    """
    if mode not in ACT_MODES:
        raise ValueError(f"mode must be one of {ACT_MODES}")
    tp = isinstance(state, TwoParticleState)
    proj = state.state if tp else state
    if mode == "single":
        if proj.dim != 2:
            raise ValueError("mode 'single' acts on one-particle states")
        return canonicalize(mat_vec(g.matrix, proj.rep))
    if proj.dim != 4:
        raise ValueError(f"mode '{mode}' acts on two-particle states")
    v = proj.rep.components
    psi = ((v[0], v[1]), (v[2], v[3]))
    if mode != "local_2":
        psi = mat_mul(g.matrix, psi)
    if mode != "local_1":
        psi = mat_mul(psi, tuple(zip(*g.matrix)))
    image = canonicalize(StateVector(psi[0] + psi[1], proj.config))
    return classify(image) if tp else image


def _walk(start: int, perms: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """Breadth-first walk from start along permutation arrays.

    Each index reached for the first time is listed once as (j, k, i), with
    j = perms[k][i] and i the start or an index listed before it.
    """
    moves = tuple(enumerate(perms))  # built once, not per visited index
    seen = {start}
    edges = []
    queue = [start]
    for i in queue:  # the queue grows while it is read
        for k, perm in moves:
            j = perm[i]
            if j not in seen:
                seen.add(j)
                edges.append((j, k, i))
                queue.append(j)
    return edges


class _GroupIndex:
    """The group on element indices, built once per field from the members'
    residue codes alone; a product or an inverse is looked up by the code of
    its canonical matrix.

    ``generators`` are the indices of the elements, in order, not yet
    generated by those before them.  ``tree`` is the Cayley tree from the
    identity, one (s*h, k, h) per other element with s the k-th generator;
    ``generator_left[k]`` is the k-th generator's left multiplication of the
    indices and ``inverse[k]`` the index of element k's inverse, read from
    the adjugate [[d, -b], [-c, a]].  ``classes`` are the conjugacy classes
    in the order of ``conjugacy_classes`` (the elements are sorted by
    matrix): the orbits of x -> s x s^-1 = (s (s x)^-1)^-1 over the
    generators s.  ``orders[k]``, a class function, is read once per class as
    the length of the identity's cycle under the representative's left
    multiplication.
    """

    def __init__(self, config: FieldConfig):
        canonical = residue_canonicalizer(config)
        codes = _member_codes(config)
        order = len(codes)
        index = {code: k for k, code in enumerate(codes)}
        self.identity = start = index[1, 0, 0, 0, 0, 0, 1, 0]
        gens: list[int] = []
        left: list[tuple[int, ...]] = []
        tree: list[tuple[int, int, int]] = []
        generated = {start}
        for k, code in enumerate(codes):
            if k not in generated:
                gens.append(k)
                step = partial(residue_mul2, code)
                left.append(_residue_permutation(step, codes, index, canonical))
                tree = _walk(start, left)
                generated = {start, *(j for j, _, _ in tree)}
        if len(generated) != order:
            raise AssertionError("the generators do not reach every group element")
        self.generators, self.tree, self.generator_left = tuple(gens), tree, tuple(left)
        self.inverse = inv = tuple(
            index[canonical((dr, di, -br, -bi, -cr, -ci, ar, ai))]
            for ar, ai, br, bi, cr, ci, dr, di in codes
        )
        self.parent = {sh: (k, h) for sh, k, h in self.tree}
        conjugations = [[inv[left[inv[left[x]]]] for x in range(order)]
                        for left in self.generator_left]
        classes, seen = [], set()
        for x in range(order):
            if x not in seen:
                members = sorted([x, *(j for j, _, _ in _walk(x, conjugations))])
                seen.update(members)
                classes.append(tuple(members))
        classes.sort(key=lambda c: (len(c), c[0]))
        self.classes = tuple(classes)
        orders = [0] * order
        for members in classes:
            left = self.compose(members[0], self.generator_left)
            x, n = left[self.identity], 1
            while x != self.identity:
                x, n = left[x], n + 1
            for k in members:
                orders[k] = n
        self.orders = tuple(orders)

    def compose(self, x: int, rows: Sequence[Sequence[int]]) -> list[int]:
        """Element x's permutation, composed along its tree path from
        ``rows[k]``, the k-th generator's permutation."""
        path = []
        while x != self.identity:
            k, x = self.parent[x]
            path.append(k)
        out = list(range(len(rows[0])))
        for k in reversed(path):  # x = s_path[0] ... s_path[-1]
            out = list(map(rows[k].__getitem__, out))
        return out

    def images(self, i: int, rows: Sequence[Sequence[int]]) -> list[int]:
        """State i's image under every element, by element index, composed
        along the tree from ``rows[k]``, the k-th generator's permutation."""
        out = [i] * len(self.inverse)
        for sh, k, h in self.tree:
            out[sh] = rows[k][out[h]]
        return out


@lru_cache(maxsize=None)
def _group_index(config: FieldConfig) -> _GroupIndex:
    return _GroupIndex(config)


class _ActionTable:
    """The one-sided actions on ascending flat residue codes, kept as generator rows.

    ``generator_sides[k]`` is the (side-1, side-2) permutation of the code
    indices made by the k-th generator: psi -> M psi on the codes, looked up
    by code in ``index``, and psi -> psi M^T = (M psi^T)^T, read as
    tau side1 tau with tau the transposition psi -> psi^T.  A code set not
    closed under the generators raises "escapes".  The generators and the
    Cayley tree are the field's ``_GroupIndex``.
    """

    def __init__(self, group: ProjectiveGroup, codes: Sequence[tuple[int, ...]]):
        self.group = group
        self.codes = codes
        self.group_index = _group_index(group.config)
        canonical, members = residue_canonicalizer(group.config), _member_codes(group.config)
        self.index = index = {code: k for k, code in enumerate(codes)}
        tau = _residue_permutation(itemgetter(0, 1, 4, 5, 2, 3, 6, 7), codes, index, canonical)
        sides = []  # (side-1, side-2) permutations of each generator
        for k in self.group_index.generators:
            side1 = _residue_permutation(partial(residue_mul2, members[k]), codes, index, canonical)
            sides.append((side1, tuple([tau[side1[j]] for j in tau])))
        self.generator_sides = tuple(sides)


@dataclass(frozen=True)
class Orbit:
    mode: str
    representative: TwoParticleState  # the state of the least member code
    members: tuple[tuple[int, ...], ...]  # flat residue codes, ascending
    stabilizer_order: int
    acting_order: int

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def _action_table(config: FieldConfig) -> _ActionTable:
    """The table on the entangled physical states: the ``two_particle_codes``
    rows whose kind byte is PHYSICAL alone, in table order."""
    columns, _, kinds = two_particle_codes(config)
    keep = [kind == PHYSICAL for kind in kinds]
    codes = tuple(zip(*(compress(column, keep) for column in columns)))
    return _ActionTable(enumerate_group(config), codes)


def _state(config: FieldConfig, code: tuple[int, ...]) -> TwoParticleState:
    """The two-particle state object of a flat residue code."""
    return classify(residue_state(config, code, sum(map(mul, code, code)) % config.p))


def _generator_permutations(table: _ActionTable, mode: str) -> list[tuple[int, ...]]:
    """Permutations generating the action: (s, s) for global, (s, e) and (e, s) for local."""
    sides = table.generator_sides
    if mode == "global":
        return [tuple(s2[i] for i in s1) for s1, s2 in sides]
    return [s1 for s1, _ in sides] + [s2 for _, s2 in sides]


def _acting_order(table: _ActionTable, mode: str) -> int:
    """|G| for the global action, |G|^2 for the local one."""
    if mode == "global":
        return table.group.order
    if mode == "local":
        return table.group.order ** 2
    raise ValueError("orbit mode must be 'global' or 'local'")


def _stabilizer_order(table: _ActionTable, mode: str, perms: list, i: int) -> int:
    """How many elements of the acting group fix state i; perms from _generator_permutations."""
    index = table.group_index
    if mode == "global":
        return index.images(i, perms).count(i)
    n = len(index.generators)
    # (a, b) fixes i exactly when a on side 1 and b^-1 on side 2 agree on i
    images2 = Counter(index.images(i, perms[n:]))
    return sum(images2[j] for j in index.images(i, perms[:n]))


def orbits(config: FieldConfig, mode: str) -> list[Orbit]:
    """Orbits of the entangled physical states under the chosen action.

    Each orbit is found from its least code index, so the orbits come in
    ascending order of their representatives, and only a representative is
    built as a state object.
    """
    table = _action_table(config)
    acting_order = _acting_order(table, mode)
    perms = _generator_permutations(table, mode)
    assigned: set[int] = set()
    out = []
    for start, code in enumerate(table.codes):
        if start in assigned:
            continue
        members = sorted([start, *(j for j, _, _ in _walk(start, perms))])
        assigned.update(members)
        stabilizer = _stabilizer_order(table, mode, perms, start)
        if stabilizer * len(members) != acting_order:
            raise AssertionError("orbit-stabilizer identity violated")
        out.append(
            Orbit(
                mode=mode,
                representative=_state(config, code),
                members=tuple(table.codes[i] for i in members),
                stabilizer_order=stabilizer,
                acting_order=acting_order,
            )
        )
    return out


def burnside_count(config: FieldConfig, mode: str) -> int:
    """Orbit count as the average number of fixed points over the action.

    A fixed-point count is a class function, and the classes of the local
    group G x G are pairs of classes of G, so the sum over the acting group
    is a sum over class representatives weighted by class size.  Each
    representative's permutation is composed from the generator rows.
    """
    table = _action_table(config)
    acting_order = _acting_order(table, mode)
    perms = _generator_permutations(table, mode)
    index = _group_index(config)
    ids = range(len(table.codes))
    if mode == "global":
        total = sum(
            len(c) * sum(map(eq, index.compose(c[0], perms), ids)) for c in index.classes
        )
    else:
        n = len(index.generators)
        # (a, b) fixes i exactly when side2_b[side1_a[i]] = i, that is when
        # side1_a[i] = side2_b^-1[i]
        back2 = [(len(c), index.compose(index.inverse[c[0]], perms[n:])) for c in index.classes]
        total = 0
        for c in index.classes:
            row1 = index.compose(c[0], perms[:n])
            total += len(c) * sum(size * sum(map(eq, row1, row2)) for size, row2 in back2)
    if total % acting_order != 0:
        raise AssertionError("Burnside sum is not divisible by the group order")
    return total // acting_order


# -- local equivalence and state labels -------------------------------------------


@dataclass(frozen=True)
class LocalTransform:
    g1: GroupElement
    g2: GroupElement
    representative_label: str
    representative: TwoParticleState


@lru_cache(maxsize=None)
def _local_reach(config: FieldConfig) -> dict[int, tuple[str, int, int]]:
    """Walk the local generators from each representative, recording words.

    For every reachable state index this stores (rep_label, a, b) with
    state = (A tensor B) rep for the elements A, B at indices a, b; each step
    moves a or b along a generator's left multiplication.  The inverse pair
    maps the state back.
    """
    table = _action_table(config)
    left, identity = table.group_index.generator_left, table.group_index.identity
    n = len(left)
    perms = _generator_permutations(table, "local")  # side-1 moves, then side-2
    reach: dict[int, tuple[str, int, int]] = {}
    for label, rep in representative_states(config).items():
        start = table.index[flat_residues(rep.state.rep.components)]
        if start in reach:
            continue
        reach[start] = (label, identity, identity)
        for j, k, i in _walk(start, perms):
            _, a, b = reach[i]
            reach[j] = (label, left[k][a], b) if k < n else (label, a, left[k - n][b])
    return reach


def find_local_transform(state: TwoParticleState) -> LocalTransform:
    """A local pair (g1, g2) carrying the state onto its orbit representative."""
    config = state.config
    table = _action_table(config)
    idx = table.index.get(flat_residues(state.state.rep.components))
    if idx is None:
        raise ValueError("state is not an entangled physical state")
    reach = _local_reach(config)
    if idx not in reach:
        raise ValueError("state is not locally equivalent to any representative")
    label, a, b = reach[idx]
    elements, inverse = table.group.elements, table.group_index.inverse
    reps = representative_states(config)
    return LocalTransform(
        g1=elements[inverse[a]],
        g2=elements[inverse[b]],
        representative_label=label,
        representative=reps[label],
    )


@lru_cache(maxsize=None)
def entangled_labels(config: FieldConfig) -> dict[str, TwoParticleState]:
    """Label each entangled physical state by its side-1 relation to S.

    The state carrying label g is the one mapped onto S by g acting on side 1
    alone; S itself is the identity's state.  This is well-defined exactly
    when the side-1 action on S is free and covers the entangled physical
    states, which holds over GF(3).
    """
    table = _action_table(config)
    group = table.group
    s_state = representative_states(config)["S"]
    start = table.index[flat_residues(s_state.state.rep.components)]
    index = table.group_index
    images = index.images(start, [s1 for s1, _ in table.generator_sides])
    labels: dict[str, TwoParticleState] = {}
    for k, image in enumerate(images):
        # (g tensor 1) S = state  <=>  (g^-1 tensor 1) state = S
        owner = group.elements[index.inverse[k]]
        name = "S" if owner is group.identity else owner.label
        if name in labels:
            raise ValueError("side-1 action on S is not free; labels undefined")
        labels[name] = _state(config, table.codes[image])
    if len(labels) != len(table.codes):
        raise ValueError("side-1 orbit of S does not cover the entangled states")
    return labels
