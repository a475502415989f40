"""Projective groups of basis transformations and their orbit structure.

A 2x2 matrix M preserves the biorthogonal structure when dagger(M) * M is a
nonzero base-field multiple of the identity; over p = 3 fields that multiple
is forced into {+1, -1}, and its sign is stored on each element.  Each
element is kept in leading-1 canonical form; the members are constructed
from the physical one-particle points, and their sorted element-index codes
give the element objects and the index tables.  Elements are named by the
permutation they induce on the named one-particle states (cycle notation,
identity "e"; ``_letters`` refuses past 26).  Two-particle actions put one
matrix on both sides (global) or one (local_1, local_2); the local group is G x G.

Every action of a member runs one way, on element-index columns like the
code table's (``linear.ColumnEngine``), with no state object, ``act`` call or
per-state lookup: side 1, psi -> M psi on a 2x2 array, gives the two-particle
actions, the members' left multiplication (``_GroupIndex``) and the images of
the one-particle points coded as [[x, 0], [y, 0]].  The two-particle table, on
the entangled physical states, keeps only the generators' rows; side 2 is
side 1 conjugated by the transposition psi -> psi^T.  Orbits and words walk
those rows on the index alone, and only an orbit's least ``two_particle_codes``
row becomes a state object; ``act`` is the object path the tests check against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import eq, itemgetter
from string import ascii_lowercase
from typing import Iterable, Iterator, Sequence

from .gf import FieldConfig, phi_map
from .linear import (
    ColumnEngine,
    Matrix,
    ProjectiveState,
    StateVector,
    canonicalize,
    dagger,
    element_indices,
    index_residues,
    inverse2,
    mat_mul,
    mat_neg,
    mat_vec,
    matrix_make,
    residue_state,
)
from .biortho import physical_states, spin_axes, spin_observable
from .entangle import (PHYSICAL, TwoParticleState, classify, representative_states,
                       two_particle_codes)

ACT_MODES = ("single", "global", "local_1", "local_2")


def _cycle_notation(perm: tuple[int, ...], letters: str) -> str:
    seen: set[int] = set()
    cycles = []
    for start, nxt in enumerate(perm):
        if start not in seen and nxt != start:
            cycle = [start]
            while nxt != start:
                cycle.append(nxt)
                nxt = perm[nxt]
            seen.update(cycle)
            cycles.append("(" + "".join(letters[i] for i in cycle) + ")")
    return "".join(cycles) or "e"


@dataclass(frozen=True)
class GroupElement:
    matrix: Matrix  # canonical leading-1 form
    label: str
    sign: int  # phi of the scalar c in dagger(M) M = c * identity

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


def _point_images(engine: ColumnEngine, members: Sequence[bytes],
                  points: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each one-particle point's image index under every member at once: side 1
    of [[a, b], [c, d]] sends [[x, 0], [y, 0]] to [[a x + b y, 0], [c x + d y, 0]],
    so with the members' a, b, c, d as columns, x and y are the scalars."""
    a, b, c, d = members
    positions = engine.positions(engine.rows(list(zip(*points))), 2)
    return [engine.permutation(positions, (engine.lin(x, a, y, b), engine.lin(x, c, y, d)))
            for x, y in points]


def _letters(config: FieldConfig) -> str:
    count = len(physical_states(config))
    if count > len(ascii_lowercase):
        raise ValueError("too many one-particle states to letter-label")
    return ascii_lowercase[:count]


@lru_cache(maxsize=None)
def enumerate_group(config: FieldConfig) -> ProjectiveGroup:
    """All canonical 2x2 matrices M with dagger(M) M a nonzero scalar, read
    from the index's member codes, each labelled by its action on the physical
    states in cycle notation (``_point_images`` on the member columns)."""
    letters = _letters(config)
    index = _group_index(config)
    points = [element_indices(config, s.rep.components) for s in physical_states(config)]
    perms = zip(*_point_images(index.engine, index.members, points))
    zero, residues = config.zero(), index_residues(config)
    found: list[GroupElement] = []
    for code, perm in zip(index.codes, perms):
        (ar, ai), (br, bi), (cr, ci), (dr, di) = map(residues.__getitem__, code)
        m = matrix_make(config, (((ar, ai), (br, bi)), ((cr, ci), (dr, di))))
        c = config.element(ar * ar + ai * ai + cr * cr + ci * ci)
        if mat_mul(dagger(m), m) != ((c, zero), (zero, c)):
            raise AssertionError("dagger(M) M is not the scalar its first column gives")
        found.append(GroupElement(matrix=m, label=_cycle_notation(perm, letters),
                                  sign=phi_map(c)))
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
    """Whether the members act regularly on the ordered triples of the n
    self-orthogonal points (1, c), c conj(c) = -1 (none over GF(p)): an
    invertible member sends the first three to three distinct points, so
    the action is regular when these images differ and |G| = n(n - 1)(n - 2).
    """
    p, index, one = config.p, _group_index(config), config.one()
    points = [element_indices(config, (one, x)) for x in config.elements()
              if (1 + x.re**2 + x.im**2) % p == 0]
    n = len(points)
    if n < 3:
        return False
    images = set(zip(*_point_images(index.engine, index.members, points)[:3]))
    return len(index.members[0]) == len(images) == n * (n - 1) * (n - 2)


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
    return IsomorphismReport(order=group.order, class_sizes=class_sizes, abelian=abelian,
                             element_order_profile=profile,
                             name=name if verified else "unidentified", verified=verified)


# -- conjugation of observables --------------------------------------------------


@dataclass(frozen=True)
class SpinConjugation:
    axis: int
    sign: int


def conjugate_observable(g: GroupElement, sigma: Matrix) -> SpinConjugation:
    """Compute g sigma g^-1 for a 2x2 matrix sigma and identify it as
    (+/-) a spin matrix over the field of sigma's entries.

    Conjugation is insensitive to the phase representative.  A result outside
    the signed spin set signals a bug and raises.
    """
    config = sigma[0][0].config
    transformed = mat_mul(mat_mul(g.matrix, sigma), inverse2(g.matrix))
    for axis in spin_axes(config):
        spin = spin_observable(config, axis)
        if transformed == spin:
            return SpinConjugation(axis=axis, sign=1)
        if transformed == mat_neg(spin):
            return SpinConjugation(axis=axis, sign=-1)
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
    """The group on element indices, built once per field with its ``engine``.

    A member's first column is a physical one-particle point (a, c), and its
    second is mu (-conj(c), conj(a)) with mu conj(mu) = 1, orthogonal with the
    same norm: p(p^2 - 1) members over GF(p^2) and 2(p + 1) over GF(p).  Their
    sorted canonical index codes are ``codes``, their columns ``members``.

    ``generators`` are the elements, in order, not generated by those before
    them; ``tree`` is the Cayley tree from the identity, one (s*h, k, h) per
    other element with s the k-th generator.  ``generator_left[k]`` is side 1
    of generator k on the members and ``inverse[k]`` element k's inverse, the
    adjugate [[d, -b], [-c, a]].  ``classes``, in ``conjugacy_classes``
    order, are the orbits of x -> s x s^-1 = (s (s x)^-1)^-1; ``orders[k]`` is
    read once per class, the identity's cycle under left multiplication.
    """

    def __init__(self, config: FieldConfig):
        self.engine = engine = ColumnEngine(config)
        p, zero, one = config.p, config.zero(), config.one()
        units = [x for x in config.elements() if x * x.frobenius() == one]
        raw = [element_indices(config, (a, -mu * c.frobenius(), c, mu * a.frobenius()))
               for a, c in (s.rep.components for s in physical_states(config))
               for mu in units]  # [[a, -mu conj(c)], [c, mu conj(a)]]
        self.codes = codes = tuple(sorted(zip(*engine.canonical(list(map(bytes, zip(*raw)))))))
        order = p * (p * p - 1) if config.is_extension else 2 * (p + 1)
        if not len(set(codes)) == len(codes) == order:
            raise AssertionError("the construction does not give p(p^2 - 1) or 2(p + 1) members")
        self.members = tuple(map(bytes, zip(*codes)))
        positions = engine.positions(engine.rows(self.members), 4)
        self.identity = start = codes.index(element_indices(config, (one, zero, zero, one)))
        gens: list[int] = []
        left: list[tuple[int, ...]] = []
        tree: list[tuple[int, int, int]] = []
        generated = {start}
        for k in range(order):
            if k not in generated:
                gens.append(k)
                left.append(engine.permutation(positions,
                                               engine.side1(codes[k], self.members)))
                tree = _walk(start, left)
                generated = {start, *(j for j, _, _ in tree)}
        if len(generated) != order:
            raise AssertionError("the generators do not reach every group element")
        self.generators, self.tree, self.generator_left = tuple(gens), tree, tuple(left)
        a, b, c, d = self.members  # the adjugate [[d, -b], [-c, a]]
        self.inverse = inv = engine.permutation(
            positions, (d, b.translate(engine.negate), c.translate(engine.negate), a))
        self.parent = {sh: (k, h) for sh, k, h in self.tree}
        conjugations = [[inv[left[inv[left[x]]]] for x in range(order)]
                        for left in self.generator_left]
        self.classes = classes = tuple(sorted(
            map(tuple, _orbit_members(order, conjugations)), key=lambda c: (len(c), c[0])))
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
    """The one-sided actions on ascending ``two_particle_codes`` rows, as generator rows.

    ``generator_sides[k]`` is the (side-1, side-2) permutation of the
    positions in ``rows`` made by the k-th generator: psi -> M psi on the
    rows' index columns, and psi -> psi M^T = (M psi^T)^T, read as
    tau side1 tau with tau the transposition psi -> psi^T.  A row set not
    closed under the generators raises "escapes".  The generators, the
    Cayley tree and the engine are the field's ``_GroupIndex``, ``index``.
    """

    def __init__(self, config: FieldConfig, rows: Sequence[int]):
        self.rows = rows
        self.index = index = _group_index(config)
        engine, columns = index.engine, two_particle_codes(config)[0]
        psi = [bytes(map(column.__getitem__, rows)) for column in columns]
        positions = engine.positions(rows, 4)
        tau = engine.permutation(positions, itemgetter(0, 2, 1, 3)(psi))
        sides = []  # (side-1, side-2) permutations of each generator
        for k in index.generators:
            side1 = engine.permutation(positions, engine.side1(index.codes[k], psi))
            sides.append((side1, tuple(map(tau.__getitem__, map(side1.__getitem__, tau)))))
        self.generator_sides = tuple(sides)


@dataclass(frozen=True)
class Orbit:
    representative: TwoParticleState  # the state of the least member row
    members: tuple[int, ...]  # ascending ``two_particle_codes`` rows
    stabilizer_order: int
    acting_order: int

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def _action_table(config: FieldConfig) -> _ActionTable:
    """The table on the entangled physical states: the ``two_particle_codes``
    rows whose kind byte is PHYSICAL alone, in table order."""
    _letters(config)  # a refusal before the code table, in place of a cost estimate
    kinds = two_particle_codes(config)[2]
    rows = tuple(compress(range(len(kinds)), [kind == PHYSICAL for kind in kinds]))
    return _ActionTable(config, rows)


def _state(config: FieldConfig, row: int) -> TwoParticleState:
    """The two-particle state object of a ``two_particle_codes`` row."""
    columns, norms, _ = two_particle_codes(config)
    return classify(residue_state(config, [column[row] for column in columns], norms[row]))


def state_rows(config: FieldConfig, states: Iterable[TwoParticleState]) -> list[int]:
    """The ``two_particle_codes`` rows of two-particle states, in closed form."""
    codes = (element_indices(config, s.state.rep.components) for s in states)
    return _group_index(config).engine.rows(list(zip(*codes)))


def _generator_permutations(table: _ActionTable, mode: str) -> list[tuple[int, ...]]:
    """Permutations generating the action: (s, s) for global, (s, e) and (e, s) for local."""
    sides = table.generator_sides
    if mode == "global":
        return [tuple(map(s2.__getitem__, s1)) for s1, s2 in sides]
    return [s1 for s1, _ in sides] + [s2 for _, s2 in sides]


def _acting_order(table: _ActionTable, mode: str) -> int:
    """|G| for the global action, |G|^2 for the local one."""
    if mode not in ("global", "local"):
        raise ValueError("orbit mode must be 'global' or 'local'")
    return len(table.index.codes) ** (1 if mode == "global" else 2)


def _stabilizer_order(table: _ActionTable, mode: str, perms: list, i: int) -> int:
    """How many elements of the acting group fix state i; perms from _generator_permutations."""
    index = table.index
    if mode == "global":
        return index.images(i, perms).count(i)
    n = len(index.generators)
    # (a, b) fixes i exactly when a on side 1 and b^-1 on side 2 agree on i
    images2 = Counter(index.images(i, perms[n:]))
    return sum(images2[j] for j in index.images(i, perms[:n]))


def _orbit_members(count: int, perms: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The orbits of range(count) under perms, each as its ascending indices,
    in the order of their least members."""
    assigned: set[int] = set()
    for start in range(count):
        if start not in assigned:
            members = sorted([start, *(j for j, _, _ in _walk(start, perms))])
            assigned.update(members)
            yield members


def orbits(config: FieldConfig, mode: str) -> list[Orbit]:
    """Orbits of the entangled physical states under the chosen action.

    Each orbit is found from its least row, so the orbits come in ascending
    order of their representatives, and only a representative is built as a
    state object.
    """
    table = _action_table(config)
    acting_order = _acting_order(table, mode)
    perms = _generator_permutations(table, mode)
    out = []
    for members in _orbit_members(len(table.rows), perms):
        stabilizer = _stabilizer_order(table, mode, perms, members[0])
        if stabilizer * len(members) != acting_order:
            raise AssertionError("orbit-stabilizer identity violated")
        rows = tuple(map(table.rows.__getitem__, members))
        out.append(Orbit(representative=_state(config, rows[0]), members=rows,
                         stabilizer_order=stabilizer, acting_order=acting_order))
    return out


def burnside_count(config: FieldConfig, mode: str) -> int:
    """Orbit count as the average number of fixed points over the action.

    A fixed-point count is a class function, so the sum runs over class
    representatives weighted by class size, each one's row composed from the
    generator rows.  Locally, (a, b) fixes i for |G|/|O2(i)| elements b when
    side1_a(i) lies in i's side-2 orbit O2(i), and for none otherwise: a class
    function of a, read against the side-2 orbits, not the local ones.
    """
    table = _action_table(config)
    acting_order = _acting_order(table, mode)
    perms = _generator_permutations(table, mode)
    index = table.index
    ids = range(len(table.rows))
    if mode == "global":
        total = sum(
            len(c) * sum(map(eq, index.compose(c[0], perms), ids)) for c in index.classes
        )
    else:
        n, order = len(index.generators), len(index.inverse)
        orbit2, weight = [0] * len(ids), [0] * len(ids)  # O2(i) by its start, |G|/|O2(i)|
        for members in _orbit_members(len(ids), perms[n:]):
            for j in members:
                orbit2[j], weight[j] = members[0], order // len(members)
        total = sum(
            len(c) * sum(compress(weight, map(eq, map(orbit2.__getitem__,
                                                      index.compose(c[0], perms[:n])), orbit2)))
            for c in index.classes
        )
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
def _local_reach(config: FieldConfig) -> dict[tuple[int, ...], LocalTransform]:
    """Walk the local generators from each representative, recording words:
    a reached state is (A tensor B) rep for the elements at indices a, b,
    each step moving a or b along a generator's left multiplication, and the
    inverse pair, keyed by the state's element-index code, maps it back.
    """
    table = _action_table(config)
    index, elements = table.index, enumerate_group(config).elements
    left, n = index.generator_left, len(index.generator_left)
    perms = _generator_permutations(table, "local")  # side-1 moves, then side-2
    reps = representative_states(config)
    reach: dict[int, tuple[str, int, int]] = {}
    for label, row in zip(reps, state_rows(config, reps.values())):
        start = table.rows.index(row)
        if start in reach:
            continue
        reach[start] = (label, index.identity, index.identity)
        for j, k, i in _walk(start, perms):
            _, a, b = reach[i]
            reach[j] = (label, left[k][a], b) if k < n else (label, a, left[k - n][b])
    columns, inverse = two_particle_codes(config)[0], index.inverse
    return {tuple(c[table.rows[i]] for c in columns):
            LocalTransform(elements[inverse[a]], elements[inverse[b]], label, reps[label])
            for i, (label, a, b) in reach.items()}


def find_local_transform(state: TwoParticleState) -> LocalTransform:
    """A local pair (g1, g2) carrying the state onto its orbit representative."""
    if state.is_product or not state.physical:
        raise ValueError("state is not an entangled physical state")
    config = state.config
    move = _local_reach(config).get(element_indices(config, state.state.rep.components))
    if move is None:
        raise ValueError("state is not locally equivalent to any representative")
    return move


@lru_cache(maxsize=None)
def entangled_labels(config: FieldConfig) -> dict[str, TwoParticleState]:
    """Label each entangled physical state by its side-1 relation to S.

    The state carrying label g is the one mapped onto S by g acting on side 1
    alone; S itself is the identity's state.  This is well-defined exactly
    when the side-1 action on S is free and covers the entangled physical
    states, which holds over GF(3).
    """
    table = _action_table(config)
    elements, index = enumerate_group(config).elements, table.index
    start = table.rows.index(*state_rows(config, [representative_states(config)["S"]]))
    images = index.images(start, [s1 for s1, _ in table.generator_sides])
    labels: dict[str, TwoParticleState] = {}
    for k, image in enumerate(images):
        # (g tensor 1) S = state  <=>  (g^-1 tensor 1) state = S, g^-1 element k
        name = "S" if k == index.identity else elements[index.inverse[k]].label
        if name in labels:
            raise ValueError("side-1 action on S is not free; labels undefined")
        labels[name] = _state(config, table.rows[image])
    if len(labels) != len(table.rows):
        raise ValueError("side-1 orbit of S does not cover the entangled states")
    return labels
