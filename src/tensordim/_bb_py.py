"""Hitting-set search kernel, pure-Python edition.

Each pair of vertices that must be told apart contributes one mask of
"resolver" bits; a solution is a set of vertex bits hitting every mask.
All masks fit one machine word (at most 64 vertices).  The five entry
points, `min_hitting_size`, `greedy_completion`, `lex_min_hitting_set`,
`orbit_min_size` and `product_pair_masks`, are the reference that the
compiled module `_bb` mirrors step for step, with the same contracts, and
stand in for it when the extension is unavailable.  `min_hitting_size`
runs branch and bound: branch on the pending mask with the fewest
resolvers (candidates in ascending id, with sibling exclusion so no
subset is explored twice), propagate forced single-resolver picks, and
bound with a greedy disjoint-mask packing.

Near the leaves, nodes are settled without branching, by two rules.

- Last pick.  A node with count picks and best <= count + 2 improves best
  only through a child with count + 1 picks, that is, a vertex hitting
  every pending mask.  The node ANDs its pending masks into its available
  candidates and returns as soon as the AND is zero; otherwise it sets
  best = count + 1 with the least vertex of the AND.  The AND lies inside
  every restricted mask, the branching mask among them, so branching would
  reach that vertex first, with no earlier sibling excluding it.  The rule
  runs before each propagation pass.  Forced picks could only confirm the
  node's one vertex: a single forced vertex is the only candidate the AND
  can hold, and two of them leave it empty.
- Two picks left.  After propagation, a node with best = count + 3 settles
  its children in place.  It takes each w of the branching mask in
  ascending order, with the earlier siblings excluded as in branching.
  Each child is a last-pick node (or has nothing pending).  A w that
  misses no mask gives best = count + 1, and no later child can improve
  on it.  Otherwise the child ANDs the masks that miss w into its own
  candidates, and a nonzero AND gives best = count + 2 with its least
  vertex; from then on only a w missing no mask improves, so the AND
  starts from zero.  The `lower` stop is checked after each child, as in
  branching.  The node therefore returns the value, witness and `lower`
  stop that branching would, without building the children's pending
  lists.  The pass runs before the packing bound: at best = count + 3 the
  bound cuts only a node with three disjoint masks, where no two vertices
  hit every mask and the pass rejects every child anyway.

The search carries `chosen`, the picks on the path to a node: forced picks
and the branch bit are added as they are made.  Each time best falls, the
node records chosen (a node with nothing pending), chosen plus the least
vertex of the last pick's AND, or chosen plus w and the least vertex of
w's AND (the two-pick pass): the vertices branching would take first.  So
a caller's `witness` list receives a solution of the returned size.

`greedy_completion` is the solver's upper seed: it takes the candidate
in the most masks still unhit, repeats counted, lowest id on ties, until
every mask is hit, and returns the picks in order.  Each pick counts
with bit-sliced counters: level i holds bit i of every candidate's count
as one word, a mask is added by rippling its carries up the levels, and
the largest count is read from the top level down, keeping the
candidates set at each level where any is, so its least id is the
lowest on ties.  A pick costs a few word operations per pending mask,
not one per mask bit.

`lex_min_hitting_set`, the certificate loop, builds a solution within a
budget from size queries to a kernel's `min_hitting_size`: it
appends the least candidate v above the members so far whose unhit masks
the candidates above v can still hit within the budget.  It skips a v that
hits no pending mask, which no minimum solution contains: the scan runs
over the candidates in the OR of the pending masks.  So at budget ==
optimum no minimum solution extends the prefix with a smaller member, and
the result is the lexicographically least minimum solution.

The last two members are settled in place, with no query.  With one
member left, the query at v succeeds exactly when v lies in every pending
mask, so the loop takes the least candidate of their AND, or returns None
when the AND is empty.  With two left, the query at v is a last-pick node
(above): it succeeds exactly when v misses no pending mask, or when the
masks v misses share a candidate above v.  The loop takes the first such
v and, when v misses a mask, the least shared candidate.  A query is
therefore asked only with two or more members left to place after v.

Many of those queries are answered before they are asked.  The loop keeps
a completion `comp`: a set inside the candidates, with at most budget
minus the prefix's size members, that hits every pending mask.  The
caller may pass one (the solution its size search found), and every
successful query's witness becomes the next.  When the scan reaches
v = min(comp), comp - v lies above v, fits the smaller budget and hits
every mask v leaves unhit, so the query would succeed: v is taken without
it.  A v below min(comp) is queried as before; the members of comp below
the scan hit nothing pending, so dropping them leaves a completion.  Every
step therefore takes the same v as the plain loop.  The completion move
and the failure carry (below) are tried first, and a query is asked only
when they fail.  Each step ends by checking the completion it hands on
against the masks still pending, so a kernel that returns a wrong witness
raises AssertionError instead of yielding a set that is not the least.

On a product of cliques K_{m_1} x ... x K_{m_t}, given by its `sizes`,
the loop answers more queries without asking them, by the product's
automorphisms (isomorphism pruning, Margot, Math. Prog. 94, 2002).  Its
ids follow the mixed-radix codec of `_value_masks`, and the value
permutations S_{m_1} x ... x S_{m_t} preserve distances.  For the prefix
P and candidates u < v, `_value_swaps` gives sigma, the product of the
value transpositions (u_i v_i) on the axes where u and v differ, when
u_i <= v_i on every axis and sigma maps P onto itself; else none.  sigma
may swap members of P: on 4x10 with P = the vertices (0, 0)..(0, 4), the
swap of columns 0 and 1 maps P onto itself and sends (1, 1) to (1, 0), so
a failed query at (1, 0) settles the one at (1, 1).  sigma sends v to u
and every id x above v to an id above u.  Take the first axis k where x
and v differ, so x_k > v_k >= u_k.  On the axes before k, x agrees with v
and so sigma(x) agrees with u.  On axis k, x_k is neither u_k nor v_k, so
sigma leaves it, and sigma(x)_k = x_k > u_k: sigma(x) > u.  A
transposition with u_i > v_i on some axis cannot serve: it sends the ids
that agree with v before axis i and have value u_i there, which lie above
v, below u.  Each transposition is two shifts of value-mask runs, so no
step runs per vertex.

sigma maps the pair masks onto themselves, so a set completes P exactly
when its image does (sigma(P + C) = P + sigma(C)), given that `masks` are
the product's pair masks and `cand_mask` holds every id from its least
one up, as on the solver's product route.  The loop checks the second up
front: with `sizes`, a nonempty `cand_mask` with cand + lowbit(cand) !=
2**n raises ValueError.  Two implications follow:

- Completion move.  The scan reaches v below c = min(comp).  If sigma
  sends c to v, sigma(comp) holds v, lies above v with that one exception,
  fits the budget and completes the prefix: the query at v would succeed.
  v is taken without it, and comp becomes sigma(comp) - v.
- Failure carry.  The query at u failed at this prefix and sigma sends v
  to u.  Then the query at v fails too: sigma maps v plus a completion
  above v onto u plus a completion above u.  v is skipped and recorded as
  failed.  The record starts empty at each prefix, so every u and v the
  loop passes lie above every prefix member.

Both keep the v of every step, so the result is unchanged.

`orbit_min_size` is the size search of a product of cliques with orbital
branching (the `solver` docstring gives the argument).  The root drops
the masks that vertex 0 hits, forces vertex 0 and takes every other id of
the product as a candidate, so no caller's exclusions can break the
argument.  A node branches on the orbits of the pointwise stabilizer of
its forced vertices, read off the value masks of its `sizes`: branch i
forces the least id of orbit i and drops the masks it hits, and the later
branches exclude the orbits before them.  The root branches whenever a
mask is pending; a node below it branches while its largest orbit has
`min_candidates` candidates and its incumbent exceeds the forced count by
`min_budget`.  Any other node is a leaf, asked as a query.

Both searches ask their size queries in one place, `_ask`: the certificate
loop at v (the masks v misses, the candidates above v) and each orbit leaf
(its masks, its candidates).  `_ask` restricts the masks to the
candidates, de-duplicates them, first occurrence kept, and hands them to
`min_size`, so both kernels ask their size search the same queries.  One
rule reads every answer: a size below `upper` must come with a witness,
else AssertionError.

`product_pair_masks` builds the masks that `orbit_min_size` and the
certificate loop search on a product of cliques: one per vertex pair,
read off the value masks (the `solver` docstring gives the argument),
with repeats dropped, first occurrence kept.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from math import prod
from operator import and_, index, or_


def _bits_ascending(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _word(value) -> int:
    """value as a 64-bit mask; OverflowError outside [0, 2**64), as in `_bb`."""
    value = index(value)
    if value >> 64:  # nonzero for every negative value too
        raise OverflowError(f"mask {value} does not fit in 64 unsigned bits")
    return value


def _c_int(value) -> int:
    """value as a C int, as `_bb` parses `lower` and `upper`: TypeError
    for a non-integer, OverflowError outside [-2**31, 2**31)."""
    value = index(value)
    if not -(1 << 31) <= value < 1 << 31:
        raise OverflowError(f"{value} does not fit in a C int")
    return value


def _words(masks) -> list[int]:
    """Every mask checked as by `_word`, in one pass over the list."""
    words = list(map(index, masks))
    if words and (min(words) < 0 or max(words) >> 64):
        raise OverflowError("a mask does not fit in 64 unsigned bits")
    return words


def _packing_bound(pending: list[int], avail: int) -> int:
    """Count pairwise-disjoint restricted masks; each needs its own pick."""
    union = 0
    count = 0
    for r in sorted([m & avail for m in pending], key=int.bit_count):
        if r & union == 0:
            union |= r
            count += 1
    return count


def min_hitting_size(masks, cand_mask: int, lower: int, upper: int, witness=None) -> int:
    """Smallest number of candidate bits hitting every mask, capped at upper.

    `lower` must be a valid lower bound; the search stops early once it is
    met.  Returns `upper` when nothing strictly better exists (including the
    infeasible case).  When `witness` is a list and the result is below
    `upper`, one solution of that size is appended to it as a mask.  A mask
    or `cand_mask` outside [0, 2**64), or a `lower` or `upper` outside the
    C int range, raises OverflowError; a non-integer one TypeError.
    """
    lower = _c_int(lower)
    upper = _c_int(upper)
    cand_mask = _word(cand_mask)
    if witness is not None and not isinstance(witness, list):
        raise TypeError("witness must be a list or None")
    if lower >= upper:
        return upper
    pending0 = [m & cand_mask for m in _words(masks)]
    best = upper
    best_set = 0

    def dfs(count: int, chosen: int, avail: int, pending: list[int]) -> None:
        nonlocal best, best_set
        # Propagate masks with a single remaining resolver.
        while True:
            if best <= lower:
                return
            if not pending:
                if count < best:
                    best = count
                    best_set = chosen
                return
            if count + 1 >= best:
                return
            if count + 2 >= best:
                # Last pick: only a vertex in every pending mask improves.
                for m in pending:
                    avail &= m
                    if not avail:
                        return
                best = count + 1
                best_set = chosen | (avail & -avail)
                return
            forced = 0
            branch_mask = 0
            branch_count = 1 << 30
            for m in pending:
                r = m & avail
                if r == 0:
                    return
                c = r.bit_count()
                if c == 1:
                    forced |= r
                elif c < branch_count:
                    branch_count = c
                    branch_mask = r
            if not forced:
                break
            count += forced.bit_count()
            if count >= best:
                return
            chosen |= forced
            avail &= ~forced
            pending = [m for m in pending if m & forced == 0]
        excluded = 0
        if count + 3 >= best:
            # Two picks left: each child w is a last-pick node, settled here.
            rest = branch_mask
            while rest:
                wb = rest & -rest
                rest ^= wb
                # Once best is count + 2, only a w in every mask improves.
                common = avail & ~excluded & ~wb if count + 2 < best else 0
                missed = False
                for m in pending:
                    if m & wb == 0:
                        missed = True
                        common &= m
                        if not common:
                            break
                if not missed:
                    best = count + 1
                    best_set = chosen | wb
                    return
                if common:
                    best = count + 2
                    best_set = chosen | wb | (common & -common)
                    if best <= lower:
                        return
                excluded |= wb
            return
        if count + _packing_bound(pending, avail) >= best:
            return
        rest = branch_mask
        while rest:
            wb = rest & -rest
            rest ^= wb
            dfs(count + 1, chosen | wb, avail & ~excluded & ~wb,
                [m for m in pending if m & wb == 0])
            if best <= lower:
                return
            excluded |= wb

    dfs(0, 0, cand_mask, pending0)
    if witness is not None and best < upper:
        witness.append(best_set)
    return best


def greedy_completion(masks, cand_mask: int) -> list[int]:
    """A greedy hitting set from the candidates, in pick order: each pick is
    the candidate in the most masks still unhit, repeats counted, lowest id
    on ties (module docstring).  A mask with no candidate raises ValueError;
    a mask or `cand_mask` outside [0, 2**64) raises OverflowError and a
    non-integer one TypeError, as in `min_hitting_size`.
    """
    cand_mask = _word(cand_mask)
    pending = [m & cand_mask for m in _words(masks)]
    if not all(pending):
        raise ValueError("a mask has no candidate resolver")
    picks = []
    while pending:
        # Bit-sliced counters: bit w of levels[i] is bit i of the number of
        # pending masks holding w.  Adding a mask ripples its carries up.
        levels: list[int] = []
        for m in pending:
            for i, level in enumerate(levels):
                levels[i] = level ^ m
                m &= level
                if not m:
                    break
            else:
                levels.append(m)
        # The largest count, read from the top level down, and its least id.
        best = cand_mask
        for level in reversed(levels):
            if best & level:
                best &= level
        wb = best & -best
        picks.append(wb.bit_length() - 1)
        pending = [m for m in pending if not m & wb]
    return picks


def _checked_completion(comp: int, pending: list[int], cand_mask: int, size: int) -> int:
    """comp, after checking that it is a completion: inside cand_mask, at
    most size members, and hitting every pending mask."""
    if comp & ~cand_mask or comp.bit_count() > size or not all(map(comp.__and__, pending)):
        raise AssertionError(f"{comp:#x} is not a completion within {size} candidates")
    return comp


def _value_masks(sizes, cand_mask: int = 0) -> list[list[int]]:
    """masks[i][a]: the ids with value a on axis i of the product of cliques
    of these sizes.  In the mixed-radix codec they are the runs of `stride`
    ids at offset a * stride in every period of m_i * stride ids, so each
    mask is the run times a repeat.  The one check of the sizes, shared by
    the entry points, as `_bb`'s `read_sizes`: in order, each an integer
    (TypeError) of at least 2, their product n at most 64, and cand_mask
    empty or every id of the product from its least one up, the loop's
    contract (ValueError)."""
    checked = []
    n = 1
    for m in sizes:
        m = index(m)
        if m < 2:
            raise ValueError(f"a clique size must be at least 2, got {m}")
        n *= m
        if n > 64:
            raise ValueError("the product of the sizes exceeds 64 vertices")
        checked.append(m)
    if cand_mask and cand_mask + (cand_mask & -cand_mask) != 1 << n:
        raise ValueError("cand_mask holds an id outside the product or misses one above its least")
    masks = []
    stride = n
    for m in checked:
        stride //= m
        period = m * stride
        repeat = ((1 << n) - 1) // ((1 << period) - 1)  # bit 0 of each period
        masks.append([repeat * ((1 << stride) - 1) << (a * stride) for a in range(m)])
    return masks


def _swap_values(swaps: list[tuple[int, int, int]], mask: int) -> int:
    """mask under the value transpositions `swaps`: each (low, high, shift)
    moves the ids of `low` up by shift and those of `high` down."""
    for low, high, shift in swaps:
        mask = mask & ~(low | high) | (mask & low) << shift | (mask & high) >> shift
    return mask


def _value_swaps(value_masks: list[list[int]]):
    """The certificate loop's symmetry on a product of cliques (module
    docstring): symmetry(prefix, u, v) maps masks by the value
    transpositions (u_i v_i) on the axes where u and v differ, or is None
    unless u_i < v_i on each such axis and the transpositions map the
    `prefix` mask onto itself.  An axis's stride is the least id with
    value 1 there."""
    axes = [((masks[1] & -masks[1]).bit_length() - 1, len(masks), masks)
            for masks in value_masks]

    def symmetry(prefix: int, u: int, v: int):
        swaps = []
        for stride, m, masks in axes:
            a, b = u // stride % m, v // stride % m
            if a > b:
                return None
            if a < b:
                swaps.append((masks[a], masks[b], (b - a) * stride))
        if _swap_values(swaps, prefix) != prefix:
            return None
        return partial(_swap_values, swaps)

    return symmetry


def _ask(min_size, masks: list[int], skip: int, cand: int, lower: int,
         upper: int) -> tuple[int, int | None]:
    """The one size query of the certificate loop and the orbit search's
    leaves: the least size below `upper` of a set of candidates in `cand`
    hitting every mask that misses `skip`, and that set, else (upper, None).
    `min_size` gets those masks restricted to `cand` and de-duplicated,
    first occurrence kept, with `lower` and `upper` by keyword
    (tdbench/tracing.py reads them by name).  An answer below `upper` with
    no witness, or with one outside 64 bits, raises AssertionError."""
    witness: list[int] = []
    size = index(min_size(list(dict.fromkeys(m & cand for m in masks if not m & skip)), cand,
                          lower=lower, upper=upper, witness=witness))
    if size >= upper:
        return upper, None
    if not witness:
        raise AssertionError("a size query succeeded without a witness")
    if index(witness[0]) >> 64:  # nonzero for every negative value too
        raise AssertionError("a completion does not fit in 64 bits")
    return size, witness[0]


def lex_min_hitting_set(masks, cand_mask: int, budget: int, min_size=None,
                        completion=None, sizes=None) -> list[int] | None:
    """Lexicographically least hitting set of size <= budget, from size queries.

    Intended to run at budget == optimum (from min_hitting_size), where the
    result is the lexicographically least minimum solution.  Returns [] when
    no mask is pending and None when no solution fits the budget.
    `min_size` answers the queries: `min_hitting_size` of either kernel,
    this module's when None.  (The compiled loop runs its own search
    without a Python call per query.)
    It is asked only with two or more members left to place after v, for a
    v that neither the completion nor the value swaps answer, on that
    query's restricted, de-duplicated instance; the last two members are
    settled in place.
    `completion`, when given, is a mask of candidates, at most `budget` of
    them, hitting every mask (a solution the size search found); it spares
    the queries it already answers and never changes the result.
    `sizes`, when given, names the product of cliques whose pair masks
    `masks` are, with `cand_mask` every id from its least one up (module
    docstring); its value swaps spare the queries they answer and never
    change the result either.
    Masks and `budget` are checked as there (`budget` as `upper`), and
    `sizes` and `cand_mask` as by `_value_masks`; a completion or a query's
    witness that is not a solution, or a query that succeeds without a
    witness, raises AssertionError.
    """
    budget = _c_int(budget)
    cand_mask = _word(cand_mask)
    symmetry = None if sizes is None else _value_swaps(_value_masks(sizes, cand_mask))
    if min_size is None:
        min_size = min_hitting_size
    # Pending masks stay as given: only a query's instance is restricted
    # and de-duplicated.
    pending = _words(masks)
    # comp: inside cand_mask, at most budget - len(prefix) members, hitting
    # every pending mask; 0 while no such set is known.
    comp = 0
    if completion is not None:
        comp = _checked_completion(_word(completion), pending, cand_mask, budget)
    prefix: list[int] = []
    taken = 0  # the prefix as a mask
    while pending:
        need = budget - len(prefix) - 1
        if need < 0:
            return None
        if need == 0:
            # One member left: the least candidate in every pending mask.
            common = reduce(and_, pending, cand_mask)
            if not common:
                return None
            prefix.append((common & -common).bit_length() - 1)
            return prefix
        # A v outside every pending mask hits nothing pending, and no
        # minimum solution holds it: the scan passes it by.
        scan = cand_mask & reduce(or_, pending)
        if need == 1:
            # Two members left: the first v whose missed masks share a
            # candidate above v, or that misses none (the last-pick rule).
            while scan:
                vb = scan & -scan
                scan ^= vb
                missed = [m for m in pending if not m & vb]
                common = reduce(and_, missed, cand_mask & -(vb << 1))
                if common or not missed:
                    prefix.append(vb.bit_length() - 1)
                    if missed:
                        prefix.append((common & -common).bit_length() - 1)
                    return prefix
            return None
        failed: list[int] = []  # queries known to fail at this prefix
        while scan:
            vb = scan & -scan
            scan ^= vb
            v = vb.bit_length() - 1
            comp &= -vb  # members below v hit nothing pending
            if vb == comp & -comp:
                comp ^= vb  # comp - v lies above v and fits: the query succeeds
                break
            later = cand_mask & -(vb << 1)
            if symmetry is not None:
                sigma = symmetry(taken, v, (comp & -comp).bit_length() - 1) if comp else None
                if sigma is not None:  # the completion move, checked below
                    comp = sigma(comp) ^ vb
                    break
                if any(symmetry(taken, u, v) is not None for u in failed):
                    failed.append(v)  # the failure carry
                    continue
            found = _ask(min_size, pending, vb, later, need, need + 1)[1]
            if found is not None:
                comp = found
                break
            failed.append(v)
        else:
            return None
        prefix.append(v)
        taken |= vb
        cand_mask &= -(vb << 1)
        pending = [m for m in pending if not m & vb]
        comp = _checked_completion(comp, pending, cand_mask, need)
    return prefix


def _stabilizer_orbits(value_masks: list[list[int]], forced: int, cand: int) -> list[int]:
    """Orbits on the candidates of the pointwise stabilizer of the `forced`
    mask, as masks, largest first and then by least id.

    An orbit takes one class per axis: the vertices of a value the forced
    vertices use, or the vertices of all the other values.  The classes
    come whole from the value masks, so no step runs per vertex.
    """
    classes = []
    for masks in value_masks:
        held = [m for m in masks if m & forced]
        other = cand
        for m in held:
            other &= ~m
        classes.append(held + [other] if other else held)
    orbits = []
    for pick in itertools.product(*classes):
        orbit = cand
        for m in pick:
            orbit &= m
        if orbit:
            orbits.append(orbit)
    orbits.sort(key=lambda o: (-o.bit_count(), o & -o))
    return orbits


def orbit_min_size(masks, lower: int, upper: int, sizes, min_candidates: int, min_budget: int,
                   min_size=None) -> tuple[int, int | None]:
    """Least size below `upper` of a hitting set that holds vertex 0 on the
    product of cliques of these `sizes`, by orbital branching (module
    docstring).

    The search drops the masks that vertex 0 hits, forces it, and takes
    every other id of the product as a candidate.  `lower` must be a valid
    lower bound; the search stops once it is met.  Returns the size and
    such a set as a mask, or (upper, None) when none is smaller.
    `min_size` answers the leaves, with `lower` and `upper` by keyword:
    this module's `min_hitting_size` when None.  (The compiled search also
    answers its own in place.)  The four integers are read as C ints and
    the masks as 64-bit words, as in `min_hitting_size`, and `sizes` as by
    `_value_masks`.
    """
    lower, upper, min_candidates, min_budget = map(_c_int, (lower, upper, min_candidates,
                                                            min_budget))
    value_masks = _value_masks(sizes)
    masks = [m for m in _words(masks) if not m & 1]
    if min_size is None:
        min_size = min_hitting_size

    def search(masks: list[int], cand: int, forced: int, upper: int) -> tuple[int, int | None]:
        k = forced.bit_count()
        root = k == 1  # each level below the root forces one more vertex
        orbits = (_stabilizer_orbits(value_masks, forced, cand)
                  if masks and (root or upper - k >= min_budget) else [])
        if not orbits or not root and orbits[0].bit_count() < min_candidates:
            size, found = _ask(min_size, masks, 0, cand, max(0, lower - k), upper - k)
            return (upper, None) if found is None else (k + size, forced | found)
        best, best_set = upper, None
        for orbit in orbits:
            # Every branch forces k + 1 vertices.
            if best <= lower or k + 1 >= best:
                break
            rep = orbit & -orbit
            size, found = search([m for m in masks if not m & rep], cand & ~rep, forced | rep,
                                 best)
            if found is not None:
                best, best_set = size, found
            cand &= ~orbit
        return best, best_set

    return search(masks, (1 << prod(map(len, value_masks))) - 2, 1, upper)


def product_pair_masks(sizes) -> list[int]:
    """The distinct pair masks of the connected product of cliques of these
    sizes, in the order of `solver.build_pair_table` (pairs x < y), first
    occurrence kept.

    far[v], the ids outside v's value masks, are v's neighbours, the
    vertices at distance 1.  Any other z != x, y is at distance 2 or 3
    from both, so z tells x and y apart when it neighbours one of them, or
    when the size-2 axis separates x and y: then z is 3 from the one it
    differs from there.  `sizes` is checked as by `_value_masks`, and a
    second size 2, which makes the product disconnected, raises
    ValueError.
    """
    value_masks = _value_masks(sizes)
    if sum(len(axis) == 2 for axis in value_masks) > 1:
        raise ValueError("two axes of size 2 make the product disconnected")
    n = prod(map(len, value_masks))
    near = [0] * n  # near[v]: the union of v's value masks
    side = near[:]  # side[v]: v's value mask on the size-2 axis, 0 without one
    for axis in value_masks:
        for m in axis:
            for v in _bits_ascending(m):
                near[v] |= m
                if len(axis) == 2:
                    side[v] = m
    far = [((1 << n) - 1) & ~m for m in near]
    masks = {}
    for x, y in itertools.combinations(range(n), 2):
        m = far[x] ^ far[y] | 1 << x | 1 << y
        if side[x] != side[y]:
            m |= near[x] & near[y]
        masks.setdefault(m)
    return list(masks)
