"""The package-lattice search engine.

The deterministic counterpart of the "guess polynomially many tuples" steps in
the paper's upper-bound algorithms: every subset of ``Q(D)`` up to the package
size bound is a candidate, and validity filters them.  The enumeration is
exponential in ``|Q(D)|`` when the bound is polynomial in ``|D|`` — exactly
the data-complexity regime the paper proves NP/coNP/#P-hard — and polynomial
when the bound is a constant (Corollary 6.1).

Every solver (RPP, CPP, MBP, FRP, the heuristics and the QRPP/ARPP searches)
rides one shared :class:`PackageSearchEngine`.  Its three search modes —
plain enumeration, non-materializing counting and branch-and-bound top-k —
consume one incremental depth-first traversal of the subset lattice
(:meth:`PackageSearchEngine._walk`) that

* runs in index space: a node is a tuple of candidate indices plus their
  bitmask, and the exclusion set, the top-k tie keys and the
  branch-and-bound hook work on indices and masks,
* threads running cost and rating state along the DFS whenever the problem's
  functions expose an exact :class:`~repro.core.functions.IncrementalAggregate`
  — an attribute sum as a per-candidate array of its raw values — and
  falls back to whole-package evaluation otherwise,
* builds a package only at a yield or a probe (and for a function without
  an incremental form), through the trusted fast path
  (:meth:`~repro.core.packages.Package.trusted`) — items drawn from ``Q(D)``
  were already validated by the query evaluator,
* asks for a node's ``Qc`` verdict last and at most once: it is requested
  only when it can change the outcome — for the anti-monotone pruning hint
  only if the node has children, for admission only once the node has
  passed the budget, the exclusion set, the rating bound and (top-k) the
  current selection's entry test — and one verdict serves both uses; the
  engine registers its ``Q(D)`` with the oracle, so for a CQ, UCQ or ∃FO⁺
  ``Qc`` the index of witness sets decides it
  (:class:`~repro.core.compatibility.CompatibilityOracle`), and once the
  walk's tally holds that index as per-candidate conflict masks a verdict
  is one mask test, with no package and no call into the oracle,
* skips the ``N ⊆ Q(D)`` membership scan entirely (true by construction), and
* yields each admitted node before exploring its subtree, so the top-k mode
  raises its k-th best between yields and the subtree that follows is
  bounded by it, and the counting mode stops early by closing the walk.

Three pruning hints on :class:`~repro.core.model.RecommendationProblem` keep
the search practical on realistic instances without changing its worst case:
``monotone_cost`` prunes supersets of over-budget packages,
``antimonotone_compatibility`` prunes supersets of incompatible packages, and
``monotone_val`` lets :meth:`PackageSearchEngine.best_valid` bound subtrees
whose best achievable rating cannot reach the current k-th best.  All three
are declarations by the problem author; when unset the search is fully
exhaustive.

The pre-engine recursive enumerator is retained as
:func:`enumerate_valid_packages_reference` (mirroring
``enumerate_bindings_naive`` in the query evaluator), and
``tests/test_enumeration_differential.py`` keeps engine and reference
provably equivalent on 100+ random problems.

Exception contract: the engine evaluates cost and rating first and asks for
a verdict only where it can matter, while the reference probes ``Qc`` on
every node it visits before its budget and rating checks.  The two make
different sets of evaluations, so they can differ in what they raise: an
error ``Qc`` would raise on a package that fails the budget or the rating
bound (or cannot enter the top-k) is raised by the reference only, and a
cost or rating function that raises only on packages ``Qc`` rejects raises
in the engine only.  Wherever neither raises, answers are equal.
"""

from __future__ import annotations

import math
from bisect import insort
from contextlib import closing
from itertools import combinations
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.functions import AttributeSumCost, AttributeSumRating
from repro.core.model import RecommendationProblem
from repro.core.packages import Package, Selection
from repro.observability import metrics as _metrics
from repro.relational.database import Relation, Row
from repro.relational.ordering import row_sort_key
from repro.resilience.deadline import checked_deadline

#: Charge the request deadline and check it once per this many lattice
#: nodes.  A power of two, so ``examined & (N - 1)`` is the gate; the
#: overshoot past an exhausted budget is bounded by one stride.
_DEADLINE_STRIDE = 64


class _Bound(NamedTuple):
    """The branch-and-bound hook of :meth:`PackageSearchEngine._walk`."""

    #: ``prunes(index, node_rating, node_mask, path_cost, slots)``: whether no
    #: package extending the node (the candidates whose bits are set in
    #: ``node_mask``) with up to ``slots`` of ``items[index:]`` can still
    #: enter the top-k selection.
    prunes: Callable[[int, float, int, float, int], bool]
    #: Whether the bound is non-increasing in ``index``, so that a pruned
    #: sibling prunes every later sibling too.
    ordered: bool
    #: The exact additive cost of each candidate, threaded as each child's
    #: path cost (``None``: the bound does not use path costs).
    deltas: Optional[Tuple[float, ...]]


def _attribute_sum(function, schema) -> Optional[Tuple[int, float]]:
    """``(position, sign)`` when ``function`` is a plain attribute sum.

    Exact classes only, since a subclass may redefine the sum.  On a
    non-empty package the incremental forms of :class:`AttributeSumCost` and
    :class:`AttributeSumRating` fold ``state + item[position]`` from ``0`` in
    item order and finish with ``float(state)`` (times ``sign`` for the
    rating; ``1.0 *`` leaves a float unchanged), so adding the raw column
    values along the DFS gives bit-identical values.
    """
    kind = type(function)
    if kind is AttributeSumCost:
        return schema.index_of(function.attribute), 1.0
    if kind is AttributeSumRating:
        return schema.index_of(function.attribute), function.sign
    return None


def _rating_test(rating_bound: Optional[float], strict: bool):
    """The walk's ``accept`` test for ``val(N) ≥ B`` (or ``>``); ``None`` if unbounded."""
    if rating_bound is None:
        return None
    if strict:
        return lambda rating, node: rating > rating_bound
    return lambda rating, node: rating >= rating_bound


def _prune_threshold(worst_rating: float) -> float:
    """The bound value below which a subtree is provably outside the top-k.

    For integer-valued ratings (the repo's workloads and reductions — the
    Theorem 5.1 solver even *requires* them) the gains-based upper bound is
    exact and any ``bound < worst`` subtree is safe to cut.  For float-valued
    ratings the bound sums per-item gains in a different order than the
    incremental rating fold, so non-associative float addition can leave the
    true rating an ULP above the bound; the relative slack here makes the
    comparison conservative enough to absorb that, at the cost of exploring a
    vanishingly thin band of extra nodes.  Slack can only *reduce* pruning,
    so results remain bit-identical to the exhaustive sort either way.
    """
    return worst_rating - 1e-9 * (1.0 + abs(worst_rating))


class PackageSearchEngine:
    """A stateful incremental DFS over the subset lattice of ``Q(D)``.

    One engine is bound to one ``(problem, candidate items)`` pair; it reads
    the candidate items, sorted by typed sort key, from the problem's
    :meth:`~repro.core.model.RecommendationProblem.candidate_pool` and
    exposes the search entry points every solver uses; each walk threads the
    problem's cost and rating functions incrementally when it can.  Engines
    are built per solver call and, once the problem's pool holds its epoch's
    ``Q(D)``, constructing one costs a version check: every solver call on
    one pinned problem shares one evaluation and one sort, and on a live
    database the pool re-evaluates after any commit, so a new engine never
    observes a stale ``Q(D)``.  An explicit ``candidate_items`` other than
    the pool's relation is sorted into a pool for the engine alone.  The
    engine registers its pool with the problem's oracle, whose witness
    masks count in the same index space as the walk's candidates.

    Concurrency: an engine's search state lives on the stack of each entry
    point, but every probe funnels into the problem's shared
    :class:`~repro.core.compatibility.CompatibilityOracle`, whose
    version-check-then-clear is not synchronised.  Against a *live* database
    that makes engines single-threaded; against a problem pinned to a
    :class:`~repro.relational.database.DatabaseSnapshot` the version check
    can never fire (pinned relations are frozen), so any number of reader
    threads may run solvers over one pinned problem concurrently — the
    serving layer's whole read path is built on that guarantee.
    """

    __slots__ = (
        "problem",
        "pool",
        "answers",
        "schema",
        "items",
        "keys",
        "limit",
        "max_size",
        "oracle",
        "budget",
        "monotone_cost",
        "antimonotone",
    )

    def __init__(
        self,
        problem: RecommendationProblem,
        candidate_items: Optional[Relation] = None,
    ) -> None:
        self.problem = problem
        self.pool = pool = problem.candidate_pool(candidate_items)
        self.answers = pool.answers
        self.schema = problem.query.output_schema()
        self.items: Tuple[Row, ...] = pool.items
        #: Each item's ``row_sort_key``, position by position.
        self.keys = pool.keys
        self.max_size = problem.max_package_size()
        self.limit = min(self.max_size, len(self.items))
        self.oracle = problem.compatibility_oracle()
        self.oracle.register_answers(pool)
        self.budget = problem.budget
        self.monotone_cost = problem.monotone_cost
        self.antimonotone = problem.antimonotone_compatibility

    # -- trusted package construction ------------------------------------------
    def singleton(self, item: Row) -> Package:
        """A trusted one-item package over an item drawn from ``Q(D)``."""
        return Package.trusted(self.schema, frozenset((item,)), (item,))

    def extend(self, package: Package, item: Row) -> Package:
        """A trusted copy of ``package`` with one more ``Q(D)`` item."""
        return Package.trusted(self.schema, package.items | {item})

    def package(self, items: Iterable[Row]) -> Package:
        """A trusted package over items drawn from ``Q(D)``."""
        return Package.trusted(self.schema, frozenset(items))

    # -- validity for externally assembled candidates --------------------------
    def is_valid_candidate(
        self,
        package: Package,
        rating_bound: Optional[float] = None,
        strict: bool = False,
    ) -> bool:
        """Validity of a package whose items are known to come from ``Q(D)``.

        Same conditions as
        :meth:`~repro.core.model.RecommendationProblem.is_valid_package`
        minus the ``N ⊆ Q(D)`` membership scan, which holds by construction
        for packages the heuristics assemble from engine items.  Cheap checks
        first: ``Qc`` is probed only for a package within the size bound, the
        budget and the rating bound, as in the lattice search.
        """
        if len(package) > self.max_size:
            return False
        if self.problem.cost(package) > self.budget:
            return False
        if rating_bound is not None:
            rating = self.problem.val(package)
            if not (rating > rating_bound if strict else rating >= rating_bound):
                return False
        return self.oracle.is_satisfied(package)

    # -- cost/rating threading -------------------------------------------------
    def _threading(self, function):
        """How the walk threads ``function``: ``(column, sign, initial, extend, finish)``.

        An attribute sum (:func:`_attribute_sum`) threads through ``column``,
        its raw per-candidate values, and is ``sign · float(state)`` at a
        node; any other incremental form threads through ``extend`` and
        ``finish``; a function with neither (all ``None``) is evaluated on
        the node's package.
        """
        summed = _attribute_sum(function, self.schema)
        if summed is not None:
            position, sign = summed
            return tuple(item[position] for item in self.items), sign, 0, None, None
        inc = function.incremental(self.schema)
        if inc is not None:
            return None, None, inc.initial, inc.extend, inc.finish
        return None, None, None, None, None

    # -- the lattice traversal -------------------------------------------------
    def _walk(
        self,
        rated: bool = False,
        accept: Optional[Callable[[Optional[float], Tuple[int, ...]], object]] = None,
        excluded: FrozenSet[Package] = frozenset(),
        bound: Optional[_Bound] = None,
        examined_out: Optional[List[int]] = None,
        packages: bool = True,
    ) -> Iterator[Tuple[Optional[Package], int, Optional[float], object]]:
        """The one depth-first traversal of the lattice every search mode rides.

        Yields each admitted node as ``(package, size, rating, token)`` in DFS
        order over the typed-sorted items.  A node is admitted when it is
        within the budget, not in ``excluded``, passes ``accept`` (called as
        ``accept(rating, node)`` with ``node`` the node's tuple of candidate
        indices; its truthy result is the ``token``) and, last, satisfies
        ``Qc``.  ``rated`` threads the rating along the DFS and computes it
        for every node that reaches ``accept``; otherwise the yielded
        ``rating`` is ``None``.  ``bound`` is the branch-and-bound hook of
        :meth:`best_valid`; with it, every node that survives the pruning
        probes is rated, since its rating seeds its subtree's bound.

        The walk runs in the candidate pool's index space: a node is its
        tuple of candidate indices plus their bitmask, attribute-sum costs
        and ratings add per-candidate array entries, and ``excluded`` is
        compared as masks, mapped through the pool's row → position dict.  A
        :class:`Package` is built only at a yield (and not at all with
        ``packages=False``, where the yielded package is ``None``), for a
        verdict that goes to ``oracle.is_satisfied``, or for a cost or
        rating function without an incremental form.  The walk's oracle
        tally holds the witness index's masks, in this index space, once the
        oracle has an index, and every later node without a ``probe`` bit
        (a candidate outside the indexed pool) is a mask test: compatible
        iff the union of its candidates' conflicts misses its mask and no
        witness set of three rows or more lies within it.  The masks are
        re-checked against the database each time the walk resumes after a
        yield.

        A node is yielded before its subtree is explored, so a consumer
        acting between yields (the top-k selection raising its k-th best)
        already prunes the subtree that follows, and closing the generator
        ends the search.  However the walk ends, it flushes the
        ``engine.nodes.*`` counters and the oracle's verdict counters (once
        per walk, not per verdict), appends the number of examined nodes to
        ``examined_out``, if given, and charges the ambient deadline every
        examined node.
        """
        items, limit = self.items, self.limit
        if limit <= 0:
            return
        count = len(items)
        schema, oracle, budget = self.schema, self.oracle, self.budget
        antimonotone = self.antimonotone
        cost_fn, val_fn = self.problem.cost, self.problem.val
        cost_column, cost_sign, cost_initial, cost_extend, cost_finish = self._threading(cost_fn)
        if rated:
            val_column, val_sign, val_initial, val_extend, val_finish = self._threading(val_fn)
        else:  # the rating never gets consulted: skip threading it
            val_column = val_sign = val_initial = val_extend = val_finish = None
        cost_threaded = cost_column is not None or cost_extend is not None
        val_threaded = val_column is not None or val_extend is not None
        # A monotone cost prunes supersets of over-budget nodes; a threaded
        # one decides before anything else of the node is computed.
        early_cost = self.monotone_cost and cost_threaded
        late_cost = self.monotone_cost and not cost_threaded
        # A function without an incremental form needs every node's package.
        eager = not cost_threaded or (rated and not val_threaded)
        prunes, ordered, deltas = bound if bound is not None else (None, False, None)
        excluded_masks = set()
        if excluded:
            position = self.pool.position
            for package in excluded:
                if package.schema.attribute_names != schema.attribute_names:
                    continue
                mask = 0
                for item in package.items:
                    i = position.get(item)
                    if i is None:
                        break  # not a subset of the candidates: never a node
                    mask |= 1 << i
                else:
                    excluded_masks.add(mask)
        examined = 0
        pruned = 0
        served = 0
        # Read at call time, never in __init__: the ExistPack oracle shares
        # one engine across requests, so a construction-time capture would
        # leak the first request's deadline into every later one.
        deadline = checked_deadline()

        def build(node: Tuple[int, ...]) -> Package:
            # The DFS extends in sorted-item order, so the node's rows *are*
            # its sorted_items: pre-seed the cache.
            rows = tuple([items[i] for i in node])
            return Package.trusted(schema, frozenset(rows), rows)

        def verdict(
            node: Tuple[int, ...], node_mask: int, package: Optional[Package]
        ) -> Tuple[bool, Optional[Package]]:
            """The node's ``Qc`` verdict, and its package if one was built."""
            nonlocal served, conflicts, larger, probe
            if conflicts is not None and not node_mask & probe:
                served += 1
                union = 0
                for i in node:
                    union |= conflicts[i]
                if union & node_mask:
                    return False, package
                if larger is not None:
                    outside = ~node_mask
                    for i in node:
                        for witness in larger[i]:
                            if not witness & outside:
                                return False, package
                return True, package
            if package is None:
                package = build(node)
            compatible = oracle.is_satisfied(package, tally)
            # The verdict that finds the index first fills the tally's masks.
            conflicts, larger, probe = tally.conflicts, tally.larger, tally.probe
            return compatible, package

        def dfs(
            start: int,
            path: Tuple[int, ...],
            mask: int,
            cost_state,
            val_state,
            node_rating: float,
            path_cost: float,
        ) -> Iterator[Tuple[Optional[Package], int, Optional[float], object]]:
            nonlocal examined, pruned, conflicts
            size = len(path) + 1
            has_children = size < limit
            slots = limit - len(path)
            for index in range(start, count):
                if ordered and prunes(index, node_rating, mask, path_cost, slots):
                    # The bound is non-increasing in ``index``, so nothing
                    # later in this loop can qualify either.
                    pruned += 1
                    break
                examined += 1
                if deadline is not None and not examined & (_DEADLINE_STRIDE - 1):
                    deadline.steps += _DEADLINE_STRIDE
                    deadline.check()
                if cost_column is not None:
                    next_cost = cost_state + cost_column[index]
                    cost_value = cost_sign * float(next_cost)
                elif cost_extend is not None:
                    next_cost = cost_extend(cost_state, items[index])
                    cost_value = cost_finish(next_cost, size)
                else:
                    next_cost = cost_value = None
                if early_cost and cost_value > budget:
                    pruned += 1
                    continue
                node = path + (index,)
                node_mask = mask | 1 << index
                package = build(node) if eager else None
                if late_cost:
                    cost_value = cost_fn(package)
                    if cost_value > budget:
                        pruned += 1
                        continue
                compatible: Optional[bool] = None
                if antimonotone and has_children:
                    compatible, package = verdict(node, node_mask, package)
                    if not compatible:
                        pruned += 1
                        continue
                if val_column is not None:
                    next_val = val_state + val_column[index]
                    rating = val_sign * float(next_val)
                elif val_extend is not None:
                    next_val = val_extend(val_state, items[index])
                    rating = val_finish(next_val, size)
                else:
                    next_val = None
                    rating = val_fn(package) if bound is not None else None
                if not (excluded_masks and node_mask in excluded_masks):
                    if cost_value is None:
                        cost_value = cost_fn(package)
                    if cost_value <= budget:
                        if rated and rating is None:
                            rating = val_fn(package)
                        token = accept(rating, node) if accept is not None else True
                        if token and compatible is None:
                            compatible, package = verdict(node, node_mask, package)
                        if token and compatible:
                            if packages and package is None:
                                package = build(node)
                            yield package, size, rating, token
                            # Resumed: the consumer may have committed.
                            if live and conflicts is not None and not tally.current():
                                conflicts = None
                if has_children:
                    child_cost = path_cost + deltas[index] if deltas is not None else 0.0
                    if prunes is not None and prunes(
                        index + 1, rating, node_mask, child_cost, limit - size
                    ):
                        pruned += 1
                        continue
                    yield from dfs(
                        index + 1, node, node_mask, next_cost, next_val, rating, child_cost
                    )

        # Per-item gains are admissible only between non-empty packages (the
        # rating may jump arbitrarily — even from -∞ — between ∅ and the
        # first item), so the root level never prunes through them: seeding
        # the root "rating" with +∞ disables the ordered break for the
        # top-level loop, and every deeper bound starts from a real node's
        # rating.  The generic monotone bound evaluates val(∅ ∪ remaining)
        # directly and needs no such guard.
        tally = oracle.walk_started(self.pool)
        conflicts, larger, probe = tally.conflicts, tally.larger, tally.probe
        live = tally.database is not None  # a snapshot's masks never go stale
        finished = False
        try:
            yield from dfs(0, (), 0, cost_initial, val_initial, math.inf, 0.0)
            finished = True
        finally:
            tally.witness_verdicts += served
            oracle.walk_finished(tally)
            active = _metrics._ACTIVE
            if active is not None:
                active.inc_many(
                    (("engine.nodes.examined", examined), ("engine.nodes.pruned", pruned))
                )
            if examined_out is not None:
                examined_out.append(examined)
            if deadline is not None:
                # Charge the nodes past the last full stride; only a walk
                # that ran to its end re-checks (one ending on an exception,
                # or closed early, only charges).
                deadline.steps += examined & (_DEADLINE_STRIDE - 1)
                if finished:
                    deadline.check()

    # -- enumeration -----------------------------------------------------------
    def iter_valid(
        self,
        rating_bound: Optional[float] = None,
        strict: bool = False,
        exclude: Iterable[Package] = (),
    ) -> Iterator[Package]:
        """All valid packages, optionally rated ≥ (or >) ``rating_bound``.

        Packages are yielded in DFS order over the typed-sorted items; every
        yielded package has passed the full validity check, so the pruning
        hints can only affect running time, never soundness.
        """
        walk = self._walk(
            rated=rating_bound is not None,
            accept=_rating_test(rating_bound, strict),
            excluded=frozenset(exclude),
        )
        with closing(walk):
            for package, _, _, _ in walk:
                yield package

    def first_valid(
        self,
        rating_bound: Optional[float] = None,
        strict: bool = False,
        exclude: Iterable[Package] = (),
    ) -> Optional[Package]:
        """The first valid package the DFS reaches, or ``None``."""
        for package in self.iter_valid(rating_bound=rating_bound, strict=strict, exclude=exclude):
            return package
        return None

    # -- counting (non-materializing) ------------------------------------------
    def count_valid(
        self,
        rating_bound: Optional[float] = None,
        strict: bool = False,
        stop_at: Optional[int] = None,
        by_size: bool = False,
        collect_ratings: Optional[List[float]] = None,
    ):
        """``|{N valid : val(N) ≥ B}|`` without retaining the packages.

        The count tallies the nodes the lattice walk admits and builds no
        package for them.  ``stop_at``
        short-circuits the scan once that many valid packages are seen (the
        MBP witnesses check needs only "are there k?"); ``by_size`` also
        returns the per-size histogram CPP reports; ``collect_ratings``
        (a caller-supplied list) additionally receives every counted
        package's rating — the MBP maximum-bound scan needs the ratings but
        still no packages.
        """
        histogram: Dict[int, int] = {}
        count = 0
        if stop_at is None or stop_at > 0:
            walk = self._walk(
                rated=rating_bound is not None or collect_ratings is not None,
                accept=_rating_test(rating_bound, strict),
                packages=False,
            )
            with closing(walk):
                for _, size, rating, _ in walk:
                    count += 1
                    if by_size:
                        histogram[size] = histogram.get(size, 0) + 1
                    if collect_ratings is not None:
                        collect_ratings.append(rating)
                    if count == stop_at:
                        break
        return (count, histogram) if by_size else count

    def valid_ratings(self) -> List[float]:
        """Ratings of every valid package, without retaining the packages."""
        ratings: List[float] = []
        self.count_valid(collect_ratings=ratings)
        return ratings

    # -- branch-and-bound top-k -------------------------------------------------
    def best_valid(
        self,
        how_many: int,
    ) -> Tuple[List[Tuple[float, Package]], int, int]:
        """The ``how_many`` best (rating, package) pairs, plus search counters.

        Ties are broken by :meth:`Package.sort_key` — exactly the order the
        exhaustive sort uses — so the result is bit-identical whether or not
        branch-and-bound pruning fires.  Returns ``(scored, examined, total)``
        where ``total`` is the number of valid packages that entered the
        selection.  A node that cannot enter it is never probed, so this
        undercounts the valid packages only once the selection is already
        full: ``total >= how_many`` iff a full selection exists.

        The branch-and-bound mode engages when the problem declares
        ``monotone_val``: the best rating reachable in a subtree is bounded by
        the node's rating plus the positive per-item gains of the items still
        ahead (exact for additive ratings via
        :meth:`~repro.core.functions.PackageRating.item_gain`) or, lacking
        gains, by the rating of the node united with every remaining item —
        admissible because ``val`` is declared monotone.  Subtrees whose bound
        falls strictly below the current k-th best rating cannot contribute:
        a tying package could still lose on the tie key only to a package
        *already* in the selection, so strict comparison preserves exact
        tie-breaking.
        """
        items, limit = self.items, self.limit
        scored: List[Tuple[Tuple[float, Tuple], Package, float]] = []
        if limit <= 0 or how_many <= 0:
            return [], 0, 0
        schema, budget = self.schema, self.budget
        count = len(items)
        use_bound = self.problem.monotone_val
        gains = self.problem.val.item_gain(self.schema) if use_bound else None
        cost_delta = self.problem.cost.item_delta(self.schema) if gains is not None else None
        deltas: Optional[Tuple[float, ...]] = None
        min_delta: Optional[List[float]] = None
        suffix_top: Optional[List[List[float]]] = None
        if gains is not None:
            # suffix_top[i][m] = sum of the m largest positive gains among
            # items[i:] — an admissible bound on the extra rating any
            # ≤ m-item subset of them can add.  One backward pass maintains
            # the descending gain list by insertion (each gain evaluated
            # once), re-deriving the prefix sums per index.  The bound only
            # ever asks for m ≤ limit more items (the size bound caps every
            # extension), so both the maintained list and the stored prefix
            # sums are truncated there, keeping setup O(n·limit) instead of
            # O(n²).
            suffix_top = [[0.0]] * (count + 1)
            descending: List[float] = []
            for i in range(count - 1, -1, -1):
                gain = max(0.0, gains(items[i]))
                insort(descending, -gain)  # negated: insort keeps ascending order
                del descending[limit:]  # only the top ``limit`` gains can ever be used
                sums = [0.0]
                for negated in descending:
                    sums.append(sums[-1] - negated)
                suffix_top[i] = sums
            if cost_delta is not None and math.isfinite(budget):
                # An unbounded budget affords any number of items; the cap
                # would divide infinities (inf // inf is nan).
                deltas = tuple(cost_delta(item) for item in items)
                # min_delta[i] = the cheapest item still ahead; with an exact
                # additive cost the remaining budget can afford at most
                # ⌊remaining / min_delta⌋ more items, capping m further.
                min_delta = [0.0] * (count + 1)
                running = float("inf")
                min_delta[count] = running
                for i in range(count - 1, -1, -1):
                    delta = deltas[i]
                    running = delta if delta < running else running
                    min_delta[i] = running
                if any(d <= 0 for d in min_delta[:count]):
                    # A non-positive item cost defeats the affordability cap.
                    deltas, min_delta = None, None

        val_fn = self.problem.val
        # ``scored`` stays sorted by (-rating, tie key); entries carry the
        # rating separately so the pruning threshold needs no negation.
        worst_rating: Optional[float] = None
        threshold = 0.0

        def prunes(
            index: int,
            node_rating: float,
            node_mask: int,
            path_cost: float,
            slots: int,
        ) -> bool:
            """Whether the best rating any package extending the node with
            items[index:] can reach falls strictly below the k-th best."""
            if worst_rating is None:
                return False
            if suffix_top is not None:
                available = count - index
                if available <= 0:
                    return node_rating < threshold
                m = slots if slots < available else available
                if min_delta is not None:
                    affordable = int((budget - path_cost) // min_delta[index])
                    if affordable < m:
                        m = affordable
                if m <= 0:
                    return node_rating < threshold
                return node_rating + suffix_top[index][m] < threshold
            # Generic monotone bound: val(node ∪ all remaining items).
            if index >= count:
                return node_rating < threshold
            rows = frozenset(
                items[i] for i in range(count) if i >= index or node_mask >> i & 1
            )
            return val_fn(Package.trusted(schema, rows)) < threshold

        # The selection's tie key, per candidate: a node's is the tuple of
        # its candidates' keys, which is its package's sort_key().
        keys = self.keys

        def entry_key(rating: float, node: Tuple[int, ...]) -> Optional[Tuple[float, Tuple]]:
            """The node's selection sort key, or ``None`` if it cannot enter."""
            if len(scored) >= how_many:
                if rating < worst_rating:
                    return None  # strictly worse: the tie key can never matter
                key = (-rating, tuple([keys[i] for i in node]))
                return key if key < scored[-1][0] else None
            return (-rating, tuple([keys[i] for i in node]))

        total_seen = 0
        examined: List[int] = []
        walk = self._walk(
            rated=True,
            accept=entry_key,
            bound=_Bound(prunes, suffix_top is not None, deltas) if use_bound else None,
            examined_out=examined,
        )
        for package, _, rating, key in walk:
            total_seen += 1
            insort(scored, (key, package, rating))
            if len(scored) > how_many:
                scored.pop()
            if len(scored) >= how_many:
                worst_rating = scored[-1][2]
                threshold = _prune_threshold(worst_rating)
        return [(rating, package) for _, package, rating in scored], examined[0], total_seen


# ---------------------------------------------------------------------------
# Module-level entry points (stable API; every solver goes through these or
# through an engine of its own)
# ---------------------------------------------------------------------------
def enumerate_candidate_packages(
    problem: RecommendationProblem,
    candidate_items: Optional[Relation] = None,
    include_empty: bool = False,
) -> Iterator[Package]:
    """All subsets of ``Q(D)`` whose size respects the bound, smallest first.

    This enumeration applies no pruning; it is used by tests and by callers
    that need the raw candidate space.  It charges the ambient
    :class:`~repro.resilience.deadline.Deadline` one step per package, so a
    step budget or request deadline bounds it like every lattice traversal.
    """
    deadline = checked_deadline()
    items = problem.candidate_pool(candidate_items).items
    schema = problem.query.output_schema()
    limit = min(problem.max_package_size(), len(items))
    if include_empty:
        if deadline is not None:
            deadline.tick()
        yield Package.empty(schema)
    for size in range(1, limit + 1):
        for subset in combinations(items, size):
            if deadline is not None:
                deadline.tick()
            yield Package.trusted(schema, frozenset(subset), subset)
    if deadline is not None:
        deadline.check()


def enumerate_valid_packages(
    problem: RecommendationProblem,
    rating_bound: Optional[float] = None,
    strict: bool = False,
    exclude: Iterable[Package] = (),
    candidate_items: Optional[Relation] = None,
) -> Iterator[Package]:
    """All valid packages, optionally rated ≥ (or >) ``rating_bound`` and not excluded."""
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    return engine.iter_valid(rating_bound=rating_bound, strict=strict, exclude=exclude)


def best_valid_packages(
    problem: RecommendationProblem,
    how_many: int,
    candidate_items: Optional[Relation] = None,
) -> Tuple[Package, ...]:
    """The ``how_many`` highest-rated valid packages (ties broken deterministically)."""
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    scored, _, _ = engine.best_valid(how_many)
    return tuple(package for _, package in scored)


def exists_valid_package(
    problem: RecommendationProblem,
    rating_bound: Optional[float] = None,
    strict: bool = False,
    exclude: Iterable[Package] = (),
    candidate_items: Optional[Relation] = None,
) -> Optional[Package]:
    """A witness valid package meeting the rating condition, or ``None``.

    This is the deterministic realisation of the paper's EXISTPACK≥ oracle;
    because the implementation is a search rather than a nondeterministic
    guess, it can return the witness itself, which the FRP solver exploits.
    """
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    return engine.first_valid(rating_bound=rating_bound, strict=strict, exclude=exclude)


def find_k_witnesses(
    problem: RecommendationProblem,
    rating_bound: float,
    candidate_items: Optional[Relation] = None,
) -> Optional[Selection]:
    """``k`` distinct valid packages rated ≥ ``rating_bound``, or ``None``.

    The witness check shared by the QRPP and ARPP searches (each candidate
    relaxation/adjustment asks exactly this question).  ``candidate_items``
    may be passed to reuse an already-known — e.g. incrementally maintained —
    ``Q(D)`` instead of re-evaluating the selection query.
    """
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    packages: List[Package] = []
    for package in engine.iter_valid(rating_bound=rating_bound):
        packages.append(package)
        if len(packages) >= problem.k:
            return Selection(packages)
    return None


# ---------------------------------------------------------------------------
# The pre-engine reference search (the historical implementation, retained —
# like ``enumerate_bindings_naive`` — as the semantic baseline the
# differential suite and the enumeration benchmark compare against)
# ---------------------------------------------------------------------------
def _prunable_reference(problem: RecommendationProblem, package: Package) -> bool:
    """The historical per-node pruning check (recomputes cost from scratch)."""
    if problem.monotone_cost and problem.cost(package) > problem.budget:
        return True
    if problem.antimonotone_compatibility and not problem.compatibility_oracle().is_satisfied(
        package
    ):
        return True
    return False


def enumerate_valid_packages_reference(
    problem: RecommendationProblem,
    rating_bound: Optional[float] = None,
    strict: bool = False,
    exclude: Iterable[Package] = (),
    candidate_items: Optional[Relation] = None,
) -> Iterator[Package]:
    """The historical recursive enumerator, pre-engine node-by-node semantics.

    Every node pays a validating :class:`Package` construction, a from-scratch
    ``cost``/``val`` evaluation, a second compatibility probe inside
    ``is_valid_package`` and the ``N ⊆ Q(D)`` membership scan.  Items follow
    the same typed :func:`~repro.relational.ordering.row_sort_key` order as
    the engine, so the differential suite compares the two traversals
    node-for-node without repr-collision ambiguity.  Without
    ``candidate_items`` it evaluates ``Q(D)`` afresh rather than reading the
    problem's candidate pool, so the spec never shares the engine's pool.
    Like the engine's walk, it charges the ambient deadline one step per
    examined node.
    """
    deadline = checked_deadline()
    answers = (
        candidate_items
        if candidate_items is not None
        else problem.query.evaluate(problem.database)
    )
    items: Tuple[Row, ...] = tuple(sorted(answers.rows(), key=row_sort_key))
    schema = problem.query.output_schema()
    limit = min(problem.max_package_size(), len(items))
    excluded: FrozenSet[Package] = frozenset(exclude)

    def dfs(start: int, current: Tuple[Row, ...]) -> Iterator[Package]:
        for index in range(start, len(items)):
            extended = current + (items[index],)
            if deadline is not None:
                deadline.tick()
            package = Package(schema, extended)
            if _prunable_reference(problem, package):
                continue
            if package not in excluded and problem.is_valid_package(
                package, rating_bound=rating_bound, candidate_items=answers, strict=strict
            ):
                yield package
            if len(extended) < limit:
                yield from dfs(index + 1, extended)

    yield from dfs(0, ())
    if deadline is not None:
        deadline.check()


def best_valid_packages_reference(
    problem: RecommendationProblem,
    how_many: int,
    candidate_items: Optional[Relation] = None,
) -> Tuple[Package, ...]:
    """Exhaustive top-k over the reference enumerator (pre-engine semantics).

    Uses the same ``(-rating, package.sort_key())`` order as the engine's
    branch-and-bound mode, so the two must agree package-for-package — ties
    included — on every problem; the differential suite asserts exactly that.
    Like the reference enumerator, it evaluates ``Q(D)`` afresh.
    """
    scored = [
        (problem.val(package), package)
        for package in enumerate_valid_packages_reference(
            problem, candidate_items=candidate_items
        )
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].sort_key()))
    return tuple(package for _, package in scored[:how_many])
