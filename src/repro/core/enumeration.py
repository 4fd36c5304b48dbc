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

* threads running cost and rating state along the DFS whenever the problem's
  functions expose an exact :class:`~repro.core.functions.IncrementalAggregate`
  (falling back to whole-package evaluation otherwise),
* builds packages through the trusted fast path
  (:meth:`~repro.core.packages.Package.trusted`) — items drawn from ``Q(D)``
  were already validated by the query evaluator,
* probes the compatibility oracle last and at most once per lattice node:
  a node's ``Qc`` verdict is requested only when it can change the outcome
  — for the anti-monotone pruning hint only if the node has children, for
  admission only once the node has passed the budget, the exclusion set,
  the rating bound and (top-k) the current selection's entry test — and
  one verdict serves both uses; the engine registers its ``Q(D)`` with the
  oracle, so for a CQ, UCQ or ∃FO⁺ ``Qc`` a verdict is a witness-set lookup
  rather than a query evaluation
  (:class:`~repro.core.compatibility.CompatibilityOracle`),
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

from repro.core.model import RecommendationProblem
from repro.core.packages import Package, Selection
from repro.observability import metrics as _metrics
from repro.relational.database import Relation, Row
from repro.relational.errors import BudgetExceededError
from repro.relational.ordering import row_sort_key
from repro.resilience.deadline import current_deadline

#: Check the request deadline once per this many lattice nodes.  A power of
#: two, so ``examined & (N - 1)`` is the gate; the overshoot past an expired
#: deadline is bounded by one stride.
_DEADLINE_STRIDE = 64


class _Bound(NamedTuple):
    """The branch-and-bound hook of :meth:`PackageSearchEngine._walk`."""

    #: ``prunes(index, node_rating, node_set, path_cost, slots)``: whether no
    #: package extending the node with up to ``slots`` of ``items[index:]``
    #: can still enter the top-k selection.
    prunes: Callable[[int, float, FrozenSet[Row], float, int], bool]
    #: Whether the bound is non-increasing in ``index``, so that a pruned
    #: sibling prunes every later sibling too.
    ordered: bool
    #: The exact additive per-item cost, threaded as each child's path cost
    #: (``None``: the bound does not use path costs).
    cost_delta: Optional[Callable[[Row], float]]


def _rating_test(rating_bound: Optional[float], strict: bool):
    """The walk's ``accept`` test for ``val(N) ≥ B`` (or ``>``); ``None`` if unbounded."""
    if rating_bound is None:
        return None
    if strict:
        return lambda rating, package: rating > rating_bound
    return lambda rating, package: rating >= rating_bound


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

    One engine is bound to one ``(problem, candidate items)`` pair; it
    pre-sorts the candidate items by typed sort key, compiles the problem's
    cost and rating functions into incremental evaluators when possible, and
    exposes the search entry points every solver uses.  Engines are cheap to
    construct (one sort plus a few closures) and are built per solver call,
    so they can never observe a stale ``Q(D)``.

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
        "answers",
        "schema",
        "items",
        "limit",
        "max_size",
        "oracle",
        "budget",
        "monotone_cost",
        "antimonotone",
        "_cost_inc",
        "_val_inc",
    )

    def __init__(
        self,
        problem: RecommendationProblem,
        candidate_items: Optional[Relation] = None,
    ) -> None:
        self.problem = problem
        answers = candidate_items if candidate_items is not None else problem.candidate_items()
        self.answers = answers
        self.schema = problem.query.output_schema()
        self.items: Tuple[Row, ...] = tuple(sorted(answers.rows(), key=row_sort_key))
        self.max_size = problem.max_package_size()
        self.limit = min(self.max_size, len(self.items))
        self.oracle = problem.compatibility_oracle()
        self.oracle.register_answers(answers)
        self.budget = problem.budget
        self.monotone_cost = problem.monotone_cost
        self.antimonotone = problem.antimonotone_compatibility
        self._cost_inc = problem.cost.incremental(self.schema)
        self._val_inc = problem.val.incremental(self.schema)

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
    @staticmethod
    def _threaded(inc, function):
        """(initial state, extend, value-at-node) for the cost or rating function."""
        if inc is not None:
            return inc.initial, inc.extend, lambda state, size, package: inc.finish(state, size)
        return None, None, lambda state, size, package: function(package)

    # -- the lattice traversal -------------------------------------------------
    def _walk(
        self,
        rated: bool = False,
        accept: Optional[Callable[[Optional[float], Package], object]] = None,
        excluded: FrozenSet[Package] = frozenset(),
        bound: Optional[_Bound] = None,
        max_candidates: Optional[int] = None,
        examined_out: Optional[List[int]] = None,
    ) -> Iterator[Tuple[Package, int, Optional[float], object]]:
        """The one depth-first traversal of the lattice every search mode rides.

        Yields each admitted node as ``(package, size, rating, token)`` in DFS
        order over the typed-sorted items.  A node is admitted when it is
        within the budget, not in ``excluded``, passes ``accept`` (called as
        ``accept(rating, package)``; its truthy result is the ``token``) and,
        last, satisfies ``Qc``.  ``rated`` threads the rating along the DFS
        and computes it for every node that reaches ``accept``; otherwise the
        yielded ``rating`` is ``None``.  ``bound`` is the branch-and-bound
        hook of :meth:`best_valid`; with it, every node that survives the
        pruning probes is rated, since its rating seeds its subtree's bound.

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
        schema, oracle, budget = self.schema, self.oracle, self.budget
        antimonotone = self.antimonotone
        cost_init, cost_extend, cost_at = self._threaded(self._cost_inc, self.problem.cost)
        val_init, val_extend, val_at = self._threaded(self._val_inc, self.problem.val)
        if not rated:  # the rating never gets consulted: skip threading it
            val_init, val_extend = None, None
        # A monotone cost prunes supersets of over-budget nodes; an
        # incremental one decides before the node is materialised.
        early_cost = self.monotone_cost and cost_extend is not None
        late_cost = self.monotone_cost and cost_extend is None
        prunes, ordered, cost_delta = bound if bound is not None else (None, False, None)
        examined = 0
        pruned = 0
        # Read at call time, never in __init__: the ExistPack oracle shares
        # one engine across requests, so a construction-time capture would
        # leak the first request's deadline into every later one.
        deadline = current_deadline()
        if deadline is not None:
            deadline.check()

        def dfs(
            start: int,
            prefix: Tuple[Row, ...],
            item_set: FrozenSet[Row],
            cost_state,
            val_state,
            node_rating: float,
            path_cost: float,
        ) -> Iterator[Tuple[Package, int, Optional[float], object]]:
            nonlocal examined, pruned
            slots = limit - len(prefix)
            for index in range(start, len(items)):
                if ordered and prunes(index, node_rating, item_set, path_cost, slots):
                    # The bound is non-increasing in ``index``, so nothing
                    # later in this loop can qualify either.
                    pruned += 1
                    break
                item = items[index]
                extended = prefix + (item,)
                examined += 1
                if max_candidates is not None and examined > max_candidates:
                    raise BudgetExceededError(
                        f"valid-package enumeration exceeded {max_candidates} candidates"
                    )
                if deadline is not None and not examined & (_DEADLINE_STRIDE - 1):
                    deadline.tick(_DEADLINE_STRIDE)
                size = len(extended)
                next_cost = cost_extend(cost_state, item) if cost_extend else None
                cost_value = None
                if early_cost:
                    cost_value = cost_at(next_cost, size, None)
                    if cost_value > budget:
                        pruned += 1
                        continue
                extended_set = item_set | {item}
                # The DFS extends in sorted-item order, so the node's item
                # tuple *is* its sorted_items — pre-seed the cache.
                package = Package.trusted(schema, extended_set, extended)
                if late_cost:
                    cost_value = cost_at(next_cost, size, package)
                    if cost_value > budget:
                        pruned += 1
                        continue
                has_children = size < limit
                compatible: Optional[bool] = None
                if antimonotone and has_children:
                    compatible = oracle.is_satisfied(package, tally)
                    if not compatible:
                        pruned += 1
                        continue
                next_val = val_extend(val_state, item) if val_extend else None
                rating = val_at(next_val, size, package) if bound is not None else None
                if not (excluded and package in excluded):
                    if cost_value is None:
                        cost_value = cost_at(next_cost, size, package)
                    if cost_value <= budget:
                        if rated and rating is None:
                            rating = val_at(next_val, size, package)
                        token = accept(rating, package) if accept is not None else True
                        if token and (compatible or oracle.is_satisfied(package, tally)):
                            yield package, size, rating, token
                if has_children:
                    child_cost = path_cost + cost_delta(item) if cost_delta is not None else 0.0
                    if prunes is not None and prunes(
                        index + 1, rating, extended_set, child_cost, limit - size
                    ):
                        pruned += 1
                        continue
                    yield from dfs(
                        index + 1, extended, extended_set, next_cost, next_val, rating, child_cost
                    )

        # Per-item gains are admissible only between non-empty packages (the
        # rating may jump arbitrarily — even from -∞ — between ∅ and the
        # first item), so the root level never prunes through them: seeding
        # the root "rating" with +∞ disables the ordered break for the
        # top-level loop, and every deeper bound starts from a real node's
        # rating.  The generic monotone bound evaluates val(∅ ∪ remaining)
        # directly and needs no such guard.
        tally = oracle.walk_started()
        finished = False
        try:
            yield from dfs(0, (), frozenset(), cost_init, val_init, math.inf, 0.0)
            finished = True
        finally:
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
        max_candidates: Optional[int] = None,
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
            max_candidates=max_candidates,
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
        max_candidates: Optional[int] = None,
        stop_at: Optional[int] = None,
        by_size: bool = False,
        collect_ratings: Optional[List[float]] = None,
    ):
        """``|{N valid : val(N) ≥ B}|`` without retaining the packages.

        The count tallies the nodes the lattice walk admits and keeps no
        package beyond the node being visited.  ``stop_at``
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
                max_candidates=max_candidates,
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
        max_candidates: Optional[int] = None,
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
        use_bound = self.problem.monotone_val
        gains = self.problem.val.item_gain(self.schema) if use_bound else None
        cost_delta = self.problem.cost.item_delta(self.schema) if gains is not None else None
        if gains is not None:
            # suffix_top[i][m] = sum of the m largest positive gains among
            # items[i:] — an admissible bound on the extra rating any
            # ≤ m-item subset of them can add.  One backward pass maintains
            # the descending gain list by insertion (each gain evaluated
            # once), re-deriving the prefix sums per index.  ``bound_from``
            # only ever asks for m ≤ limit more items (the size bound caps
            # every extension), so both the maintained list and the stored
            # prefix sums are truncated there, keeping setup O(n·limit)
            # instead of O(n²).
            count = len(items)
            suffix_top: List[List[float]] = [[0.0]] * (count + 1)
            descending: List[float] = []
            for i in range(count - 1, -1, -1):
                gain = max(0.0, gains(items[i]))
                insort(descending, -gain)  # negated: insort keeps ascending order
                del descending[limit:]  # only the top ``limit`` gains can ever be used
                sums = [0.0]
                for negated in descending:
                    sums.append(sums[-1] - negated)
                suffix_top[i] = sums
            if cost_delta is not None and not math.isfinite(budget):
                # An unbounded budget affords any number of items; the cap
                # would divide infinities (inf // inf is nan).
                cost_delta = None
            if cost_delta is not None:
                # min_delta[i] = the cheapest item still ahead; with an exact
                # additive cost the remaining budget can afford at most
                # ⌊remaining / min_delta⌋ more items, capping m further.
                min_delta: Optional[List[float]] = [0.0] * (count + 1)
                running = float("inf")
                min_delta[count] = running
                for i in range(count - 1, -1, -1):
                    delta = cost_delta(items[i])
                    running = delta if delta < running else running
                    min_delta[i] = running
                if any(d <= 0 for d in min_delta[:count]):
                    # A non-positive item cost defeats the affordability cap.
                    cost_delta, min_delta = None, None
            else:
                min_delta = None
            suffix_sets: Optional[List[FrozenSet[Row]]] = None
        elif use_bound:
            # Generic monotone bound: val(node ∪ all remaining items).
            suffix_top = None
            min_delta = None
            suffix_sets = [frozenset()] * (len(items) + 1)
            for i in range(len(items) - 1, -1, -1):
                suffix_sets[i] = suffix_sets[i + 1] | {items[i]}
        else:
            suffix_top = None
            min_delta = None
            suffix_sets = None

        val_fn = self.problem.val
        # ``scored`` stays sorted by (-rating, tie key); entries carry the
        # rating separately so the pruning threshold needs no negation.
        worst_rating: Optional[float] = None

        def bound_from(
            index: int,
            node_rating: float,
            node_set: FrozenSet[Row],
            path_cost: float,
            slots: int,
        ) -> float:
            """Best rating any package extending the node with items[index:] can reach."""
            if suffix_top is not None:
                available = len(items) - index
                if available <= 0:
                    return node_rating
                m = slots if slots < available else available
                if min_delta is not None:
                    affordable = int((budget - path_cost) // min_delta[index])
                    if affordable < m:
                        m = affordable
                if m <= 0:
                    return node_rating
                return node_rating + suffix_top[index][m]
            remaining = suffix_sets[index]
            if not remaining:
                return node_rating
            return val_fn(Package.trusted(schema, node_set | remaining))

        def prunes(
            index: int,
            node_rating: float,
            node_set: FrozenSet[Row],
            path_cost: float,
            slots: int,
        ) -> bool:
            """Whether the subtree's bound falls strictly below the k-th best."""
            return worst_rating is not None and bound_from(
                index, node_rating, node_set, path_cost, slots
            ) < _prune_threshold(worst_rating)

        def entry_key(rating: float, package: Package) -> Optional[Tuple[float, Tuple]]:
            """The node's selection sort key, or ``None`` if it cannot enter."""
            if len(scored) >= how_many:
                if rating < worst_rating:
                    return None  # strictly worse: the tie key can never matter
                key = (-rating, package.sort_key())
                return key if key < scored[-1][0] else None
            return (-rating, package.sort_key())

        total_seen = 0
        examined: List[int] = []
        walk = self._walk(
            rated=True,
            accept=entry_key,
            bound=_Bound(prunes, suffix_top is not None, cost_delta) if use_bound else None,
            max_candidates=max_candidates,
            examined_out=examined,
        )
        for package, _, rating, key in walk:
            total_seen += 1
            insort(scored, (key, package, rating))
            if len(scored) > how_many:
                scored.pop()
            if len(scored) >= how_many:
                worst_rating = scored[-1][2]
        return [(rating, package) for _, package, rating in scored], examined[0], total_seen


# ---------------------------------------------------------------------------
# Module-level entry points (stable API; every solver goes through these or
# through an engine of its own)
# ---------------------------------------------------------------------------
def enumerate_candidate_packages(
    problem: RecommendationProblem,
    candidate_items: Optional[Relation] = None,
    include_empty: bool = False,
    max_candidates: Optional[int] = None,
) -> Iterator[Package]:
    """All subsets of ``Q(D)`` whose size respects the bound, smallest first.

    This enumeration applies no pruning; it is used by tests and by callers
    that need the raw candidate space.  ``max_candidates`` is a resource guard
    for the benchmark harness; exceeding it raises
    :class:`~repro.relational.errors.BudgetExceededError` so a runaway
    configuration fails loudly instead of silently truncating results.
    """
    answers = candidate_items if candidate_items is not None else problem.candidate_items()
    items: Tuple[Row, ...] = tuple(sorted(answers.rows(), key=row_sort_key))
    schema = problem.query.output_schema()
    limit = min(problem.max_package_size(), len(items))
    produced = 0
    if include_empty:
        yield Package.empty(schema)
        produced += 1
    for size in range(1, limit + 1):
        for subset in combinations(items, size):
            produced += 1
            if max_candidates is not None and produced > max_candidates:
                raise BudgetExceededError(
                    f"candidate-package enumeration exceeded {max_candidates} packages"
                )
            yield Package.trusted(schema, frozenset(subset), subset)


def enumerate_valid_packages(
    problem: RecommendationProblem,
    rating_bound: Optional[float] = None,
    strict: bool = False,
    exclude: Iterable[Package] = (),
    candidate_items: Optional[Relation] = None,
    max_candidates: Optional[int] = None,
) -> Iterator[Package]:
    """All valid packages, optionally rated ≥ (or >) ``rating_bound`` and not excluded."""
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    return engine.iter_valid(
        rating_bound=rating_bound,
        strict=strict,
        exclude=exclude,
        max_candidates=max_candidates,
    )


def best_valid_packages(
    problem: RecommendationProblem,
    how_many: int,
    candidate_items: Optional[Relation] = None,
    max_candidates: Optional[int] = None,
) -> Tuple[Package, ...]:
    """The ``how_many`` highest-rated valid packages (ties broken deterministically)."""
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    scored, _, _ = engine.best_valid(how_many, max_candidates=max_candidates)
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
    max_candidates: Optional[int] = None,
) -> Iterator[Package]:
    """The historical recursive enumerator, pre-engine node-by-node semantics.

    Every node pays a validating :class:`Package` construction, a from-scratch
    ``cost``/``val`` evaluation, a second compatibility probe inside
    ``is_valid_package`` and the ``N ⊆ Q(D)`` membership scan.  Items follow
    the same typed :func:`~repro.relational.ordering.row_sort_key` order as
    the engine, so the differential suite compares the two traversals
    node-for-node without repr-collision ambiguity.
    """
    answers = candidate_items if candidate_items is not None else problem.candidate_items()
    items: Tuple[Row, ...] = tuple(sorted(answers.rows(), key=row_sort_key))
    schema = problem.query.output_schema()
    limit = min(problem.max_package_size(), len(items))
    excluded: FrozenSet[Package] = frozenset(exclude)
    examined = 0

    def dfs(start: int, current: Tuple[Row, ...]) -> Iterator[Package]:
        nonlocal examined
        for index in range(start, len(items)):
            extended = current + (items[index],)
            examined += 1
            if max_candidates is not None and examined > max_candidates:
                raise BudgetExceededError(
                    f"valid-package enumeration exceeded {max_candidates} candidates"
                )
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


def best_valid_packages_reference(
    problem: RecommendationProblem,
    how_many: int,
    candidate_items: Optional[Relation] = None,
    max_candidates: Optional[int] = None,
) -> Tuple[Package, ...]:
    """Exhaustive top-k over the reference enumerator (pre-engine semantics).

    Uses the same ``(-rating, package.sort_key())`` order as the engine's
    branch-and-bound mode, so the two must agree package-for-package — ties
    included — on every problem; the differential suite asserts exactly that.
    """
    answers = candidate_items if candidate_items is not None else problem.candidate_items()
    scored = [
        (problem.val(package), package)
        for package in enumerate_valid_packages_reference(
            problem, candidate_items=answers, max_candidates=max_candidates
        )
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1].sort_key()))
    return tuple(package for _, package in scored[:how_many])
