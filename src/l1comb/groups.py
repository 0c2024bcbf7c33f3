"""Finitely presented group machinery: presentations, normal forms, Cayley balls.

Words are plain strings over single-letter lowercase generators; the uppercase
letter is the inverse of its generator and the empty string is the identity
(rendered as ``e`` in files and reports).  Three word-problem regimes are
supported.  All three run on one single-pass stack rewriter, ``_rewrite``,
which cancels inverse pairs first and otherwise replaces left sides of a
per-presentation table; the modes differ only in that table:

* ``free`` -- free groups: an empty table, free cancellation only;
* ``dehn`` -- C'(1/6) small-cancellation presentations: every subword longer
  than half of a cyclic conjugate of a relator or its inverse maps to the
  inverse of the rest, which is Dehn's algorithm in one pass (Domanski and
  Anshel, 1985).  The piece condition is machine-checked at parse time,
  otherwise the mode is refused;
* ``rewriting`` -- a user-supplied shortlex-decreasing rewriting system,
  checked for local confluence on all critical pairs at parse time.

The order in which the rewriter applies replacements changes no result.  A
terminating, confluent system has one normal form per word, which every order
reaches; and the confluence check's verdict is order-free too, because a
critical pair is joinable exactly when its normal forms agree.  In dehn mode
each step shortens the word and keeps its element, and by Greendlinger's lemma
a freely reduced word with no table left side is trivial only when it is
empty, so the triviality oracle is exact under any order.

The Cayley ball (:class:`CayleyBall`) is the one naming authority: a word
becomes a named element, a canonical geodesic or a distance only through a
ball, whose edges are one multiplication table of element indices.  In
``free`` and ``rewriting`` modes the reduced word itself is canonical; in
``dehn`` mode a Dehn-reduced word is not canonical (``dcDC`` and ``abAB``
are one element), so canonical shortlex-least geodesic words are assigned
during ball enumeration, element identity is decided by the Dehn-algorithm
triviality oracle (:meth:`GroupPresentation.is_identity`), and an element
outside the ball has no name.
"""

from __future__ import annotations

import functools
import itertools
from array import array

DEFAULT_BALL_CAP = 200_000

MODES = ("free", "dehn", "rewriting")


class PresentationError(ValueError):
    """Invalid presentation text or unsatisfied mode requirements."""


class BallCapError(RuntimeError):
    """Ball enumeration exceeded the configured element cap."""


class OutOfBallError(LookupError):
    """An element fell outside the precomputed ball."""


def invert(word: str) -> str:
    """Inverse word: reverse the letters and swap case."""
    return word[::-1].swapcase()


def _rewrite(word: str, table: dict[str, str], lens: tuple[int, ...]) -> str:
    """The one word-problem engine: one left-to-right pass that cancels
    inverse pairs and replaces each left side of ``table`` by its right side
    (``lens``: the left-side lengths, longest first).  Letters move onto
    ``out``, which stays freely reduced and free of left sides, so a left side
    can only end at the letter just added; it is popped and its right side is
    read next.  Each step shortens the word or makes it shortlex smaller."""
    out = ""
    i, n = 0, len(word)
    while i < n:
        ch = word[i]
        i += 1
        if out and out[-1] == ch.swapcase():
            out = out[:-1]
            continue
        out += ch
        m = len(out)
        for L in lens:
            if L <= m:
                rhs = table.get(out[-L:])
                if rhs is not None:
                    out = out[:-L]
                    word = rhs + word[i:]
                    i, n = 0, len(word)
                    break
    return out


def free_reduce(word: str) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    return _rewrite(word, {}, ())


def _lcp_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def _cyclic_conjugates(relators: tuple[str, ...]):
    """Yield (conjugate, source relator) for every cyclic conjugate of each
    relator and of its inverse, one per position: a proper power yields
    identical strings at distinct positions."""
    for rel in relators:
        for w in (rel, invert(rel)):
            for k in range(len(w)):
                yield w[k:] + w[:k], rel


def _check_small_cancellation(relators: tuple[str, ...]) -> None:
    """Verify the C'(1/6) metric piece condition on the symmetrized relator set.

    Pieces are common prefixes of distinct positions in the list of all cyclic
    conjugates of relators and their inverses; identical strings at different
    positions count (this rejects proper-power relators).
    """
    for rel in relators:
        if not rel:
            raise PresentationError("empty relator is not allowed in dehn mode")
        if free_reduce(rel) != rel or rel[0] == rel[-1].swapcase():
            raise PresentationError(
                f"relator {rel!r} is not cyclically reduced (dehn mode requires it)"
            )
    conjugates = list(_cyclic_conjugates(relators))
    for i, (w1, src1) in enumerate(conjugates):
        for j, (w2, _src2) in enumerate(conjugates):
            if i == j:
                continue
            p = _lcp_len(w1, w2)
            if 6 * p >= len(w1):
                raise PresentationError(
                    f"C'(1/6) violation: piece {w1[:p]!r} of length {p} occurs in "
                    f"relator {src1!r} of length {len(w1)}"
                )


def _build_dehn_table(relators: tuple[str, ...]) -> dict[str, str]:
    """Map every relator subword longer than half its relator to the shorter
    replacement (the inverse of the complementary piece)."""
    table: dict[str, str] = {}
    for conj, _rel in _cyclic_conjugates(relators):
        for cut in range(len(conj) // 2 + 1, len(conj) + 1):
            head, tail = conj[:cut], conj[cut:]
            repl = invert(tail)
            prev = table.get(head)
            if prev is not None and prev != repl:
                # cannot happen once C'(1/6) holds: a shared long
                # subword would be an oversized piece
                raise PresentationError(
                    f"ambiguous Dehn replacement for subword {head!r}"
                )
            table[head] = repl
    return table


def _shortlex_key(word: str, rank: dict[str, int]) -> tuple:
    return (len(word), tuple(rank[ch] for ch in word))


def _check_rule_orientation(rules, rank):
    for lhs, rhs in rules:
        if _shortlex_key(rhs, rank) >= _shortlex_key(lhs, rank):
            raise PresentationError(
                f"rule {lhs!r} -> {rhs!r} does not decrease the shortlex order"
            )


def _check_local_confluence(rules: tuple[tuple[str, str], ...], nf) -> None:
    """Resolve every critical pair (overlap and containment) to a common
    normal form under ``nf``."""
    for (l1, r1), (l2, r2) in itertools.product(rules, repeat=2):
        # proper overlaps: a suffix of l1 equals a prefix of l2
        for k in range(1, min(len(l1), len(l2))):
            if l1.endswith(l2[:k]):
                one = r1 + l2[k:]
                two = l1[: len(l1) - k] + r2
                if nf(one) != nf(two):
                    raise PresentationError(
                        f"critical pair of {l1!r}->{r1!r} and {l2!r}->{r2!r} at "
                        f"overlap {l2[:k]!r} does not resolve: "
                        f"{nf(one)!r} != {nf(two)!r}"
                    )
        # containment: l2 occurs inside l1 (distinct rules, or distinct spot)
        start = 0
        while True:
            pos = l1.find(l2, start)
            if pos < 0:
                break
            start = pos + 1
            if (l1, r1) == (l2, r2) and pos == 0 and len(l1) == len(l2):
                continue
            one = r1
            two = l1[:pos] + r2 + l1[pos + len(l2):]
            if nf(one) != nf(two):
                raise PresentationError(
                    f"containment critical pair of {l1!r}->{r1!r} and "
                    f"{l2!r}->{r2!r} does not resolve: {nf(one)!r} != {nf(two)!r}"
                )


class GroupPresentation:
    """A validated presentation with mode-specific reduction machinery."""

    def __init__(self, generators: tuple[str, ...], relators: tuple[str, ...] = (),
                 reduction_mode: str = "free",
                 rewriting_rules: tuple[tuple[str, str], ...] = ()):
        self.generators = generators
        self.relators = relators
        self.reduction_mode = reduction_mode
        self.rewriting_rules = rewriting_rules
        gens = self.generators
        if not gens:
            raise PresentationError("at least one generator is required")
        for g in gens:
            if len(g) != 1 or not g.isalpha() or not g.islower():
                raise PresentationError(f"generator {g!r} must be a single lowercase letter")
            if g == "e":
                raise PresentationError("generator 'e' is reserved for the identity")
        if len(set(gens)) != len(gens):
            dup = next(g for g in gens if gens.count(g) > 1)
            raise PresentationError(f"duplicate generator {dup!r}")
        alphabet = "".join(g + g.upper() for g in gens)
        self.alphabet = alphabet
        self._rank = {ch: i for i, ch in enumerate(alphabet)}

        if self.reduction_mode not in MODES:
            raise PresentationError(f"unknown mode {self.reduction_mode!r}")
        letters = set(alphabet)
        for rel in self.relators:
            for ch in rel:
                if ch not in letters:
                    raise PresentationError(f"unknown letter {ch!r} in relator {rel!r}")

        if self.rewriting_rules and self.reduction_mode != "rewriting":
            raise PresentationError(
                f"{self.reduction_mode} mode admits no rules (only rewriting mode reads them)"
            )
        if self.reduction_mode == "free":
            if self.relators:
                raise PresentationError("free mode admits no relators")
            self._table = {}
        elif self.reduction_mode == "dehn":
            _check_small_cancellation(self.relators)
            self._table = _build_dehn_table(self.relators)
        else:
            for lhs, rhs in self.rewriting_rules:
                for ch in lhs + rhs:
                    if ch not in letters:
                        raise PresentationError(
                            f"unknown letter {ch!r} in rule {lhs!r} -> {rhs!r}"
                        )
                if not lhs:
                    raise PresentationError("rewriting rule with empty left side")
            # group structure always includes free cancellation; the engine
            # applies it first, so the confluence check covers it as rules
            cancel = [(p, "") for g in gens for p in (g + g.upper(), g.upper() + g)]
            rules = tuple(dict.fromkeys([*self.rewriting_rules, *cancel]))
            _check_rule_orientation(rules, self._rank)
            self._table = dict(rules)
        self._lens = tuple(sorted({len(k) for k in self._table}, reverse=True))
        if self.reduction_mode == "rewriting":
            _check_local_confluence(rules, self.normal)
        for rel in self.relators:
            if self.normal(rel) != "":
                raise PresentationError(
                    f"relator {rel!r} does not rewrite to the identity"
                )

        self._abelian_zero = all(
            all(v == 0 for v in self.exponent_vector(r)) for r in self.relators
        )

    # -- word utilities ----------------------------------------------------

    def exponent_vector(self, word: str) -> tuple[int, ...]:
        counts = [0] * len(self.generators)
        for ch in word:
            # the alphabet interleaves each generator with its inverse
            counts[self._rank[ch] // 2] += 1 if ch.islower() else -1
        return tuple(counts)

    def normal(self, word: str) -> str:
        """Reduce ``word`` with the one engine and this presentation's table:
        the canonical shortlex-least word in free and rewriting modes, and in
        dehn mode a Dehn-reduced word that is empty exactly when the element
        is trivial.  Neither depends on the order of the replacements (see
        the module docstring: confluence, and Greendlinger's lemma)."""
        return _rewrite(word, self._table, self._lens)

    def is_identity(self, word: str) -> bool:
        return self.normal(word) == ""

    @property
    def has_geodesic_normal_forms(self) -> bool:
        # shortlex-decreasing confluent systems produce shortlex-least
        # representatives, which are geodesic; free reduction likewise
        return self.reduction_mode in ("free", "rewriting")


# -- presentation files ----------------------------------------------------

_SECTIONS = ("generators:", "relators:", "mode:", "rules:")


def content_lines(text: str):
    """The stripped lines of a line-oriented input file, ``#`` comments cut
    and blank lines skipped: the one line reader of every parser."""
    for raw in text.splitlines():
        if line := raw.split("#", 1)[0].strip():
            yield line


def parse_presentation(text: str) -> GroupPresentation:
    """Parse the line-oriented presentation format.

    Sections ``generators:``, ``relators:``, ``mode:`` and optional ``rules:``
    (one ``lhs -> rhs`` per line); ``#`` starts a comment; ``(none)`` stands
    for an empty relator list.
    """
    section = None
    gens: list[str] = []
    relators: list[str] = []
    mode: str | None = None
    rules: list[tuple[str, str]] = []
    for line in content_lines(text):
        head = line.split()[0]
        if head in _SECTIONS:
            section = head[:-1]
            line = line[len(head):].strip()
            if not line:
                continue
        if section is None:
            raise PresentationError(f"content before any section header: {line!r}")
        if section == "generators":
            gens.extend(line.split())
        elif section == "relators":
            for tok in line.split():
                if tok != "(none)":
                    relators.append(tok)
        elif section == "mode":
            if mode is not None:
                raise PresentationError("mode specified twice")
            mode = line.strip()
        else:  # rules
            if "->" not in line:
                raise PresentationError(f"rule line {line!r} lacks '->'")
            lhs, _, rhs = line.partition("->")
            rules.append((lhs.strip(), rhs.strip()))
    if mode is None:
        raise PresentationError("missing mode: section")
    return GroupPresentation(
        generators=tuple(gens),
        relators=tuple(relators),
        reduction_mode=mode,
        rewriting_rules=tuple(rules),
    )


# -- Cayley balls ----------------------------------------------------------

class CayleyBall:
    """Ball of a Cayley graph, enumerated breadth-first.

    ``elements`` are canonical normal-form words sorted by (length,
    generator-order lexicographic); element 0 is the identity.  Canonical
    words are geodesic, so an element's distance from e is its word length,
    ``len(elements[i])``, and is stored nowhere else.  ``adjacency`` is the
    multiplication table, one int32 array of n x 2k entries:
    ``adjacency[i * 2k + r]`` is the index of ``elements[i]`` times alphabet
    letter r (``r ^ 1`` is its inverse), or -1 when the product leaves the
    ball.  The ball is the one naming authority for its
    presentation: a word becomes a named element, or a distance, only here,
    and :meth:`_resolve` is its one element lookup.  :meth:`canonical_index`
    finds a word's element in the ball, and :meth:`name` its canonical
    geodesic word, which in dehn mode exists only inside the ball.
    :meth:`walk` reads products off the table, and :meth:`name_step` names
    a product through it while it stays in the ball.
    Where normal forms are canonical (free and rewriting modes) the lookup
    is the normal form alone; in dehn mode the triviality oracle scans the
    normal form's bucket (its exponent vector when every relator has
    exponent sum zero, else one shared bucket).
    """

    def __init__(self, presentation: GroupPresentation, radius: int):
        self.presentation = presentation
        self.radius = radius
        self.elements: list[str] = [""]  # the empty word names the identity
        self.index: dict[str, int] = {"": 0}
        self.adjacency = array("i", [-1] * len(presentation.alphabet))
        # oracle-scan candidates (dehn mode): ball elements by bucket key
        self._buckets: dict[tuple, list[str]] = {}

    # construction helpers -------------------------------------------------

    def _bucket_key(self, word: str) -> tuple:
        if self.presentation._abelian_zero:
            return self.presentation.exponent_vector(word)
        return ()

    def _add_element(self, word: str) -> int:
        idx = len(self.elements)
        self.elements.append(word)
        self.index[word] = idx
        self.adjacency.extend([-1] * len(self.presentation.alphabet))
        if not self.presentation.has_geodesic_normal_forms:
            self._buckets.setdefault(self._bucket_key(word), []).append(word)
        return idx

    # lookups ---------------------------------------------------------------

    def _resolve(self, word: str) -> str:
        """Known word for the element ``word`` represents: its normal form
        when that is a ball element or normal forms are canonical, else the
        ball element that the triviality oracle equates with it.  An
        unmatched normal form is returned; it is never a key of ``index``."""
        pres = self.presentation
        w = pres.normal(word)
        if pres.has_geodesic_normal_forms or w in self.index:
            return w
        for known in self._buckets.get(self._bucket_key(w), ()):
            if pres.is_identity(invert(known) + w):
                return known
        return w

    def canonical_index(self, word: str) -> int | None:
        """Index of the element represented by ``word``, or None if outside;
        a ball element's word is read off ``index`` with no word problem."""
        return self.index[word] if word in self.index else self.index.get(self._resolve(word))

    def name(self, word: str) -> str:
        """Canonical word of the element ``word`` represents: a ball
        element's word as it is, else :meth:`_resolve`'s word: the normal form
        where normal forms are canonical, else (dehn mode) the ball element
        the triviality oracle matches; raises :class:`OutOfBallError` for a
        dehn-mode element outside the ball."""
        if word in self.index:
            return word
        out = self._resolve(word)
        if out not in self.index and not self.presentation.has_geodesic_normal_forms:
            raise OutOfBallError(
                f"{word!r} has no canonical form inside the radius-{self.radius} ball"
            )
        return out

    def walk(self, i: int, letters: str) -> int:
        """Index of ``elements[i]`` times ``letters``, walked letter by letter
        on the multiplication table with no word-problem call; -1 once a
        product leaves the ball."""
        adj, rank = self.adjacency, self.presentation._rank
        degree = len(rank)
        for ch in letters:
            i = adj[i * degree + rank[ch]]
            if i < 0:
                break
        return i

    def name_step(self, word: str, letters: str) -> str:
        """``name(word + letters)``, read off the multiplication table when
        ``word`` is a ball element and every step stays in the ball: the one
        naming of in-ball products (chain steps, x^-1 y, s^-1, translates s x);
        checks of the table against the word problem call :meth:`name`."""
        i = self.index.get(word)
        if i is not None and (j := self.walk(i, letters)) >= 0:
            return self.elements[j]
        return self.name(word + letters)

    # structure -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def sphere_offsets(self) -> list[int]:
        """``sphere_offsets[r]``: the number of elements at distance < r, for
        r = 0..radius + 1; computed once, after enumeration."""
        offsets = [0] * (self.radius + 2)
        for w in self.elements:
            offsets[len(w) + 1] += 1
        return list(itertools.accumulate(offsets))

    def sphere_sizes(self) -> list[int]:
        off = self.sphere_offsets
        return [off[r + 1] - off[r] for r in range(self.radius + 1)]

    def size_within(self, r: int) -> int:
        """Number of elements at distance <= r (a prefix of ``elements``)."""
        if r >= self.radius:
            return len(self.elements)
        return self.sphere_offsets[max(r + 1, 0)]  # no element lies below 0

    def scan_size(self, radius: int | None, scan: str) -> int:
        """:meth:`size_within` of a scan's radius, the whole ball by default;
        ValueError below 0 and :class:`OutOfBallError` beyond the ball."""
        radius = self.radius if radius is None else radius
        if radius < 0:
            raise ValueError(f"{scan} radius must be >= 0")
        if radius > self.radius:
            raise OutOfBallError(f"{scan} radius {radius} exceeds the ball radius {self.radius}")
        return self.size_within(radius)


def ball(presentation: GroupPresentation, radius: int,
         cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """Breadth-first ball enumeration with normal-form deduplication.

    Layers are exact word-metric spheres; canonical words are shortlex-least
    geodesics (in dehn mode they are assigned here via the triviality oracle).
    One loop walks layers 0..radius and resolves each (element, letter) pair
    whose edge is not yet recorded: the edge is then recorded both ways, a
    product not yet in the ball becomes a new element below the radius, and
    is dropped at the radius.  Raises :class:`BallCapError` when the element
    count would exceed ``cap``.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    b = CayleyBall(presentation, radius)
    adj = b.adjacency  # grows in place as elements are added
    degree = len(presentation.alphabet)
    layer = [0]
    for n in range(radius + 1):
        next_layer: list[int] = []
        for i in layer:
            w = b.elements[i]
            for r, letter in enumerate(presentation.alphabet):
                if adj[i * degree + r] >= 0:
                    continue
                nf = b._resolve(w + letter)
                j = b.index.get(nf)
                if j is None:
                    if n == radius:
                        continue
                    # a candidate that reduces is a shorter element, which
                    # an earlier layer holds; missing it here is a bug
                    if len(nf) != n + 1:
                        raise AssertionError(
                            f"normal form {nf!r} of {w + letter!r} skipped a BFS layer"
                        )
                    if len(b.elements) >= cap:
                        raise BallCapError(
                            f"ball exceeded the {cap}-element cap at radius {n + 1}"
                        )
                    j = b._add_element(nf)
                    next_layer.append(j)
                adj[i * degree + r] = j
                adj[j * degree + (r ^ 1)] = i
        layer = next_layer
    return b
