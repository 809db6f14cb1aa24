"""Prompt tokenization and the bounded tables and memos built on it.

Every value the serving stack derives from a prompt (embedding, feature
vector, PickScores, nearest cache match, predicted rank) is a pure function
of the prompt text, so components memoise it by the prompt's content hash;
the embedder and the featurizer likewise look each word up in a per-word
table instead of hashing it again.  Simulated workloads cycle a finite
prompt dataset, but the live gateway accepts free text, so every memo and
table shares one bound, :data:`MAX_ENTRIES`.
"""

from __future__ import annotations

from typing import Callable, Sequence

#: Entries one memo or word table keeps: repeated-prompt workloads fit
#: easily, while a stream of millions of unique prompts cannot grow it
#: without limit.
MAX_ENTRIES = 65_536


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace-separated words of ``text``, with surrounding
    commas and periods stripped; words that are nothing else are dropped."""
    return [word for token in text.lower().split() if (word := token.strip(",."))]


class PromptMemo(dict):
    """A dict of at most :data:`MAX_ENTRIES` memoised values.

    Read it like a dict; add entries with :meth:`remember`, which empties a
    full memo first.  Each entry then lives for at most MAX_ENTRIES newer
    ones, as under first-in-first-out eviction, at no cost per entry.
    """

    def remember(self, key, value):
        """Store ``value`` under ``key`` and return it."""
        if len(self) >= MAX_ENTRIES:
            self.clear()
        self[key] = value
        return value

    def fits(self, count: int) -> bool:
        """Whether ``count`` more entries can be remembered without the
        memo emptying."""
        return len(self) + count <= MAX_ENTRIES

    def remember_many(self, keys: list, derive_many: Callable[[list[int]], Sequence]) -> list:
        """The value of each of ``keys``, with every miss derived in one call.

        The memo is left as a loop of ``get`` and, on a miss,
        ``remember(key, derive(key))`` would leave it.  ``derive_many(missed)``
        gets the positions in ``keys`` that miss, in order (a key the memo
        lost to emptying misses again), and returns their values in that
        order.  A key of None is never memoised.
        """
        values = []
        missed = []
        for position, key in enumerate(keys):
            if key is None or key not in self:
                missed.append(position)
                if key is not None:
                    # Held by None until derived: a repeat of the key hits it.
                    self.remember(key, None)
            values.append(self.get(key))
        try:
            derived = derive_many(missed) if missed else ()
        except BaseException:
            for key in {keys[position] for position in missed} - {None}:
                if self.get(key, 0) is None:
                    del self[key]
            raise
        fresh = {}
        for position, value in zip(missed, derived):
            key = keys[position]
            values[position] = fresh[key] = value
            if key is not None and key in self:
                self[key] = value
        # The rest still at None hit a key held for a miss before them.
        return [fresh[key] if value is None else value for key, value in zip(keys, values)]


class WordTable(dict):
    """``word -> entry``, each entry computed once by ``derive(word)``.

    Look words up by subscript.  An unseen word is derived and kept while
    the table holds fewer than :data:`MAX_ENTRIES` words; past that, new
    words are derived on every lookup and not stored.
    """

    def __init__(self, derive: Callable[[str], object]) -> None:
        super().__init__()
        self.derive = derive

    def __missing__(self, word: str):
        entry = self.derive(word)
        if len(self) < MAX_ENTRIES:
            self[word] = entry
        return entry
