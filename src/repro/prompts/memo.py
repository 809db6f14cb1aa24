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

from typing import Callable

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
