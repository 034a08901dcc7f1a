"""Frozen 512-token word-level vocabulary shared by every task generator.

Text forms are whitespace-separated token strings; encoding is an exact
table lookup, so datasets can ship as text and have ids recomputed
deterministically. The table layout below is versioned: changing any
list changes the vocabulary hash and invalidates stored artifacts.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import CompatibilityError, InputError
from .fileio import atomic_write_text, read_json

VOCAB_VERSION = 1
VOCAB_SIZE = 512

SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]
MARKS = [".", ",", ":", "|", "=", "?", "+", "-", "->"]
STRUCT = [
    "doc", "question", "answer", "compute", "translate", "dialog", "summary",
    "note", "candidate", "suitable", "facts", "yes", "no", "same", "which", "or",
    "copy",
]
NUMBER_LIMIT = 150
NUMBERS = [str(i) for i in range(NUMBER_LIMIT)]
KEYS = [f"k{i:02d}" for i in range(60)]
VALUES = [f"v{i:02d}" for i in range(48)]
NAMES = ["alice", "bob", "carol", "dave", "erin", "frank"]

VERBS = [
    "sees", "likes", "finds", "makes", "takes", "gives", "reads", "writes",
    "opens", "closes", "moves", "keeps", "sells", "buys", "shows", "sends",
]
NOUNS_GENERAL = [
    "cat", "dog", "book", "tree", "house", "car", "door", "river",
    "stone", "cloud", "bread", "glass", "chair", "table", "lamp", "road",
    "ship", "bird", "fish", "horse", "apple", "coin", "box", "garden",
]
NOUNS_NEWS = [
    "market", "price", "news", "paper", "team", "game", "city", "plan",
    "deal", "vote", "law", "rule",
]
NOUNS_BIO = [
    "cell", "gene", "dose", "virus", "protein", "tissue", "enzyme", "tumor",
    "serum", "neuron", "plasma", "antigen",
]
ADJECTIVES = [
    "red", "blue", "big", "small", "old", "new", "fast", "slow",
    "good", "bad", "hot", "cold", "dark", "light", "heavy", "soft",
]
ADVERBS = ["today", "often", "never", "soon", "here", "there", "now", "again"]

# every word that may appear in a cipher source sentence, in canonical order
CIPHERABLE = VERBS + NOUNS_GENERAL + NOUNS_NEWS + NOUNS_BIO + ADJECTIVES + ADVERBS
CIPHER_TOKENS = [f"c{i:02d}" for i in range(len(CIPHERABLE))]

_CIPHER_SEED = 71


def _build() -> list[str]:
    words = (SPECIALS + MARKS + STRUCT + NUMBERS + KEYS + VALUES + NAMES
             + CIPHERABLE + CIPHER_TOKENS)
    assert len(words) == len(set(words)), "vocabulary entries must be unique"
    assert len(words) <= VOCAB_SIZE
    words += [f"x{i:02d}" for i in range(VOCAB_SIZE - len(words))]
    return words


WORDS: list[str] = _build()
WORD_TO_ID: dict[str, int] = {w: i for i, w in enumerate(WORDS)}

EOS_ID = WORD_TO_ID["<eos>"]


def _build_cipher() -> dict[str, str]:
    perm = np.random.default_rng(_CIPHER_SEED).permutation(len(CIPHERABLE))
    return {w: CIPHER_TOKENS[perm[i]] for i, w in enumerate(CIPHERABLE)}


# fixed bijection word -> cipher token, shared by all splits
CIPHER_MAP: dict[str, str] = _build_cipher()


def encode(text: str) -> list[int]:
    """Whitespace-split text to token ids; unknown words are an error."""
    ids = []
    for w in text.split():
        if w not in WORD_TO_ID:
            raise InputError(f"word {w!r} is not in the frozen vocabulary")
        ids.append(WORD_TO_ID[w])
    return ids


def decode(ids) -> str:
    """Space-joined words of the ids; special tokens are left out."""
    words = []
    for i in ids:
        i = int(i)
        if i < 0 or i >= VOCAB_SIZE:
            raise InputError(f"token id {i} out of range [0, {VOCAB_SIZE})")
        if i < len(SPECIALS):
            continue
        words.append(WORDS[i])
    return " ".join(words)


def vocab_hash() -> str:
    payload = json.dumps({"version": VOCAB_VERSION, "words": WORDS},
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def write_vocab_file(path) -> None:
    atomic_write_text(path, json.dumps(
        {"version": VOCAB_VERSION, "hash": vocab_hash(), "words": WORDS},
        indent=0, separators=(",", ":")) + "\n")


def check_vocab_file(path) -> None:
    """Verify a stored vocabulary file matches the built-in table."""
    data = read_json(path)
    if data.get("words") != WORDS or data.get("version") != VOCAB_VERSION:
        raise CompatibilityError(
            f"vocabulary file {path} does not match the built-in table "
            f"(hash {data.get('hash')} vs {vocab_hash()})")
