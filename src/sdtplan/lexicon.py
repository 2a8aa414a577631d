"""Task-text vocabulary: type synonyms, treatment keywords, phrase extraction.

Shared by the relevance filter and the scripted oracle so both sides read a
task line the same way. Matching is longest-phrase-first over a lowercase
token view of the text.
"""

from __future__ import annotations

import re
from typing import Optional

#: phrase -> object type; multi-word phrases must precede their sub-words.
SYNONYMS: tuple[tuple[str, str], ...] = (
    ("bottle of wine", "WineBottle"),
    ("wine bottle", "WineBottle"),
    ("wine", "WineBottle"),
    ("coffee maker", "CoffeeMachine"),
    ("coffee machine", "CoffeeMachine"),
    ("butter knife", "ButterKnife"),
    ("butterknife", "ButterKnife"),
    ("garbage can", "GarbageCan"),
    ("trash can", "GarbageCan"),
    ("garbage", "GarbageCan"),
    ("trash", "GarbageCan"),
    ("dining table", "DiningTable"),
    ("table", "DiningTable"),
    ("countertop", "CounterTop"),
    ("counter", "CounterTop"),
    ("refrigerator", "Fridge"),
    ("fridge", "Fridge"),
    ("microwave", "Microwave"),
    ("sink", "Sink"),
    ("drawer", "Drawer"),
    ("cabinet", "Cabinet"),
    ("toilet", "Toilet"),
    ("faucet", "Faucet"),
    ("knife", "Knife"),
    ("potato", "Potato"),
    ("apple", "Apple"),
    ("tomato", "Tomato"),
    ("bread", "Bread"),
    ("lettuce", "Lettuce"),
    ("mug", "Mug"),
    ("cup", "Mug"),
    ("plate", "Plate"),
    ("sponge", "Sponge"),
    ("cloth", "Cloth"),
    ("bottle", "Bottle"),
    ("statue", "Statue"),
)

COOK_FLAG_TOKENS = frozenset({"cook", "cooked", "cooking"})
HOT_TEMP_TOKENS = frozenset({"warm", "warmed", "hot", "heat", "heated"})
WET_TOKENS = frozenset({"wet"})

#: Treatment -> the task words that ask for it. Each set is tested on its own,
#: so a "cooked, chilled" task asks for both heat and cool. A heat task names a
#: cooked flag, a hot temperature or both.
TREATMENT_TOKENS = {
    "clean": frozenset({"clean", "cleaned", "rinse", "rinsed", "wash", "washed"}) | WET_TOKENS,
    "heat": COOK_FLAG_TOKENS | HOT_TEMP_TOKENS,
    "cool": frozenset({"cool", "cooled", "chill", "chilled", "cold"}),
    "slice": frozenset({"slice", "sliced", "slices", "cut", "piece", "pieces"}),
}

_PREP_RE = re.compile(r"\b(?:on|in|into|inside|under|onto|to)\b")

#: A placement phrase's noun must appear this close after its preposition.
_PHRASE_WINDOW = 40


def tokens(task: str) -> list[str]:
    return re.findall(r"[a-z]+", task.lower())


def _phrase_positions(task: str) -> list[tuple[int, str]]:
    """(char position, type) per synonym hit, longest phrases claiming first."""
    text = task.lower()
    hits: list[tuple[int, str]] = []
    claimed: list[tuple[int, int]] = []
    for phrase, type_name in SYNONYMS:
        if phrase not in text:  # a whole-word match needs the substring; most phrases are absent
            continue
        for m in re.finditer(rf"\b{re.escape(phrase)}\b", text):
            span = (m.start(), m.end())
            if any(span[0] < c_end and c_start < span[1] for c_start, c_end in claimed):
                continue
            claimed.append(span)
            hits.append((m.start(), type_name))
    hits.sort()
    return hits


def type_mentions(task: str) -> list[str]:
    """Object types the task names, in order of first occurrence, deduped."""
    seen = []
    for _, type_name in _phrase_positions(task):
        if type_name not in seen:
            seen.append(type_name)
    return seen


def receptacle_mention(task: str) -> Optional[str]:
    """Target type named by the last placement phrase ('in the sink', ...)."""
    text = task.lower()
    for m in reversed(list(_PREP_RE.finditer(text))):
        tail = text[m.end():].lstrip()
        hits = _phrase_positions(tail)
        if hits and hits[0][0] <= _PHRASE_WINDOW:
            return hits[0][1]
    return None


def main_object(task: str) -> Optional[str]:
    """First mentioned type that is not the placement target."""
    recept = receptacle_mention(task)
    for type_name in type_mentions(task):
        if type_name != recept:
            return type_name
    return None


def treatments(task: str) -> list[str]:
    """The treatments the task's words ask for, in ``TREATMENT_TOKENS`` order."""
    words = set(tokens(task))
    return [name for name, treatment_words in TREATMENT_TOKENS.items() if words & treatment_words]


def wants_slice(task: str) -> bool:
    return "slice" in treatments(task)


def category(task: str) -> Optional[str]:
    """Treatment category: the first of 'clean', 'heat' and 'cool' the task
    asks for (None when untreated)."""
    return next((name for name in treatments(task) if name != "slice"), None)
