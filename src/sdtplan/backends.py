"""Language-model backends: a live chat-completion client and a scripted oracle.

Both sides of the interface are a single text-to-text ``complete`` call.
The oracle recognizes the four prompt layouts by their header token and
answers with grammar-valid, fully deterministic text, so the whole loop
runs offline. Fault switches corrupt its plans (never its goal lines) to
exercise recovery and replanning.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol, TypeVar

from . import lexicon, prompts
from .errors import BackendError, GrammarError, OracleError, PlanParseError
from .sdt import ActionName
from .triplets import ActionTriplet, GoalClause, format_triplets, parse_recovery, parse_triplets
from .world import type_of_id


class LLMBackend(Protocol):
    def complete(self, prompt: str) -> str: ...


T = TypeVar("T")


def complete_text(backend: LLMBackend, prompt: str) -> str:
    """The backend's reply to ``prompt``; GrammarError when it is not a string."""
    reply = backend.complete(prompt)
    if not isinstance(reply, str):
        raise GrammarError(f"reply is {type(reply).__name__}, not text")
    return reply


def ask(backend: LLMBackend, prompt: str, parse: Callable[[str], T], reminder: str) -> T:
    """Query the backend and parse the reply, asking once more on a grammar error.

    A reply that is not a string is a grammar error too. The retry sends
    ``prompt`` with ``reminder`` appended. When that reply does not parse
    either, PlanParseError is raised, chained to its grammar error. Backend
    errors are never retried here.
    """
    try:
        return parse(complete_text(backend, prompt))
    except GrammarError as first_err:
        try:
            return parse(complete_text(backend, prompt + reminder))
        except GrammarError as exc:
            raise PlanParseError(
                f"unparseable reply after retry: {exc} (first error: {first_err})"
            ) from exc


# ---------------------------------------------------------------------------
# HTTP client

#: Environment variable whose value, when set, is sent as the Bearer token.
API_KEY_ENV = "SDT_AGENT_API_KEY"


@dataclass
class HttpConfig:
    endpoint: str
    model: str
    timeout: float = 30.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite number above 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must not be negative, got {self.max_retries}")


class HttpBackend:
    """OpenAI-compatible chat-completion client with exponential backoff.

    Auth comes from the environment only; a missing key simply sends no
    Authorization header (local stubs don't need one). Timeouts, transport
    errors, HTTP 429 and 5xx are retried; an integer ``Retry-After`` can
    lengthen the wait, up to the request timeout. ``requests`` is imported
    on first use, so the offline oracle path never pays for it.
    """

    _BACKOFF_BASE = 0.25

    def __init__(self, config: HttpConfig):
        import requests

        self.config = config
        self._session = requests.Session()

    def complete(self, prompt: str) -> str:
        import requests

        cfg = self.config
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(API_KEY_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {"model": cfg.model, "messages": [{"role": "user", "content": prompt}]}
        last_error = "no attempt made"
        retry_after = 0.0
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(max(self._BACKOFF_BASE * (2 ** (attempt - 1)), retry_after))
            retry_after = 0.0
            try:
                response = self._session.post(
                    cfg.endpoint, headers=headers, json=body, timeout=cfg.timeout
                )
            except requests.Timeout:
                last_error = f"timeout after {cfg.timeout}s"
                continue
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = f"HTTP {response.status_code}"
                retry_after = min(_retry_after_s(response.headers), cfg.timeout)
                continue
            if response.status_code >= 400:
                raise BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
            try:
                content = response.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
            if not isinstance(content, str):
                raise BackendError(f"completion content is {type(content).__name__}, not text")
            return content
        raise BackendError(f"backend unreachable after {cfg.max_retries + 1} attempts ({last_error})")


def _retry_after_s(headers) -> float:
    """Seconds from an integer ``Retry-After`` header; 0 when absent or not an integer."""
    try:
        return float(max(0, int(headers.get("Retry-After", ""))))
    except ValueError:
        return 0.0


# ---------------------------------------------------------------------------
# Scripted oracle


@dataclass
class OracleConfig:
    """Deterministic fault switches for provoking recovery and replanning.

    omit_slice / omit_cool drop that subtask from the plan and stage the
    object on a counter instead of the goal receptacle; wrong_target_first
    makes receptacle grounding naively nearest-first; misorder_heat runs
    the microwave with the door open (which cooks nothing).
    """

    omit_slice: bool = False
    omit_cool: bool = False
    wrong_target_first: bool = False
    misorder_heat: bool = False


_CAND_HEAD_RE = re.compile(r"^(\S+):$")
_CAND_ITEM_RE = re.compile(r"^\d+\. (\S+) \(")
_PAIR_LINE_RE = re.compile(r"^- (\S+): (\w+(?:, \w+)*)$")
_UNMET_RE = re.compile(r"UNMET type=(\S+) need=(\S+)(?: near=(\S+))?")
_GROUNDED_RE = re.compile(r"^Grounded: .*?\(\w+,(\S+?)\)", re.MULTILINE)

#: Soft foods are cut with the butter knife, firm produce with the knife.
_BUTTER_KNIFE_FOODS = frozenset({"Potato", "Bread"})

_PARK_PREFERENCE = ("Sink", "CounterTop", "DiningTable")
_STAGE_TYPE = "CounterTop"


def _t(action: ActionName, arg1: str, arg2: Optional[str] = None) -> ActionTriplet:
    return ActionTriplet(action=action, arg1=arg1, arg2=arg2)


def _labelled_triplet(text: str, label: str) -> Optional[ActionTriplet]:
    """The triplet on the first ``<label>: `` line of ``text``; None when absent or malformed."""
    prefix = f"{label}: "
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(prefix):
            try:
                # the line carries one flat triplet; wrap it for the parser
                return parse_triplets(f"[{line[len(prefix):].strip()}]")[0]
            except GrammarError:
                return None
    return None


# Treatment plans, shared by the plan (type names) and the replan (instance ids)
# replies; each takes the references to write.


def _slice_block(food_type: str, find: Callable[[str], Optional[str]]) -> list[ActionTriplet]:
    """Take a knife, slice the food and park the knife.

    ``find`` maps a type to the reference to use, None when none is in view;
    the knife suited to the food is preferred, the other one is next.
    """
    preferred, other = (
        ("ButterKnife", "Knife") if food_type in _BUTTER_KNIFE_FOODS else ("Knife", "ButterKnife")
    )
    knife = find(preferred) or find(other) or preferred
    park = next((ref for t in _PARK_PREFERENCE if (ref := find(t))), _PARK_PREFERENCE[0])
    return [
        _t(ActionName.PICKUP, knife),
        _t(ActionName.SLICE, find(food_type) or food_type),
        _t(ActionName.PUT, knife, park),
    ]


def _clean_block(item: str, sink: str, faucet: str) -> list[ActionTriplet]:
    """Rinse the held ``item`` in the sink and take it back."""
    return [
        _t(ActionName.PUT, item, sink),
        _t(ActionName.TOGGLE_ON, faucet),
        _t(ActionName.TOGGLE_OFF, faucet),
        _t(ActionName.PICKUP, item),
    ]


def _heat_block(item: str, microwave: str, misorder: bool = False) -> list[ActionTriplet]:
    """Microwave the held ``item`` and take it back; ``misorder`` runs it with the door open."""
    door, power = _t(ActionName.CLOSE, microwave), _t(ActionName.TOGGLE_ON, microwave)
    return [
        _t(ActionName.OPEN, microwave),
        _t(ActionName.PUT, item, microwave),
        *((power, door) if misorder else (door, power)),
        _t(ActionName.TOGGLE_OFF, microwave),
        _t(ActionName.OPEN, microwave),
        _t(ActionName.PICKUP, item),
        _t(ActionName.CLOSE, microwave),
    ]


def _cool_block(item: str, fridge: str) -> list[ActionTriplet]:
    """Chill the held ``item`` in the fridge and take it back."""
    return [
        _t(ActionName.OPEN, fridge),
        _t(ActionName.PUT, item, fridge),
        _t(ActionName.CLOSE, fridge),
        _t(ActionName.OPEN, fridge),
        _t(ActionName.PICKUP, item),
        _t(ActionName.CLOSE, fridge),
    ]


class ScriptedOracle:
    """Referentially transparent surrogate model driven by prompt text alone."""

    def __init__(self, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()

    def complete(self, prompt: str) -> str:
        if prompt.startswith(prompts.PLAN_HEADER):
            return self._plan(prompt)
        if prompt.startswith(prompts.CHOICE_HEADER):
            return self._choose(prompt)
        if prompt.startswith(prompts.RECOVERY_HEADER):
            return self._recover(prompt)
        if prompt.startswith(prompts.REPLAN_HEADER):
            return self._replan(prompt)
        raise OracleError("unrecognized prompt layout")

    # -- plan ---------------------------------------------------------------

    def _plan(self, prompt: str) -> str:
        secs = prompts.sections(prompt)
        task = next(iter(secs.get(prompts.SEC_TASK, "").splitlines()), "").strip()
        instances = prompts.parse_state_lines(secs.get(prompts.SEC_OBJECTS, ""))
        present = {type_name for _, type_name, _ in instances}
        openable = self._openable_types(secs.get(prompts.SEC_KNOWLEDGE, ""))

        obj = lexicon.main_object(task)
        if obj is None:
            raise OracleError(f"cannot identify the task object in {task!r}")
        recept = lexicon.receptacle_mention(task)
        cat = lexicon.category(task)
        slicing = lexicon.wants_slice(task)

        plan: list[ActionTriplet] = []
        work = obj
        if slicing and not self.config.omit_slice:
            plan += _slice_block(obj, lambda t: t if t in present else None)
            work = f"{obj}Sliced"
        plan.append(_t(ActionName.PICKUP, work))

        if cat == "clean":
            plan += _clean_block(work, "Sink", "Faucet")
        elif cat == "heat":
            plan += _heat_block(work, "Microwave", self.config.misorder_heat)
        elif cat == "cool" and not self.config.omit_cool:
            plan += _cool_block(work, "Fridge")

        staged = (slicing and self.config.omit_slice) or (cat == "cool" and self.config.omit_cool)
        target = _STAGE_TYPE if staged else recept
        if target is not None:
            if target in openable:
                plan += [
                    _t(ActionName.OPEN, target),
                    _t(ActionName.PUT, work, target),
                    _t(ActionName.CLOSE, target),
                ]
            else:
                plan.append(_t(ActionName.PUT, work, target))

        goal = self._goal_clause(task, obj, recept, cat, slicing)
        return f"Action-Triplets:{format_triplets(plan)}\n{goal.render()}"

    @staticmethod
    def _goal_clause(
        task: str, obj: str, recept: Optional[str], cat: Optional[str], slicing: bool
    ) -> GoalClause:
        toks = set(lexicon.tokens(task))
        flags: list[str] = []
        temp: Optional[str] = None
        if cat == "clean":
            flags = ["isFilled"] if toks & lexicon.WET_TOKENS else ["!isDirty"]
        elif cat == "heat":
            if toks & lexicon.COOK_FLAG_TOKENS:
                flags.append("isCooked")
            if toks & lexicon.HOT_TEMP_TOKENS:
                temp = "Hot"
        elif cat == "cool":
            temp = "Cold"
        return GoalClause(
            object_type=f"{obj}Sliced" if slicing else obj,
            required_flags=tuple(flags),
            required_temperature=temp,
            receptacle_type=recept,
        )

    @staticmethod
    def _openable_types(knowledge: str) -> set[str]:
        return {
            m.group(1) for m in re.finditer(r"^- (\S+) \[([^\]]*)\]", knowledge, re.MULTILINE)
            if "Openable" in m.group(2)
        }

    # -- grounding choice ----------------------------------------------------

    def _choose(self, prompt: str) -> str:
        secs = prompts.sections(prompt)
        step = _labelled_triplet(secs.get(prompts.SEC_STEP, ""), "Grounding")
        listed = secs.get(prompts.SEC_CANDIDATES, "")
        state = prompts.parse_state_lines(listed + "\n" + secs.get(prompts.SEC_STATE, ""))
        parent_of = {object_id: parent for object_id, _, parent in state}
        recent_targets = re.findall(r"\((?:\w+),(\S+?)\)", secs.get(prompts.SEC_HISTORY, ""))
        candidates = self._parse_candidates(listed)

        receptacle_step = step is not None and step.action in (
            ActionName.PUT, ActionName.OPEN, ActionName.CLOSE
        )
        picks = {}
        for ref, ids in candidates.items():
            picks[ref] = self._pick(ids, parent_of, recent_targets, receptacle_step)
        body = ", ".join(f"{ref}->{object_id}" for ref, object_id in picks.items())
        return "CHOICE:{" + body + "}"

    def _pick(
        self,
        ids: list[str],
        parent_of: dict[str, Optional[str]],
        recent_targets: list[str],
        receptacle_step: bool,
    ) -> str:
        if receptacle_step and self.config.wrong_target_first:
            return ids[0]  # naively nearest, occupancy ignored
        # continuity: prefer a candidate sitting in the receptacle we just used
        for target in reversed(recent_targets):
            for object_id in ids:
                if parent_of.get(object_id) == target:
                    return object_id
        # otherwise the emptiest candidate (fewest visible contents), nearest first
        counts = {
            object_id: sum(1 for p in parent_of.values() if p == object_id)
            for object_id in ids
        }
        return min(ids, key=lambda i: (counts[i], ids.index(i)))

    @staticmethod
    def _parse_candidates(text: str) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        current: Optional[str] = None
        for raw in text.splitlines():
            line = raw.strip()
            head = _CAND_HEAD_RE.match(line)
            if head and not _CAND_ITEM_RE.match(line):
                current = head.group(1)
                out[current] = []
                continue
            item = _CAND_ITEM_RE.match(line)
            if item and current is not None:
                out[current].append(item.group(1))
        return out

    # -- failure recovery ----------------------------------------------------

    def _recover(self, prompt: str) -> str:
        secs = prompts.sections(prompt)
        code = secs.get(prompts.SEC_ERROR, "").splitlines()[0].split(":", 1)[0].strip()
        failed = secs.get(prompts.SEC_FAILED, "")
        grounded = _GROUNDED_RE.search(failed)
        candidates = self._recovery_candidates(
            code,
            self._parse_pairs(secs.get(prompts.SEC_PAIRS, "")),
            _labelled_triplet(failed, "Triplet"),
            grounded.group(1) if grounded else None,
        )
        blocked = self._parse_blocked(secs.get(prompts.SEC_NO_REPEAT, ""))
        sequence = next((seq for seq in candidates if seq not in blocked), ())
        return "[" + ",".join(f"({a},{t})" for a, t in sequence) + "]"

    @staticmethod
    def _recovery_candidates(
        code: str,
        pairs: list[tuple[str, str]],
        failed_triplet: Optional[ActionTriplet],
        grounded: Optional[str],
    ) -> Iterator[tuple[tuple[str, str], ...]]:
        """Recovery sequences for the error ``code``, most preferred first.

        NoValidPosition: an alternate receptacle, same type first, opened
        first when its open pair is listed. NotVisible: open a door (nearest
        first), retry the failed action directly, crouch or stand and retry.
        ClosedReceptacle: open the grounded receptacle. HandOccupied: put the
        held object down. Every single pair follows as the fallback.
        """
        open_, put = ActionName.OPEN.value, ActionName.PUT.value
        listed = set(pairs)
        if code == "NoValidPosition":
            failed_type = type_of_id(grounded) if grounded else None
            targets = [t for a, t in pairs if a == put and t != grounded]
            targets.sort(key=lambda t: type_of_id(t) != failed_type)
            for target in targets:
                opener = (open_, target)
                yield (opener, (put, target)) if opener in listed else ((put, target),)
        elif code == "NotVisible":
            yield from ((p,) for p in pairs if p[0] == open_)
            if failed_triplet is not None and failed_triplet.target_ref is not None:
                ref = failed_triplet.target_ref
                ref_type = type_of_id(ref)
                direct = next(
                    (
                        p
                        for p in pairs
                        if p[0] == failed_triplet.action.value
                        and type_of_id(p[1]) in (ref_type, f"{ref_type}Sliced")
                    ),
                    None,
                )
                if direct:
                    yield (direct,)
                    for pose in (ActionName.CROUCH.value, ActionName.STAND.value):
                        pose_pair = next((p for p in pairs if p[0] == pose), None)
                        if pose_pair:
                            yield (pose_pair, direct)
        elif code == "ClosedReceptacle" and (open_, grounded) in listed:
            yield ((open_, grounded),)
        elif code == "HandOccupied":
            yield from ((p,) for p in pairs if p[0] == put)
        yield from ((p,) for p in pairs)

    @staticmethod
    def _parse_pairs(text: str) -> list[tuple[str, str]]:
        """``(action, id)`` pairs, in order, from lines ``- <id>: <action>, ...``."""
        out = []
        for line in text.splitlines():
            m = _PAIR_LINE_RE.match(line.strip())
            if m:
                out += ((action, m.group(1)) for action in m.group(2).split(", "))
        return out

    @staticmethod
    def _parse_blocked(text: str) -> set[tuple[tuple[str, str], ...]]:
        blocked = set()
        for line in text.splitlines():
            payload = line.split(" => ", 1)[0]
            try:
                seq = parse_recovery(payload)
            except GrammarError:
                continue
            blocked.add(tuple((p.name.value, p.target) for p in seq))
        return blocked

    # -- replanning ----------------------------------------------------------

    def _replan(self, prompt: str) -> str:
        secs = prompts.sections(prompt)
        m = _UNMET_RE.search(secs.get(prompts.SEC_UNMET, ""))
        if m is None:
            return "Action-Triplets:[]"
        goal_type, need, near = m.group(1), m.group(2), m.group(3)
        state = prompts.parse_state_lines(secs.get(prompts.SEC_STATE, ""))

        def first_id(type_name: str) -> Optional[str]:
            for object_id, object_type, _ in state:
                if object_type == type_name:
                    return object_id
            return None

        def ref(type_name: str) -> str:
            return first_id(type_name) or type_name

        subject = near if near else ref(goal_type)
        take = _t(ActionName.PICKUP, subject)
        stage = _t(ActionName.PUT, subject, ref(_STAGE_TYPE))
        if need == "exists" and goal_type.endswith("Sliced"):
            plan = _slice_block(goal_type[: -len("Sliced")], first_id)
        elif need == "temp:Cold":
            plan = [take, *_cool_block(subject, ref("Fridge")), stage]
        elif need in ("temp:Hot", "flag:isCooked"):
            plan = [take, *_heat_block(subject, ref("Microwave")), stage]
        elif need in ("flag:!isDirty", "flag:isFilled"):
            plan = [take, *_clean_block(subject, ref("Sink"), ref("Faucet")), stage]
        elif need.startswith("in:"):
            plan = [take, _t(ActionName.PUT, subject, ref(need[len("in:"):]))]
        else:
            plan = []
        return "Action-Triplets:" + format_triplets(plan)
