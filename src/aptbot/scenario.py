"""Scenario files: a world, prompt templates, a response script, requests.

A scenario is one JSON document driving a reproducible run. Its script is
checked once, at load; every run gets a backend holding fresh copies of the
checked entries, so consume-once matcher state never leaks between runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .agent import AgentConfig
from .gateway import GenerationParams, ScriptedBackend, ScriptEntry
from .plan import read_count
from .prompts import RequestType, TemplateEntry, check_slots, default_templates
from .record import Record
from .validator import DurationModel
from .world import WorldError, WorldModel, typed, world_from_config

_TOP_KEYS = {"world", "templates", "script", "requests", "config"}
_CONFIG_KEYS = {
    "max_retries", "tolerance", "token_budget", "temperature", "max_output_tokens", "model",
    "durations",
}


class ScenarioError(ValueError):
    """Malformed scenario file or section."""


class Scenario(Record, frozen=True):
    __slots__ = ("world", "templates", "script", "requests", "config")
    def __init__(
        self, world: WorldModel, templates: dict[RequestType, TemplateEntry],
        script: tuple[ScriptEntry, ...], requests: tuple[str, ...], config: AgentConfig,
    ):
        self.world, self.templates, self.script = world, templates, script
        self.requests, self.config = requests, config

    def make_backend(self) -> ScriptedBackend:
        """Fresh backend with unconsumed copies of the script entries."""
        entries = [ScriptEntry(e.response, e.exact, e.contains, e.step) for e in self.script]
        return ScriptedBackend(entries)


def _merge_templates(world: WorldModel, overrides: dict) -> dict[RequestType, TemplateEntry]:
    entries = default_templates(world)
    for key, override in overrides.items():
        req_type = RequestType.__members__.get(key.upper(), RequestType.UNKNOWN)
        if req_type is RequestType.UNKNOWN:
            raise ScenarioError(f"unknown template key {key!r}")
        if not set(override) <= {"description", "examples"}:
            raise ScenarioError(
                f"template {key!r} allows only description and examples"
            )
        base = entries[req_type]
        try:
            entries[req_type] = TemplateEntry(
                description=typed(override, "description", str, base.description),
                examples=typed(override, "examples", str, base.examples),
            )
        except ValueError as exc:
            raise ScenarioError(f"template {key!r}: {exc}") from None
    return entries


def _read_script(entries: list):
    """Each script entry, checked; a fault names the entry's index."""
    for index, entry in enumerate(entries):
        try:
            if type(entry) is not dict or set(entry) != {"match", "response"}:
                raise ScenarioError("must have exactly match and response")
            match = typed(entry, "match", dict)
            if not set(match) <= {"exact", "contains", "step"}:
                raise ScenarioError("match allows only exact, contains and step")
            yield ScriptEntry(typed(entry, "response", str), typed(match, "exact", str),
                              typed(match, "contains", str), typed(match, "step", int))
        except ValueError as exc:
            raise ScenarioError(f"script entry {index}: {exc}") from None


def _build_config(raw: dict) -> AgentConfig:
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ScenarioError(f"unknown config keys: {sorted(unknown)}")
    config = AgentConfig()
    params = config.params
    keys, sub = DurationModel.__slots__, typed(raw, "durations", dict, {})
    if not set(sub) <= set(keys):
        raise ScenarioError(f"durations allows only keys {sorted(keys)}")
    return AgentConfig(
        max_retries=typed(raw, "max_retries", int, config.max_retries),
        durations=DurationModel(**{key: typed(sub, key, int) for key in keys if key in sub}),
        tolerance=typed(raw, "tolerance", int, config.tolerance),
        params=GenerationParams(
            temperature=typed(raw, "temperature", float, params.temperature),
            max_output_tokens=typed(raw, "max_output_tokens", int, params.max_output_tokens),
            model_name=typed(raw, "model", str, params.model_name),
        ),
        token_budget=typed(raw, "token_budget", int, config.token_budget),
    )


def parse_scenario(raw: dict) -> Scenario:
    """Check every section of a scenario document; any fault is a ScenarioError."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")

    try:
        world = world_from_config(typed(raw, "world", dict, {}))
    except WorldError as exc:
        raise ScenarioError(f"world section: {exc}") from None

    # Type and range errors of the other sections (WorldError from `typed`,
    # ValueError from the records they build) all surface here.
    try:
        requests = typed(raw, "requests", list, [], item=str)
        for request in requests:
            check_slots(request=request)
        return Scenario(
            world=world,
            templates=_merge_templates(world, typed(raw, "templates", dict, {}, item=dict)),
            script=tuple(_read_script(typed(raw, "script", list, []))),
            requests=tuple(requests),
            config=_build_config(typed(raw, "config", dict, {})),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _json_int(text: str) -> int:
    """A JSON integer, its digits read as plan counts are (`read_count`)."""
    negative = text.startswith("-")
    count = read_count(text[negative:], "integer")
    return -count if negative else count


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    try:
        raw = json.loads(text, parse_int=_json_int)
        # An escape such as "\ud800" decodes to a lone surrogate, which no
        # output file can hold: refuse it here, before any request runs.
        json.dumps(raw, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from None
    except RecursionError:
        raise ScenarioError(f"scenario {path} nests too deeply to decode") from None
    except UnicodeEncodeError as exc:
        raise ScenarioError(
            f"scenario {path} holds text that cannot be encoded as UTF-8: {exc.reason}"
        ) from None
    except ValueError:  # the only other refusal: an integer too long (`read_count`)
        raise ScenarioError(f"scenario {path} holds an integer too long to read") from None
    return parse_scenario(raw)
