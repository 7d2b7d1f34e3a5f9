"""Session history, token budgeting, and the LLM backend seam.

Two interchangeable backends sit behind one protocol: a scripted backend
that replays canned responses for deterministic runs and tests, and an
HTTP backend speaking the chat-completion wire shape. The gateway owns
history rendering under a token budget and only records an exchange in the
session after the backend call succeeds.
"""

from __future__ import annotations

import json
import os
from typing import Protocol

from .record import Record


class BackendError(Exception):
    """A model call could not produce a usable completion."""


class TokenLimitError(BackendError):
    """The prompt cannot fit within the input token budget; no call is made."""


class ScriptExhaustedError(BackendError):
    """A scripted backend received a prompt no remaining entry matches."""


class ChatMessage(Record, frozen=True):
    __slots__ = ("role", "content")
    def __init__(self, role: str, content: str):
        self.role, self.content = role, content
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role: {self.role!r}")


class Session(Record):
    """Conversation state: an optional pinned system message plus turn pairs."""

    __slots__ = ("pinned", "turns")
    def __init__(self, pinned: ChatMessage | None = None):
        self.pinned, self.turns = pinned, []


class GenerationParams(Record, frozen=True):
    __slots__ = ("temperature", "max_output_tokens", "model_name")
    def __init__(
        self, temperature: float = 0.2, max_output_tokens: int = 512, model_name: str = "gpt-4"
    ):
        if not 0 <= temperature <= 2:
            raise ValueError(f"temperature out of range [0, 2]: {temperature}")
        # An integer temperature still goes on the wire as a float.
        self.temperature, self.max_output_tokens = float(temperature), max_output_tokens
        self.model_name = model_name
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be at least 1")


def count_tokens(text: str) -> int:
    """Deterministic size estimate: one token per 4 characters, rounded up."""
    return (len(text) + 3) // 4


def render_history(session: Session, token_budget: int) -> list[ChatMessage]:
    """Messages that fit the budget: pinned first, then newest whole pairs.

    The pinned message always survives; a budget that cannot hold it is a
    `TokenLimitError`. Pairs are retained newest-first until one no longer
    fits, so the result is a suffix of the history; a user message is never
    kept without its reply.
    """
    rendered: list[ChatMessage] = []
    remaining = token_budget
    if session.pinned is not None:
        rendered.append(session.pinned)
        remaining -= count_tokens(session.pinned.content)
    if remaining < 0:
        raise TokenLimitError(f"input is {-remaining} tokens over the token budget")
    turns = session.turns
    if len(turns) % 2 != 0:
        raise ValueError("session turns are not whole user/assistant pairs")
    start = len(turns)
    while start:
        cost = count_tokens(turns[start - 2].content) + count_tokens(turns[start - 1].content)
        if cost > remaining:
            break
        remaining -= cost
        start -= 2
    rendered += turns[start:]
    return rendered


class Backend(Protocol):
    def generate(self, messages: list[ChatMessage], params: GenerationParams) -> str: ...


def complete(
    backend: Backend,
    session: Session,
    prompt: str,
    params: GenerationParams,
    token_budget: int,
) -> str:
    """One exchange: render history, call the backend, record the pair.

    `token_budget` bounds the prompt plus the rendered history. The history
    is rendered into what the prompt leaves, so a prompt that leaves no room
    for the pinned message fails there, before any backend call, and leaves
    the session untouched. The new pair is appended only after the backend
    returns a reply that encodes as UTF-8, so a failed call leaves no
    half-turn and every recorded turn can be written out.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    messages = render_history(session, token_budget - count_tokens(prompt))
    user_msg = ChatMessage("user", prompt)
    messages.append(user_msg)
    reply = backend.generate(messages, params)
    try:
        reply.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BackendError(f"reply is not UTF-8 text: {exc.reason} at index {exc.start}") from None
    session.turns += (user_msg, ChatMessage("assistant", reply))
    return reply


class ScriptEntry(Record):
    """One canned response, matched by exact text, substring, or call index."""

    __slots__ = ("response", "exact", "contains", "step", "consumed")
    def __init__(
        self, response: str, exact: str | None = None, contains: str | None = None,
        step: int | None = None,
    ):
        self.response, self.exact, self.contains = response, exact, contains
        self.step, self.consumed = step, False
        matchers = [m for m in (self.exact, self.contains, self.step) if m is not None]
        if len(matchers) != 1:
            raise ValueError("script entry needs exactly one of exact/contains/step")

    def matches(self, prompt: str, call_index: int) -> bool:
        if self.exact is not None:
            return prompt == self.exact
        if self.contains is not None:
            return self.contains in prompt
        return self.step == call_index


class ScriptedBackend:
    """Deterministic backend replaying scripted responses, each used once."""

    def __init__(self, entries: list[ScriptEntry]):
        self.entries = entries
        self.calls = 0
        self._first = 0  # every entry before this index is consumed

    def generate(self, messages: list[ChatMessage], params: GenerationParams) -> str:
        """The reply of the first unconsumed entry, in script order, whose
        matcher fits the last user message; that entry is then consumed."""
        del params
        if not messages or messages[-1].role != "user":
            raise BackendError("scripted backend expects a trailing user message")
        prompt = messages[-1].content
        self.calls += 1
        entries = self.entries
        first = self._first
        while first < len(entries) and entries[first].consumed:
            first += 1
        self._first = first
        for index in range(first, len(entries)):
            entry = entries[index]
            if not entry.consumed and entry.matches(prompt, self.calls):
                entry.consumed = True
                return entry.response
        raise ScriptExhaustedError(
            f"no unconsumed script entry matches call {self.calls}: {prompt[:120]!r}"
        )

    @classmethod
    def from_config(cls, raw_entries: list[dict]) -> "ScriptedBackend":
        entries = []
        for i, raw in enumerate(raw_entries):
            if not isinstance(raw, dict) or set(raw) != {"match", "response"}:
                raise ValueError(f"script entry {i} must have exactly match and response")
            match = raw["match"]
            if not isinstance(match, dict) or len(match) != 1:
                raise ValueError(f"script entry {i} match must set exactly one matcher")
            (key, value), = match.items()
            kind = {"exact": str, "contains": str, "step": int}.get(key)
            if kind is None:
                raise ValueError(f"script entry {i} has unknown matcher {key!r}")
            if type(value) is not kind:
                raise ValueError(f"script entry {i} {key} must be {kind.__name__}, got {value!r}")
            if key == "step" and value < 1:  # call indices are one-based
                raise ValueError(f"script entry {i} step must be at least 1, got {value}")
            if not isinstance(raw["response"], str):
                raise ValueError(f"script entry {i} response must be a string")
            entries.append(ScriptEntry(response=raw["response"], **{key: value}))
        return cls(entries)


ENV_API_URL = "LCAC_API_URL"
ENV_API_KEY = "LCAC_API_KEY"
ENV_MODEL = "LCAC_MODEL"


# Transport retries after a failed attempt; a non-2xx reply is not retried.
TRANSPORT_RETRIES = 1
TIMEOUT_S = 30.0  # per attempt


class HTTPBackend:
    """Chat-completion HTTP backend with a single transport retry."""

    def __init__(self, url: str, api_key: str):
        self.url = url
        self.api_key = api_key

    def generate(self, messages: list[ChatMessage], params: GenerationParams) -> str:
        # The network stack is imported here, not at module top, so that
        # importing aptbot or running a scripted scenario never loads it.
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps(
            {
                "model": params.model_name,
                "messages": [{"role": m.role, "content": m.content} for m in messages],
                "temperature": params.temperature,
                "max_tokens": params.max_output_tokens,
            }
        ).encode()
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        last_error: Exception | None = None
        for _ in range(TRANSPORT_RETRIES + 1):
            try:
                request = urllib.request.Request(
                    self.url, data=body, headers=headers, method="POST"
                )
                try:
                    with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                        status, raw = response.status, response.read()
                except urllib.error.HTTPError as exc:
                    # A non-2xx reply is an answer from the backend, not a
                    # transport failure: take its status and body, no retry.
                    # Reading that body can still fail like any transport.
                    with exc:
                        status, raw = exc.code, exc.read()
                break
            # URLError, timeouts and refused connections are all OSError;
            # ValueError covers a malformed URL or header value.
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_error = exc
        else:
            raise BackendError(f"transport failure after retry: {last_error}")
        text = raw.decode("utf-8", errors="replace")
        if status == 401:
            raise BackendError("backend rejected credentials (status 401)")
        if not 200 <= status < 300:
            raise BackendError(f"backend returned status {status}: {text[:200]}")
        try:
            payload = json.loads(text)
            choices = payload["choices"]
            content = choices[0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError):
            raise BackendError(f"malformed completion payload: {text[:200]}") from None
        if not isinstance(content, str):
            raise BackendError("completion content is not text")
        return content


def http_backend_from_env(environ: dict[str, str] | None = None) -> HTTPBackend:
    env = environ if environ is not None else os.environ
    for var in (ENV_API_URL, ENV_API_KEY):
        if not env.get(var):
            raise BackendError(f"missing environment variable {var}")
    return HTTPBackend(url=env[ENV_API_URL], api_key=env[ENV_API_KEY])


def default_model_from_env(environ: dict[str, str] | None = None) -> str:
    env = environ if environ is not None else os.environ
    return env.get(ENV_MODEL) or "gpt-4"
