import http.client
import io
import urllib.error
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aptbot import gateway
from aptbot.gateway import (
    BackendError,
    ChatMessage,
    GenerationParams,
    HTTPBackend,
    ScriptedBackend,
    ScriptEntry,
    ScriptExhaustedError,
    Session,
    TokenLimitError,
    complete,
    count_tokens,
    default_model_from_env,
    http_backend_from_env,
    render_history,
)
from stub_server import StubChatServer

PARAMS = GenerationParams()
BUDGET = 8192


def test_count_tokens_rounds_up():
    assert count_tokens("") == 0
    assert count_tokens("abcd") == 1
    assert count_tokens("abcde") == 2
    assert count_tokens("x" * 8) == 2


def test_chat_message_role_is_checked():
    with pytest.raises(ValueError):
        ChatMessage("narrator", "hello")


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=2.5)
    with pytest.raises(ValueError):
        GenerationParams(max_output_tokens=0)
    assert GenerationParams().temperature == 0.2
    assert GenerationParams().model_name == "gpt-4"
    assert GenerationParams(temperature=0, max_output_tokens=1).max_output_tokens == 1
    assert GenerationParams(temperature=2).temperature == 2.0


def test_render_history_keeps_pinned_and_newest_pairs():
    session = Session(pinned=ChatMessage("system", "sys1"))
    session.turns += (ChatMessage("user", "old" * 10), ChatMessage("assistant", "old" * 10))
    session.turns += (ChatMessage("user", "new1"), ChatMessage("assistant", "new2"))
    budget = count_tokens("sys1") + count_tokens("new1") + count_tokens("new2")
    messages = render_history(session, budget)
    assert [m.content for m in messages] == ["sys1", "new1", "new2"]


def test_render_history_never_splits_a_pair():
    session = Session()
    session.turns += (ChatMessage("user", "aaaa"), ChatMessage("assistant", "bbbb"))
    messages = render_history(session, count_tokens("aaaa"))
    assert messages == []


def test_render_history_refuses_a_half_pair():
    session = Session()
    session.turns.append(ChatMessage("user", "q"))
    with pytest.raises(ValueError, match="not whole user/assistant pairs"):
        render_history(session, BUDGET)


def test_render_history_pinned_over_budget_is_an_error():
    session = Session(pinned=ChatMessage("system", "x" * 40))
    with pytest.raises(TokenLimitError):
        render_history(session, 5)


def test_complete_appends_pair_and_returns_reply():
    backend = ScriptedBackend([ScriptEntry(response="pong", contains="ping")])
    session = Session()
    reply = complete(backend, session, "ping", PARAMS, BUDGET)
    assert reply == "pong"
    assert [(m.role, m.content) for m in session.turns] == [
        ("user", "ping"),
        ("assistant", "pong"),
    ]


def test_complete_passes_history_to_backend():
    seen = []

    class Spy:
        def generate(self, messages, params):
            seen.append([m.content for m in messages])
            return "ok"

    session = Session()
    complete(Spy(), session, "first", PARAMS, BUDGET)
    complete(Spy(), session, "second", PARAMS, BUDGET)
    assert seen[1] == ["first", "ok", "second"]


def test_complete_rejects_empty_prompt():
    backend = ScriptedBackend([])
    with pytest.raises(ValueError):
        complete(backend, Session(), "", PARAMS, BUDGET)


def test_complete_oversized_prompt_fails_before_backend_call():
    calls = []

    class Spy:
        def generate(self, messages, params):
            calls.append(messages)
            return "never"

    session = Session()
    with pytest.raises(TokenLimitError):
        complete(Spy(), session, "this prompt is far too large", PARAMS, 4)
    # A prompt that fits alone but not beside the pinned message fails the same way.
    pinned = Session(pinned=ChatMessage("system", "x" * 40))
    with pytest.raises(TokenLimitError):
        complete(Spy(), pinned, "ping", PARAMS, count_tokens("x" * 40))
    assert calls == []
    assert session.turns == pinned.turns == []


def test_complete_failed_backend_leaves_session_unchanged():
    backend = ScriptedBackend([])
    session = Session()
    with pytest.raises(ScriptExhaustedError):
        complete(backend, session, "anything", PARAMS, BUDGET)
    assert session.turns == []


def test_complete_refuses_a_reply_that_is_not_utf8_text():
    backend = ScriptedBackend([ScriptEntry(response="ok \ud800", step=1)])
    session = Session()
    with pytest.raises(BackendError, match="not UTF-8 text: surrogates not allowed at index 3"):
        complete(backend, session, "anything", PARAMS, BUDGET)
    assert session.turns == []


def test_scripted_backend_matchers():
    backend = ScriptedBackend(
        [
            ScriptEntry(response="by-contains", contains="need"),
            ScriptEntry(response="by-step", step=3),
        ]
    )

    def ask(text):
        return backend.generate([ChatMessage("user", text)], PARAMS)

    with pytest.raises(ScriptExhaustedError):
        ask("hello")
    assert ask("I need this") == "by-contains"
    assert ask("anything") == "by-step"


def test_scripted_backend_entries_consume_once():
    backend = ScriptedBackend([ScriptEntry(response="once", contains="x")])
    backend.generate([ChatMessage("user", "x")], PARAMS)
    with pytest.raises(ScriptExhaustedError):
        backend.generate([ChatMessage("user", "x")], PARAMS)


def test_scripted_backend_matches_last_user_message():
    backend = ScriptedBackend([ScriptEntry(response="ok", contains="latest")])
    messages = [
        ChatMessage("user", "earlier"),
        ChatMessage("assistant", "mid"),
        ChatMessage("user", "latest"),
    ]
    assert backend.generate(messages, PARAMS) == "ok"


def _reference_generate(entries, consumed, prompt, call_index):
    """Linear first match: the first unconsumed entry, in script order."""
    for index, entry in enumerate(entries):
        if not consumed[index] and entry.matches(prompt, call_index):
            consumed[index] = True
            return entry.response
    return None


SCRIPT_TEXTS = st.sampled_from(["a", "b", "ab", "ba", "c"])
SCRIPT_ENTRIES = st.one_of(
    st.builds(lambda text: {"contains": text}, SCRIPT_TEXTS),
    st.builds(lambda step: {"step": step}, st.integers(min_value=1, max_value=12)),
)


@given(
    matchers=st.lists(SCRIPT_ENTRIES, max_size=12),
    prompts=st.lists(SCRIPT_TEXTS, max_size=12),
)
@settings(max_examples=300)
def test_scripted_backend_replies_like_a_linear_first_match(matchers, prompts):
    entries = [ScriptEntry(response=f"r{i}", **m) for i, m in enumerate(matchers)]
    backend = ScriptedBackend(entries)
    consumed = [False] * len(entries)
    for call_index, prompt in enumerate(prompts, start=1):
        expected = _reference_generate(entries, consumed, prompt, call_index)
        if expected is None:
            with pytest.raises(ScriptExhaustedError):
                backend.generate([ChatMessage("user", prompt)], PARAMS)
        else:
            assert backend.generate([ChatMessage("user", prompt)], PARAMS) == expected
        assert [e.consumed for e in entries] == consumed


def test_scripted_backend_does_bounded_work_per_call_on_an_in_order_script():
    looks = [0]

    class CountedEntry(ScriptEntry):
        """A script entry that counts how often the backend reads its state."""

        __slots__ = ("_consumed",)

        @property
        def consumed(self):
            looks[0] += 1
            return self._consumed

        @consumed.setter
        def consumed(self, value):
            self._consumed = value

    entries = [CountedEntry(response=f"r{i}", contains=f"p{i}") for i in range(200)]
    backend = ScriptedBackend(entries)
    spy = mock.patch.object(
        ScriptEntry, "matches", autospec=True, side_effect=ScriptEntry.matches
    )
    with spy as matches:
        for i in range(200):
            looks[0], calls_before = 0, matches.call_count
            assert backend.generate([ChatMessage("user", f"p{i}")], PARAMS) == f"r{i}"
            assert matches.call_count - calls_before == 1
            assert looks[0] <= 3
    assert all(entry.consumed for entry in entries)


def test_script_entry_requires_exactly_one_matcher():
    with pytest.raises(ValueError):
        ScriptEntry(response="r")
    with pytest.raises(ValueError):
        ScriptEntry(response="r", contains="a", step=1)


def test_http_backend_wire_shape():
    with StubChatServer() as server:
        backend = HTTPBackend(server.url, api_key="secret-key")
        messages = [
            ChatMessage("user", "first"),
            ChatMessage("assistant", "mid"),
            ChatMessage("user", "ask"),
        ]
        reply = backend.generate(messages, GenerationParams(temperature=0.7))
        assert reply == "reply 1"
        body = server.bodies[0]
        assert set(body) == {"model", "messages", "temperature", "max_tokens"}
        assert body["model"] == "gpt-4"
        assert body["temperature"] == 0.7
        assert body["max_tokens"] == 512
        assert body["messages"] == [
            {"role": "user", "content": "first"},
            {"role": "assistant", "content": "mid"},
            {"role": "user", "content": "ask"},
        ]
        auth = server.headers[0].get("Authorization")
        assert auth == "Bearer secret-key"


def test_http_backend_401_is_credential_error():
    with StubChatServer() as server:
        server.queued.append((401, {"error": "bad key"}))
        backend = HTTPBackend(server.url, api_key="wrong")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert "401" in str(exc_info.value)


def test_http_backend_server_error_surfaces_status():
    with StubChatServer() as server:
        server.queued.append((500, {"error": "boom"}))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert "500" in str(exc_info.value)


def test_http_backend_status_300_is_not_a_success():
    with StubChatServer() as server:
        server.queued.append((300, {"choices": [{"message": {"content": "x"}}]}))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert str(exc_info.value).startswith("backend returned status 300: ")


def test_http_backend_empty_choices_is_malformed():
    with StubChatServer() as server:
        server.queued.append((200, {"choices": []}))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert "malformed" in str(exc_info.value)


def test_http_backend_transport_failure_after_retry(monkeypatch):
    monkeypatch.setattr(gateway, "TIMEOUT_S", 0.2)
    backend = HTTPBackend("http://127.0.0.1:9/nothing", api_key="k")
    with pytest.raises(BackendError) as exc_info:
        backend.generate([ChatMessage("user", "x")], PARAMS)
    assert "transport" in str(exc_info.value)


def test_http_backend_retries_connection_errors_then_gives_up():
    attempts = []

    def refuse(request, timeout):
        attempts.append(request.full_url)
        raise urllib.error.URLError(ConnectionRefusedError("refused"))

    backend = HTTPBackend("http://stub.invalid/v1", api_key="k")
    with mock.patch("urllib.request.urlopen", side_effect=refuse):
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
    assert len(attempts) == 2  # the first try and the one retry
    assert str(exc_info.value).startswith("transport failure after retry: ")


def test_http_backend_malformed_url_is_a_transport_failure():
    backend = HTTPBackend("not a url", api_key="k")
    with pytest.raises(BackendError) as exc_info:
        backend.generate([ChatMessage("user", "x")], PARAMS)
    assert "transport failure" in str(exc_info.value)


def test_http_backend_non_json_body_is_malformed():
    with StubChatServer() as server:
        server.queued.append((200, b"<html>not json</html>"))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert str(exc_info.value) == (
            "malformed completion payload: <html>not json</html>"
        )
        assert len(server.bodies) == 1


def test_http_backend_deeply_nested_body_is_malformed():
    body = b"[" * 100_000 + b"]" * 100_000
    with StubChatServer() as server:
        server.queued.append((200, body))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert str(exc_info.value) == f"malformed completion payload: {body[:200].decode()}"


def test_http_backend_error_body_cut_short_is_a_transport_failure():
    attempts = []

    class CutShort(io.BytesIO):
        def read(self, *args):
            raise http.client.IncompleteRead(b"overl", 100)

    def fail(request, timeout):
        attempts.append(request.full_url)
        raise urllib.error.HTTPError(request.full_url, 500, "error", {}, CutShort())

    backend = HTTPBackend("http://stub.invalid/v1", api_key="k")
    with mock.patch("urllib.request.urlopen", side_effect=fail):
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
    assert len(attempts) == gateway.TRANSPORT_RETRIES + 1
    assert str(exc_info.value).startswith("transport failure after retry: IncompleteRead")


def test_http_backend_error_status_carries_truncated_body():
    body = b"overloaded " + b"x" * 300
    with StubChatServer() as server:
        server.queued.append((500, body))
        backend = HTTPBackend(server.url, api_key="k")
        with pytest.raises(BackendError) as exc_info:
            backend.generate([ChatMessage("user", "x")], PARAMS)
        assert str(exc_info.value) == (
            f"backend returned status 500: {body[:200].decode()}"
        )
        assert len(server.bodies) == 1


def test_http_backend_sends_json_content_type():
    with StubChatServer() as server:
        HTTPBackend(server.url, api_key="k").generate([ChatMessage("user", "x")], PARAMS)
        headers = {k.lower(): v for k, v in server.headers[0].items()}
        assert headers["content-type"] == "application/json"


def test_http_backend_from_env_requires_url_and_key():
    with pytest.raises(BackendError) as exc_info:
        http_backend_from_env({"LCAC_API_KEY": "k"})
    assert "LCAC_API_URL" in str(exc_info.value)
    with pytest.raises(BackendError) as exc_info:
        http_backend_from_env({"LCAC_API_URL": "http://x"})
    assert "LCAC_API_KEY" in str(exc_info.value)
    backend = http_backend_from_env({"LCAC_API_URL": "http://x", "LCAC_API_KEY": "k"})
    assert backend.url == "http://x"


def test_default_model_from_env():
    assert default_model_from_env({}) == "gpt-4"
    assert default_model_from_env({"LCAC_MODEL": "gpt-3.5-turbo"}) == "gpt-3.5-turbo"


@st.composite
def sessions_and_budgets(draw):
    session = Session()
    if draw(st.booleans()):
        session.pinned = ChatMessage("system", draw(st.text(max_size=30)))
    n_pairs = draw(st.integers(min_value=0, max_value=8))
    for _ in range(n_pairs):
        session.turns += (
            ChatMessage("user", draw(st.text(max_size=30))),
            ChatMessage("assistant", draw(st.text(max_size=30))),
        )
    pinned_cost = count_tokens(session.pinned.content) if session.pinned else 0
    budget = draw(st.integers(min_value=pinned_cost, max_value=pinned_cost + 100))
    return session, budget


@given(sessions_and_budgets())
@settings(max_examples=300)
def test_render_history_budget_property(case):
    session, budget = case
    messages = render_history(session, budget)
    total = sum(count_tokens(m.content) for m in messages)
    assert total <= budget
    if session.pinned is not None:
        assert messages[0] == session.pinned
        body = messages[1:]
    else:
        body = messages
    assert len(body) % 2 == 0
    if body:
        assert session.turns[-len(body):] == body
