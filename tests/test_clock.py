import pytest

from aptbot.clock import ClockParseError, format_clock, parse_clock


def test_parse_evening_time():
    assert parse_clock("9:56pm") == 21 * 60 + 56


def test_parse_midnight_and_noon():
    assert parse_clock("12:00am") == 0
    assert parse_clock("12:00pm") == 720
    assert parse_clock("12:30am") == 30


def test_parse_is_case_and_space_tolerant():
    assert parse_clock("9:56PM") == parse_clock("9:56pm")
    assert parse_clock("9:56 pm") == parse_clock("9:56pm")
    assert parse_clock("  9:56pm  ") == parse_clock("9:56pm")
    assert parse_clock("09:56PM") == parse_clock(" 9:56 pm") == parse_clock("9:56pm\n") == 1316
    assert parse_clock("12:00AM") == 0


def test_format_has_no_leading_zero_and_pads_minutes():
    assert format_clock(1316) == "9:56pm"
    assert format_clock(0) == "12:00am"
    assert format_clock(720) == "12:00pm"
    assert format_clock(65) == "1:05am"


@pytest.mark.parametrize(
    "bad",
    ["", "956pm", "9:56", "9:5pm", "13:00pm", "0:30am", "9:60pm", "nine:56pm", "9:56xm"],
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ClockParseError):
        parse_clock(bad)


def test_format_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"^minutes out of range: 1440$"):
        format_clock(1440)
    with pytest.raises(ValueError, match=r"^minutes out of range: -1$"):
        format_clock(-1)


def test_round_trip_every_minute():
    # Each canonical text is checked against its definition, and parses
    # back both from the lookup table and, padded and upper-cased, by regex.
    for minutes in range(1440):
        hour24, minute = divmod(minutes, 60)
        text = f"{hour24 % 12 or 12}:{minute:02d}{'am' if hour24 < 12 else 'pm'}"
        assert format_clock(minutes) == text
        assert parse_clock(text) == minutes
        assert parse_clock(f" {text.upper()}") == minutes


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "malformed time ''"),
        ("9:56", "malformed time '9:56'"),
        ("13:00pm", "hour out of range in '13:00pm'"),
        ("00:30AM", "hour out of range in '00:30AM'"),
        ("9:60pm", "minute out of range in '9:60pm'"),
    ],
)
def test_parse_error_messages(bad, message):
    with pytest.raises(ClockParseError) as exc_info:
        parse_clock(bad)
    assert str(exc_info.value) == message

