import json

import pytest

from aptbot.gateway import ChatMessage, GenerationParams
from aptbot.prompts import RequestType
from aptbot.scenario import ScenarioError, load_scenario, parse_scenario
from aptbot.validator import DurationModel


def test_load_medication_scenario(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.world.clock_start == 21 * 60 + 54
    assert len(scenario.script) == 3
    assert len(scenario.requests) == 1
    assert "aspirin" in scenario.requests[0]
    assert scenario.config.max_retries == 3


def test_make_backend_resets_consume_state(scenario_path):
    scenario = load_scenario(scenario_path)
    first = scenario.make_backend()
    first.generate([ChatMessage("user", "categorize it please")], GenerationParams())
    second = scenario.make_backend()
    reply = second.generate(
        [ChatMessage("user", "categorize it please")], GenerationParams()
    )
    assert reply == "(A)"


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "absent.scenario")


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.scenario"
    path.write_text('{\n  "script": [,]\n}\n')
    with pytest.raises(ScenarioError) as exc_info:
        load_scenario(path)
    assert "line 2" in str(exc_info.value)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario({"requests": [], "extras": {}})
    assert "extras" in str(exc_info.value)


def test_world_section_errors_are_wrapped():
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario({"world": {"gravity": 9.8}})
    assert "world section" in str(exc_info.value)


def test_template_override_merges_onto_defaults():
    scenario = parse_scenario(
        {"templates": {"A_take_medicine": {"description": "custom description"}}}
    )
    entry = scenario.templates[RequestType.A_TAKE_MEDICINE]
    assert entry.description == "custom description"
    assert "Request:" in entry.examples
    untouched = scenario.templates[RequestType.C_FOOD_BEVERAGE]
    assert "z-arm" in untouched.description


def test_template_override_may_set_both_keys():
    scenario = parse_scenario(
        {"templates": {"A_take_medicine": {"description": "desc", "examples": "ex"}}}
    )
    entry = scenario.templates[RequestType.A_TAKE_MEDICINE]
    assert (entry.description, entry.examples) == ("desc", "ex")


def test_template_override_unknown_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario({"templates": {"D_party_planning": {"description": "x"}}})
    with pytest.raises(ScenarioError):
        parse_scenario({"templates": {"A_take_medicine": {"descriptionn": "x"}}})


def test_config_section_round_trip():
    scenario = parse_scenario(
        {
            "config": {
                "max_retries": 1,
                "tolerance": 10,
                "token_budget": 4096,
                "temperature": 0.0,
                "max_output_tokens": 256,
                "model": "gpt-3.5-turbo",
                "durations": {"pick": 2, "dock": 3},
            }
        }
    )
    config = scenario.config
    assert config.max_retries == 1
    assert config.tolerance == 10
    assert config.token_budget == 4096
    assert config.params.temperature == 0.0
    assert config.params.max_output_tokens == 256
    assert config.params.model_name == "gpt-3.5-turbo"
    assert config.durations.pick == 2
    assert config.durations.fill == 1
    assert config.durations.dock == 3


def test_durations_may_set_all_four_keys():
    durations = {"pick": 4, "fill": 3, "deliver": 2, "dock": 1}
    config = parse_scenario({"config": {"durations": durations}}).config
    assert config.durations == DurationModel(4, 3, 2, 1)


@pytest.mark.parametrize("key", ["pick", "fill", "deliver", "dock"])
def test_a_negative_duration_names_its_scenario_key(key):
    with pytest.raises(ScenarioError) as info:
        parse_scenario({"config": {"durations": {key: -1}}})
    assert str(info.value) == f"{key} must be >= 0"


def test_integer_temperature_is_sent_as_a_float():
    params = parse_scenario({"config": {"temperature": 1}}).config.params
    assert type(params.temperature) is float and params.temperature == 1.0


@pytest.mark.parametrize(
    "ones, message",
    [
        (4301, "holds an integer too long to read"),
        (4300, "capacity must be a non-negative integer"),
    ],
)
def test_a_negative_integer_is_read_to_the_digit_bound(tmp_path, ones, message):
    # json.dumps cannot write an integer this long, so the text is written by hand.
    path = tmp_path / "negative.scenario"
    path.write_text('{"world": {"capacity": -' + "1" * ones + "}}")
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


def test_config_unknown_keys_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario({"config": {"retries": 2}})
    with pytest.raises(ScenarioError):
        parse_scenario({"config": {"durations": {"move": 1}}})


def test_requests_must_be_strings():
    with pytest.raises(ScenarioError):
        parse_scenario({"requests": [1, 2]})
    with pytest.raises(ScenarioError):
        parse_scenario({"requests": "bring water"})


def test_bad_script_entry_fails_at_load():
    with pytest.raises(ScenarioError, match="^script entry 0"):
        parse_scenario({"script": [{"match": {"regex": "x"}, "response": "r"}]})
    with pytest.raises(ScenarioError, match="^script entry 0"):
        parse_scenario({"script": [{"response": "r"}]})
    with pytest.raises(ScenarioError) as info:
        parse_scenario({"script": [{"match": {}, "response": "r"}]})
    assert str(info.value) == "script entry 0: match needs exactly one of exact/contains/step"
    with pytest.raises(ScenarioError) as info:
        parse_scenario({"script": [
            {"match": {"exact": "a", "contains": "b", "step": 1}, "response": "r"}
        ]})
    assert str(info.value) == "script entry 0: match needs exactly one of exact/contains/step"


def test_scenario_world_override(tmp_path):
    path = tmp_path / "world.scenario"
    path.write_text(
        json.dumps(
            {
                "world": {
                    "clock_start": "8:00am",
                    "stock": {"medicine_box": {"aspirin": 3}},
                }
            }
        )
    )
    scenario = load_scenario(path)
    assert scenario.world.clock_start == 480
    box = [f for f in scenario.world.facilities if f.kind == "medicine_box"][0]
    assert box.stock["aspirin"] == 3
