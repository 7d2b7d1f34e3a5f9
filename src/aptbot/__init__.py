"""Context-aware household agent: LLM-planned, validated, simulated.

Natural-language requests are classified, turned into templated prompts,
answered by an LLM backend with timed action plans, then parsed,
validated against the apartment model, and executed in a deterministic
simulator.
"""

from .agent import AgentConfig, RequestOutcome, handle_request
from .gateway import (
    ChatMessage,
    GenerationParams,
    HTTPBackend,
    ScriptedBackend,
    Session,
)
from .oracle import plan_oracle
from .plan import ActionPlan, parse_plan, serialize_plan
from .prompts import RequestType, classify_request
from .scenario import Scenario, load_scenario
from .simulator import EventLog, execute
from .validator import DurationModel, Goal, ValidationResult, Violation, validate
from .world import WorldModel, ZArmState, default_world

__version__ = "0.1.0"

__all__ = [
    "ActionPlan",
    "AgentConfig",
    "ChatMessage",
    "DurationModel",
    "EventLog",
    "GenerationParams",
    "Goal",
    "HTTPBackend",
    "RequestOutcome",
    "RequestType",
    "Scenario",
    "ScriptedBackend",
    "Session",
    "ValidationResult",
    "Violation",
    "WorldModel",
    "ZArmState",
    "__version__",
    "classify_request",
    "default_world",
    "execute",
    "handle_request",
    "load_scenario",
    "parse_plan",
    "plan_oracle",
    "serialize_plan",
    "validate",
]
