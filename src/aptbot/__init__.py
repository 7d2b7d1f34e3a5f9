"""Context-aware household agent: LLM-planned, validated, simulated.

Natural-language requests are classified, turned into templated prompts,
answered by an LLM backend with timed action plans, then parsed,
validated against the apartment model, and executed in a deterministic
simulator.
"""
