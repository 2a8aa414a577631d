"""Semantic-digital-twin grounded task planning, recovery and replanning."""
