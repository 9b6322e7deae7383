"""Layered benchmark for the cutplan planner and verifier (see README.md)."""
