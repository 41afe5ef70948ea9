"""Simulated tasks producing trial batches."""
