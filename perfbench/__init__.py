"""Layer-attributed benchmark of the HyCiM reproduction (see run.py)."""
