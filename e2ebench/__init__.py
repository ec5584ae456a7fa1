"""End-to-end coloring benchmark (see ``run.py`` for the command line)."""
