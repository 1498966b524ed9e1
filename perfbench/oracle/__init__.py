"""Reference computations written apart from the program under test.

Nothing here imports ``repro``: the benchmark checks the program's
answers against these, so they must not share its code.
"""
