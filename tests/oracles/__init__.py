"""Reference implementations kept only as test oracles.

Each module here is the simpler spec of a production fast path: the
differential tests in ``tests/test_oracles.py`` drive both through the
same operation sequences and require identical observable results.
Nothing under ``src/`` imports these.
"""
