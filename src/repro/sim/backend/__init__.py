"""The engine has one event loop, :meth:`repro.sim.engine.Engine._event_loop`.

These two functions survive only for ``perfbench/common.py``'s ``env:``
line, their only reader, which prints the engine backend and whether a
compiled core is built.
"""


def accel_available() -> bool:
    return False


def resolve_backend() -> str:
    return "pure"
