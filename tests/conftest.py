"""Shared test settings.

Every ``hypothesis`` property runs under one profile: derandomized, with no
example database and no deadline, so a run is reproducible and a slow
example cannot fail it.  Each property sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("sdnqueue", derandomize=True, database=None, deadline=None)
settings.load_profile("sdnqueue")
