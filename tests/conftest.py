from hypothesis import settings

# Derandomized examples: the suite gives the same result on every run.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
