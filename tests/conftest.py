from hypothesis import settings

# Fixed examples, so every run of the suite checks the same cases.
settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")
