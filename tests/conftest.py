from hypothesis import settings

# Property tests draw the same examples on every run and have no time limit,
# so a slow host cannot turn them into flakes.
settings.register_profile("hamlv", derandomize=True, deadline=None)
settings.load_profile("hamlv")
