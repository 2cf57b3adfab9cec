from hypothesis import settings

# A failing property test prints a @reproduce_failure blob, so a failure
# drawn at random can be replayed.  The examples drawn are unchanged.
settings.register_profile("sramlab", print_blob=True)
settings.load_profile("sramlab")
