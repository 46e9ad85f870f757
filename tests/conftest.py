def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running statistical or training test (deselect with -m 'not slow')"
    )
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning:shapefuse")
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:shapefuse")
