"""The numeric kernels run on numpy, the only backend."""

from ccn import kernels


def test_active_backend_reports_selection():
    assert kernels.active_backend() == "numpy"
