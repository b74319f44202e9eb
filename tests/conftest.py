"""Import oodlab before any test module imports numpy.

The package sets its one-thread BLAS default only while numpy is not yet
loaded, so importing it here runs the suite under the same BLAS setting as
the command-line tool.
"""

import oodlab  # noqa: F401
