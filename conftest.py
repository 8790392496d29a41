"""Pytest bootstrap: make ``repro`` importable from the source tree.

Lets ``pytest tests/`` run straight from a checkout even when the
package has not been pip-installed (e.g. offline environments where
pip's isolated build cannot fetch setuptools/wheel — use ``python
setup.py develop`` there, or rely on this hook).
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# Load the shared Hypothesis settings profile (dev by default; CI
# exports REPRO_HYPOTHESIS_PROFILE=ci) so every property in the suite
# scales with one knob.  Skipped gracefully when hypothesis is not
# installed — only the property tests depend on it.
from repro.verify import hypothesis_available

if hypothesis_available():
    from repro.verify.profiles import load_profile

    load_profile()
