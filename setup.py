"""Build script for the compiled search kernel.

The package works without the extension (a pure-Python kernel is selected at
import time), so a failed compile only costs speed.  In a source checkout,
`tensordim._loader` runs this script's `build_ext` on first import and caches
the result under `build/kernel`.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("tensordim._bb", sources=["src/tensordim/_bb.c"])])
