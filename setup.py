"""Build script for the compiled search kernel.

The package works without the extension (a pure-Python kernel is selected at
import time), so a failed compile only costs speed.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("tensordim._bb", sources=["src/tensordim/_bb.c"])])
