"""Build script. The compiled kernel extension, the hand-written C file
src/urygrid/_kernels/_ext.c, is optional: when it fails to build (no C
compiler or no Python headers) the pure-Python fallback is in charge."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("urygrid._kernels._ext",
                             ["src/urygrid/_kernels/_ext.c"], optional=True)])
