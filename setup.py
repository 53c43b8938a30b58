from setuptools import Extension, setup

# The compiled kernels are optional: without a working C compiler the build
# skips them, and digitop falls back to the pure-Python twin at import.
setup(ext_modules=[Extension("digitop._core", ["src/digitop/_core.c"], optional=True)])
