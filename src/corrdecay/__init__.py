"""Bounds, relaxations and exact checks for the maximal correlated decay rate
of dipole-coupled emitter arrays in free space.

Each name is imported from the module that defines it; importing the package
loads no submodule."""

__version__ = "0.1.0"
