"""Per-cell assignment literals for tests.

Tests write a chain's values cell by cell, as the JSON payload does;
:func:`from_cells` turns them into the flat ``(CellAddress, name)`` keys
of a :class:`ParameterAssignment`.  A cell with no parameters, such as a
mix, may be written as ``{}``.
"""

from gradsynth.chains import ParameterAssignment


def from_cells(cells, connections_on=None) -> ParameterAssignment:
    """``{address: {name: value}}`` -> the assignment keyed ``(address, name)``."""
    params = {(address, name): v for address, cell in cells.items() for name, v in cell.items()}
    return ParameterAssignment(params, connections_on)
