"""Packed layouts: the vehicle state, the controller output, the telemetry row.

A layout is a schema of (field, column name) for a one-column field and
(field, [column names]) for a vector field.  The telemetry row is assembled
from the state and controller-output schemas, so reordering a block moves
its columns in the row and in every reader of the packed vector at once.
"""

import numpy as np


def _axes(prefix, labels="123"):
    return [f"{prefix}{i}" for i in labels]


def _layout(schema):
    """Column names in order, and field -> column index or column slice."""
    columns, fields = [], {}
    for name, cols in schema:
        if isinstance(cols, str):
            fields[name] = len(columns)
            columns.append(cols)
        else:
            fields[name] = slice(len(columns), len(columns) + len(cols))
            columns.extend(cols)
    return columns, fields


#: vehicle state (18,): x, v in the inertial frame [m, m/s], R body-to-inertial
#: row-major, Omega in the body frame [rad/s]
STATE_SCHEMA = (
    ("x", _axes("x")), ("v", _axes("v")),
    ("R", [f"R{i}{j}" for i in "123" for j in "123"]),
    ("Omega", _axes("Om")),
)

#: controller output of one step (35,): tracking errors, the attitude
#: configuration error, thrust and moment commands, per-rotor thrusts,
#: speeds and clip flags (1.0 when clipped), both network outputs
OUTPUT_SCHEMA = (
    ("e_x", _axes("ex")), ("e_v", _axes("ev")),
    ("e_R", _axes("eR")), ("e_Omega", _axes("eOm")),
    ("psi", "psi"), ("f", "f"),
    ("M_c", _axes("Mc")),
    ("thrusts", _axes("T", "1234")), ("omegas", _axes("omega", "1234")),
    ("saturated", _axes("sat", "1234")),
    ("delta1_hat", _axes("d1hat")), ("delta2_hat", _axes("d2hat")),
)

#: telemetry row in file order
SCHEMA = (
    (("t", "t"),) + STATE_SCHEMA + (("x_d", _axes("xd")),) + OUTPUT_SCHEMA + (
        ("W1_norm", "W1_norm"), ("V1_norm", "V1_norm"),
        ("W2_norm", "W2_norm"), ("V2_norm", "V2_norm"),
        ("V1", "V1_lyap"), ("V2", "V2_lyap"), ("V", "V_lyap"),
        ("v_w", _axes("vw")),
    )
)

STATE_COLUMNS, STATE = _layout(STATE_SCHEMA)
OUTPUT_COLUMNS, OUTPUT = _layout(OUTPUT_SCHEMA)
#: COLUMNS: telemetry column names in file order; FIELDS: field name ->
#: column index (one-column field) or slice (vector field)
COLUMNS, FIELDS = _layout(SCHEMA)


def _block(schema):
    """Row columns of a schema that SCHEMA includes whole."""
    first = FIELDS[schema[0][0]]
    start = first.start if isinstance(first, slice) else first
    return slice(start, start + len(_layout(schema)[0]))


#: where the packed state and the controller output sit in a telemetry row
ROW_STATE, ROW_OUTPUT = _block(STATE_SCHEMA), _block(OUTPUT_SCHEMA)

_X, _V, _R, _OMEGA = (STATE[name] for name in ("x", "v", "R", "Omega"))


def pack_state(x, v, R, Omega):
    """Packed (18,) state from position, velocity, 3x3 attitude, body rates."""
    s = np.empty(len(STATE_COLUMNS))
    s[_X] = x
    s[_V] = v
    s[_R] = np.ravel(R)
    s[_OMEGA] = Omega
    return s


def unpack_state(s):
    """Views (x, v, R, Omega) into a packed state, R as a 3x3 matrix."""
    return s[_X], s[_V], s[_R].reshape(3, 3), s[_OMEGA]
