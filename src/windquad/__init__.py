"""Quadrotor simulation with geometric adaptive control under wind."""

from .adaptive import (AdaptationGains, NNWeights, build_attitude_input,
                       build_position_input, nn_output, project_to_ball,
                       sigmoid_features, update_weights)
from .aero import (RotorAeroParams, advance_ratios, drag_force,
                   flap_direction, resultant_wrench, rotor_relative_wind,
                   solve_thrust_inflow, torque_coefficient)
from .config import (SimConfig, calibrate_simplified, default_config_text,
                     load_config)
from .controller import (ControlCommand, ControllerGains,
                         GeometricAdaptiveController, TrajectoryPoint,
                         compute_A, compute_Omega_c, compute_Rc,
                         compute_moment, compute_thrust, mixing_matrix)
from .dynamics import (QuadParams, RigidBodyState, SimplifiedModelParams,
                       rotor_speed_from_thrust, simplified_wrench,
                       state_derivative, step_rk4)
from .scenarios import TrajectoryGenerator, WindField, trajectory_at, wind_at
from .se3 import (angular_velocity_error, attitude_error, euler_zyx, expm_so3,
                  hat, orthonormalize, rotation_zyx, vee)
from .sim import (COLUMNS, FIELDS, SimResult, read_csv, run_simulation,
                  summarize, write_csv, write_summary)
from .stability import (BoundAssumptions, LyapunovReport, build_pd_matrices,
                        format_report, lyapunov_value, set_d_functional,
                        thrust_mismatch_term, ultimate_bound, validate_c1,
                        validate_c2)

__version__ = "0.1.0"
