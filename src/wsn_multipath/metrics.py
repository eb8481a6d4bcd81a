"""Closed-form per-path delay, energy and energy-delay-product models.

Pure scalar functions. Hop counts are accepted as floats so the same
expressions evaluate the fleet-average budget (which uses the arithmetic
mean hop count) as well as individual integer-hop paths.
"""

from __future__ import annotations

from .model import DomainError, NetworkParams


def path_delay(packets: float, tau_s: float, hops: float) -> float:
    """Total seconds to push `packets` over `hops` hops at tau seconds each."""
    if packets < 0 or tau_s < 0 or hops < 0:
        raise DomainError("packets, tau and hops must be >= 0")
    return packets * tau_s * hops


def transmit_energy_per_bit(params: NetworkParams, distance_m: float) -> float:
    """Joules to transmit one bit over `distance_m`: electronics plus the
    distance-loss amplifier term, scaled by the per-bit transmit time."""
    if distance_m <= 0:
        raise DomainError(f"distance must be positive, got {distance_m!r}")
    if distance_m > params.radio_range_m:
        raise DomainError(
            f"distance {distance_m} m exceeds radio range {params.radio_range_m} m")
    rate = params.tx_electronics_w + params.tx_amp_w_per_mk * distance_m ** params.path_loss_exp
    return rate * params.tx_bit_time_s


def receive_energy_per_bit(params: NetworkParams) -> float:
    """Joules to receive one bit."""
    return params.rx_electronics_w * params.rx_bit_time_s


def path_energy(params: NetworkParams, packets: float, hops: float,
                source_sink_dist_m: float) -> float:
    """Joules dissipated along one path to carry `packets`.

    Per-bit transmit cost is evaluated at the average inter-hop distance
    (straight-line source-sink distance / hops). Every node on the path
    (hops + 1 of them) relays the data and pays one sensing share.
    """
    if hops <= 0:
        raise DomainError(f"hops must be positive, got {hops!r}")
    if packets < 0:
        raise DomainError(f"packets must be >= 0, got {packets!r}")
    if source_sink_dist_m <= 0:
        raise DomainError(f"distance must be positive, got {source_sink_dist_m!r}")
    per_bit = (transmit_energy_per_bit(params, source_sink_dist_m / hops)
               + receive_energy_per_bit(params))
    nodes = hops + 1.0
    return per_bit * packets * params.packet_size_bits * nodes + params.sensing_w * nodes


def path_edp(params: NetworkParams, packets: float, hops: float, tau_s: float,
             source_sink_dist_m: float) -> float:
    """Energy-delay product of a path; quadratic in the packet count."""
    return (path_energy(params, packets, hops, source_sink_dist_m)
            * path_delay(packets, tau_s, hops))


def average_edp(params: NetworkParams, total_packets: float, n_paths: int,
                h_avg: float, tau_avg: float, source_sink_dist_m: float) -> float:
    """Energy-delay product of the equal-split strategy evaluated at the
    fleet averages; the allocator's per-path budget."""
    if n_paths < 1:
        raise DomainError(f"need at least one path, got {n_paths!r}")
    share = total_packets / n_paths
    return path_edp(params, share, h_avg, tau_avg, source_sink_dist_m)


def edp_coefficients(params: NetworkParams, hops: float, tau_s: float,
                     source_sink_dist_m: float) -> tuple[float, float]:
    """Coefficients (a, b) of the path EDP as a*packets**2 + b*packets."""
    per_bit = (transmit_energy_per_bit(params, source_sink_dist_m / hops)
               + receive_energy_per_bit(params))
    nodes = hops + 1.0
    per_packet_delay = tau_s * hops
    a = per_bit * params.packet_size_bits * nodes * per_packet_delay
    b = params.sensing_w * nodes * per_packet_delay
    return a, b


__all__ = [
    "average_edp", "edp_coefficients", "path_delay", "path_edp",
    "path_energy", "receive_energy_per_bit",
    "transmit_energy_per_bit",
]
