"""Little's law: L = lambda * W (Little, Operations Research 1961).

Paper section 5.2 derives the average FREE-taxi queue length over a time
slot as ``L = t_wait_mean * lambda_mean`` where ``lambda_mean`` is the
average arrival rate of FREE taxis.  This helper keeps the relation in
one place so features and the conformance invariants share a single
definition.
"""

from __future__ import annotations


def little_queue_length(arrival_rate: float, mean_wait: float) -> float:
    """Average queue length ``L = lambda * W``.

    Args:
        arrival_rate: average arrivals per second (lambda).
        mean_wait: average wait per entity in seconds (W).

    Raises:
        ValueError: for negative inputs.
    """
    if arrival_rate < 0 or mean_wait < 0:
        raise ValueError("arrival rate and mean wait must be non-negative")
    return arrival_rate * mean_wait
