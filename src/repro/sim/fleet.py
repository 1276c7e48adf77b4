"""The discrete-event fleet simulator.

Drives :class:`~repro.sim.taxi.TaxiAgent` objects through a simulated day:

* queue spots are two-sided FIFO matching queues (passengers on one side,
  FREE taxis on the other) with a limited number of boarding bays, so taxi
  queues and passenger queues — and the four contexts of paper Table 3 —
  emerge from arrival/service imbalance;
* demand is *pulled*: per-spot Poisson processes for passenger arrivals,
  taxi queue-joining and booking pickups (rates from
  :class:`~repro.sim.demand.DemandModel`), plus city-wide street hails and
  background bookings, are pre-generated hour by hour and recruit taxis
  from the idle pool;
* everything a taxi does is logged event-driven through its agent, then
  passed through the noise injector; only the configured observed fraction
  of taxis reaches the output store (the paper's 60% fleet coverage);
* ground truth (queue-length step functions, per-slot labels), vehicle
  monitor readings and failed bookings are captured on the side.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.types import TimeSlotGrid
from repro.geo.point import destination_point, equirectangular_m
from repro.sim.city import City
from repro.sim.config import SimulationConfig
from repro.sim.demand import DemandModel
from repro.sim.ground_truth import GroundTruth, SpotTruth, StepFunction
from repro.sim.landmarks import Landmark
from repro.sim.monitor import MonitorReading, VehicleMonitor
from repro.sim.noise import NoiseInjector
from repro.sim.taxi import TaxiAgent, TaxiStatus
from repro.states.states import TaxiState
from repro.trace.log_store import MdtLogStore
from repro.trace.record import MdtRecord


@dataclass(frozen=True)
class FailedBooking:
    """A booking request that found no available taxi in the 1 km circle."""

    ts: float
    lon: float
    lat: float


@dataclass
class SimulationOutput:
    """Everything one simulated day produces."""

    config: SimulationConfig
    city: City
    store: MdtLogStore
    """Noisy MDT logs of the *observed* fraction of the fleet."""

    ground_truth: GroundTruth
    monitor_readings: List[MonitorReading]
    failed_bookings: List[FailedBooking]
    counters: Dict[str, int] = field(default_factory=dict)


class _IdlePool:
    """Grid-bucketed pool of idle taxis with O(1) random sampling.

    Membership is kept twice: per grid cell for nearest-within queries and
    in a swap-pop list for uniform random draws (street hails).
    """

    CELL_DEG = 0.02  # ~2.2 km

    def __init__(self) -> None:
        self._cells: Dict[Tuple[int, int], Set[TaxiAgent]] = {}
        self._order: List[TaxiAgent] = []
        self._pos: Dict[TaxiAgent, int] = {}

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, taxi: TaxiAgent) -> bool:
        return taxi in self._pos

    def _key(self, lon: float, lat: float) -> Tuple[int, int]:
        return int(lon // self.CELL_DEG), int(lat // self.CELL_DEG)

    def add(self, taxi: TaxiAgent) -> None:
        if taxi in self._pos:
            return
        key = self._key(taxi.lon, taxi.lat)
        self._cells.setdefault(key, set()).add(taxi)
        taxi._pool_key = key  # type: ignore[attr-defined]
        self._pos[taxi] = len(self._order)
        self._order.append(taxi)

    def remove(self, taxi: TaxiAgent) -> None:
        if taxi not in self._pos:
            return
        key = getattr(taxi, "_pool_key", None)
        if key is not None and key in self._cells:
            self._cells[key].discard(taxi)
        i = self._pos.pop(taxi)
        last = self._order.pop()
        if last is not taxi:
            self._order[i] = last
            self._pos[last] = i

    def nearest_within(
        self, lon: float, lat: float, radius_m: float
    ) -> Optional[TaxiAgent]:
        """The idle taxi nearest to a point, if any within the radius."""
        reach = int(radius_m / 111_000.0 / self.CELL_DEG) + 1
        cx, cy = self._key(lon, lat)
        best: Optional[TaxiAgent] = None
        best_key = (radius_m, "￿")
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                for taxi in self._cells.get((gx, gy), ()):
                    d = equirectangular_m(lon, lat, taxi.lon, taxi.lat)
                    # Tie-break on taxi id: several idle taxis can sit at
                    # the exact same spot coordinates, and set iteration
                    # order must not leak into the simulation.
                    key = (d, taxi.taxi_id)
                    if key <= best_key:
                        best = taxi
                        best_key = key
        return best

    def random_member(self, rng: random.Random) -> Optional[TaxiAgent]:
        if not self._order:
            return None
        return self._order[rng.randrange(len(self._order))]


@dataclass
class _QueuedTaxi:
    taxi: TaxiAgent
    join_ts: float
    state: TaxiState  # FREE or BUSY while waiting
    offset_m: float = 0.0
    """How far down the physical waiting line the taxi joined."""


class _SpotState:
    """Runtime queue state of one ground-truth spot."""

    def __init__(self, landmark: Landmark, truth: SpotTruth, bays: int):
        self.landmark = landmark
        self.truth = truth
        self.pax: Deque[int] = deque()
        self.pax_arrival: Dict[int, float] = {}
        self.taxis: Deque[_QueuedTaxi] = deque()
        self.bay_free: List[float] = [0.0] * bays
        heapq.heapify(self.bay_free)
        self.retry_scheduled = False
        # Orientation of the physical waiting line (stable per spot).
        self.line_bearing = (landmark.lon * 7919.0 + landmark.lat * 104729.0) % 360.0


class FleetSimulator:
    """Simulates one day of city-wide taxi activity."""

    def __init__(self, config: SimulationConfig, city: Optional[City] = None):
        self.config = config
        self.city = city or City.generate(
            seed=config.seed,
            n_queue_spots=config.n_queue_spots,
            n_decoys=config.n_decoy_landmarks,
        )
        self.demand = DemandModel(config)
        # String seeds hash deterministically (SHA-512 path of random.seed),
        # unlike tuples, which raise, or hash()-based mixing, which varies
        # per process.
        self.rng = random.Random(f"{config.seed}:{config.day_index}:fleet")
        self._events: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        self.taxis: List[TaxiAgent] = []
        self.idle = _IdlePool()
        self.spots: Dict[str, _SpotState] = {}
        self.failed_bookings: List[FailedBooking] = []
        self.counters: Dict[str, int] = {
            "trips": 0,
            "spot_pickups": 0,
            "street_pickups": 0,
            "booking_pickups": 0,
            "noshows": 0,
            "taxi_reneges": 0,
            "pax_abandons": 0,
            "supply_shortages": 0,
            "poached": 0,
        }
        self._pax_counter = itertools.count()
        if config.use_road_network:
            from repro.sim.roads import RoadNetwork

            self.roads = RoadNetwork(
                self.city, spacing_m=config.road_spacing_m, seed=config.seed
            )
        else:
            self.roads = None
        # Route street hails to hotspots at a probability that keeps the
        # expected per-hotspot volume *fleet-independent* (~55 true
        # pickups/day: visible at Fig. 6's permissive DBSCAN settings,
        # below the minPts=50 operating point at 60% observation).
        expected_street = sum(
            self.demand.street_hail_rate(zone.name, hour) * 3600.0
            for zone in self.city.zones
            for hour in range(24)
        )
        n_hotspots = len(self.city.hail_hotspots)
        if expected_street > 0 and n_hotspots > 0:
            self._hotspot_prob = min(
                0.5, (n_hotspots * 55.0) / expected_street
            )
        else:
            self._hotspot_prob = 0.0

    # -- event machinery -------------------------------------------------------

    def _schedule(self, ts: float, handler: Callable[[float], None]) -> None:
        if ts < self.config.day_end_ts + 3600.0:
            heapq.heappush(self._events, (ts, next(self._seq), handler))

    # -- setup -----------------------------------------------------------------

    def _setup_taxis(self) -> None:
        cfg = self.config
        day0 = cfg.day_start_ts
        for i in range(cfg.fleet_size):
            rng = random.Random(f"{cfg.seed}:{cfg.day_index}:taxi:{i}")
            lon, lat = self.city.random_land_point(rng)
            taxi = TaxiAgent(f"SH{i:04d}A", lon, lat, cfg, rng)
            self.taxis.append(taxi)
            roll = rng.random()
            shifts: List[Tuple[float, float]] = []
            if roll < 0.70:  # day shift
                shifts.append(
                    (
                        day0 + rng.uniform(5.0, 8.0) * 3600.0,
                        day0 + rng.uniform(21.0, 23.8) * 3600.0,
                    )
                )
            elif roll < 0.90:  # night shift: early-morning and evening legs
                shifts.append((day0 + 60.0, day0 + rng.uniform(8.0, 10.0) * 3600.0))
                shifts.append(
                    (day0 + rng.uniform(16.0, 19.0) * 3600.0, day0 + 86400.0)
                )
            else:  # all-day
                shifts.append((day0 + rng.uniform(0.0, 1.0) * 3600.0, day0 + 86400.0))
            for start, end in shifts:
                self._schedule(start, self._make_power_on(taxi, until=end))
                self._schedule(end, self._make_shift_end(taxi))
            first_start = shifts[0][0]
            if rng.random() < 0.4:
                taxi.pending_break_s = rng.uniform(1200.0, 3600.0)
                self._schedule(
                    first_start + rng.uniform(3.0, 8.0) * 3600.0,
                    self._make_break(taxi),
                )

    def _make_power_on(self, taxi: TaxiAgent, until: float):
        def handler(ts: float) -> None:
            if taxi.status is not TaxiStatus.OFF_DUTY:
                return
            taxi.shift_end_ts = until
            taxi.power_on(ts)
            self.idle.add(taxi)

        return handler

    def _make_shift_end(self, taxi: TaxiAgent):
        def handler(ts: float) -> None:
            if taxi.status is TaxiStatus.IDLE and ts >= taxi.shift_end_ts - 1.0:
                self.idle.remove(taxi)
                taxi.power_off(ts)

        return handler

    def _make_break(self, taxi: TaxiAgent):
        def handler(ts: float) -> None:
            if taxi.status is not TaxiStatus.IDLE or taxi.pending_break_s <= 0:
                return
            self.idle.remove(taxi)
            duration = taxi.pending_break_s
            taxi.pending_break_s = 0.0
            end = taxi.take_break(ts, duration)
            self._schedule(end, lambda t: self._return_to_service(taxi, t))

        return handler

    def _setup_spots(self) -> None:
        grid = TimeSlotGrid.for_day(
            self.config.day_start_ts, self.config.slot_seconds
        )
        self.grid = grid
        day0 = self.config.day_start_ts
        for landmark in self.city.queue_spot_landmarks:
            truth = SpotTruth(
                spot_id=landmark.landmark_id,
                landmark=landmark,
                taxi_queue=StepFunction(day0),
                pax_queue=StepFunction(day0),
            )
            bays = self.demand.spot_rates(landmark, 12).bays
            self.spots[landmark.landmark_id] = _SpotState(landmark, truth, bays)

    def _pregenerate_demand(self) -> None:
        """Pre-generate all Poisson demand events hour by hour.

        Rates are piecewise-constant per hour, so sampling a Poisson count
        per hour and spreading the events uniformly is exact.
        """
        rng = random.Random(f"{self.config.seed}:{self.config.day_index}:demand")
        day0 = self.config.day_start_ts
        for hour in range(24):
            t_lo = day0 + hour * 3600.0
            for spot in self.spots.values():
                rates = self.demand.spot_rates(spot.landmark, hour)
                for ts in _poisson_times(rng, rates.pax_per_s, t_lo, 3600.0):
                    self._schedule(ts, self._make_pax_arrival(spot))
                for ts in _poisson_times(rng, rates.taxi_per_s, t_lo, 3600.0):
                    self._schedule(ts, self._make_taxi_seek(spot))
                for ts in _poisson_times(rng, rates.booking_per_s, t_lo, 3600.0):
                    self._schedule(ts, self._make_spot_booking(spot))
            for zone in self.city.zones:
                rate = self.demand.street_hail_rate(zone.name, hour)
                for ts in _poisson_times(rng, rate, t_lo, 3600.0):
                    self._schedule(ts, self._make_street_hail(zone.name))
            bg = self.demand.background_booking_rate(hour)
            for ts in _poisson_times(rng, bg, t_lo, 3600.0):
                self._schedule(ts, self._background_booking)

    def _drive(
        self,
        taxi: TaxiAgent,
        t0: float,
        to_lon: float,
        to_lat: float,
        state: TaxiState,
        allow_jam: bool = False,
    ) -> float:
        """Drive a taxi to a destination; returns the arrival timestamp.

        Routes over the road network when enabled, straight-line
        otherwise; records are emitted either way.
        """
        if self.roads is not None:
            waypoints, seconds = self.roads.travel(
                taxi.lon, taxi.lat, to_lon, to_lat,
                self.config.drive_speed_kmh,
            )
            arrive = t0 + seconds
            taxi.emit_drive_route(t0, arrive, waypoints, state)
            return arrive
        arrive = t0 + taxi.travel_time_s(to_lon, to_lat)
        taxi.emit_drive(t0, arrive, to_lon, to_lat, state, allow_jam=allow_jam)
        return arrive

    # -- queue-spot handlers ------------------------------------------------------

    def _make_pax_arrival(self, spot: _SpotState):
        def handler(ts: float) -> None:
            pax_id = next(self._pax_counter)
            spot.pax.append(pax_id)
            spot.pax_arrival[pax_id] = ts
            spot.truth.pax_queue.add(ts, +1)
            patience = self.rng.expovariate(
                1.0 / self.config.passenger_patience_s
            )
            self._schedule(
                ts + patience, lambda t: self._pax_abandon(spot, pax_id, t)
            )
            self._try_match(spot, ts)

        return handler

    def _pax_abandon(self, spot: _SpotState, pax_id: int, ts: float) -> None:
        if pax_id in spot.pax_arrival and pax_id in spot.pax:
            spot.pax.remove(pax_id)
            del spot.pax_arrival[pax_id]
            spot.truth.pax_queue.add(ts, -1)
            self.counters["pax_abandons"] += 1

    def _make_taxi_seek(self, spot: _SpotState):
        def handler(ts: float) -> None:
            lm = spot.landmark
            taxi = self.idle.nearest_within(lm.lon, lm.lat, 8000.0)
            if taxi is None:
                self.counters["supply_shortages"] += 1
                return
            self._claim(taxi, ts)
            busy = self.rng.random() < self.config.busy_cherry_pick_prob
            arrive = self._drive(
                taxi, ts, lm.lon, lm.lat, TaxiState.FREE, allow_jam=True
            )
            self._schedule(arrive, lambda t: self._spot_join(spot, taxi, busy, t))

        return handler

    def _spot_join(
        self, spot: _SpotState, taxi: TaxiAgent, busy: bool, ts: float
    ) -> None:
        state = TaxiState.BUSY if busy else TaxiState.FREE
        offset = 5.0 + 7.0 * len(spot.taxis) + self.rng.uniform(0.0, 4.0)
        entry = _QueuedTaxi(
            taxi=taxi, join_ts=ts, state=state, offset_m=min(offset, 45.0)
        )
        spot.taxis.append(entry)
        spot.truth.taxi_queue.add(ts, +1)
        patience = self.rng.expovariate(1.0 / self.config.taxi_queue_patience_s)
        self._schedule(
            ts + patience, lambda t: self._taxi_renege(spot, entry, t)
        )
        self._try_match(spot, ts)

    def _taxi_renege(self, spot: _SpotState, entry: _QueuedTaxi, ts: float) -> None:
        if entry not in spot.taxis:
            return
        spot.taxis.remove(entry)
        spot.truth.taxi_queue.add(ts, -1)
        self.counters["taxi_reneges"] += 1
        lm = spot.landmark
        # Crawl records with an unchanged state: PEA must discard these.
        entry.taxi.emit_crawl(
            lm.lon, lm.lat, entry.join_ts, ts, [(entry.join_ts, entry.state)],
            line_bearing_deg=spot.line_bearing, start_offset_m=entry.offset_m,
        )
        if entry.state is TaxiState.BUSY:
            entry.taxi.log(ts + 5.0, lm.lon, lm.lat, 0.0, TaxiState.FREE)
        self._schedule(
            ts + 10.0, lambda t: self._return_to_service(entry.taxi, t)
        )

    def _try_match(self, spot: _SpotState, ts: float) -> None:
        while spot.pax and spot.taxis:
            bay_free = spot.bay_free[0]
            if bay_free > ts + 1.0:
                if not spot.retry_scheduled:
                    spot.retry_scheduled = True
                    self._schedule(bay_free, lambda t: self._match_retry(spot, t))
                return
            heapq.heappop(spot.bay_free)
            start = ts  # bay is free now (or within the 1 s tolerance)
            pax_id = spot.pax.popleft()
            del spot.pax_arrival[pax_id]
            entry = spot.taxis.popleft()
            spot.truth.pax_queue.add(start, -1)
            spot.truth.taxi_queue.add(start, -1)
            duration = min(
                180.0,
                max(15.0, self.rng.expovariate(1.0 / self.config.boarding_mean_s)),
            )
            end = start + duration
            heapq.heappush(spot.bay_free, end)
            self._schedule(
                end, lambda t, e=entry: self._pickup_depart(spot, e, t)
            )

    def _match_retry(self, spot: _SpotState, ts: float) -> None:
        spot.retry_scheduled = False
        self._try_match(spot, ts)

    def _pickup_depart(
        self, spot: _SpotState, entry: _QueuedTaxi, ts: float
    ) -> None:
        lm = spot.landmark
        taxi = entry.taxi
        # Crawl from queue join until boarding completes, then POB.
        taxi.emit_crawl(
            lm.lon, lm.lat, entry.join_ts, ts - 2.0,
            [(entry.join_ts, entry.state)],
            line_bearing_deg=spot.line_bearing, start_offset_m=entry.offset_m,
        )
        taxi.log(ts, lm.lon, lm.lat, self.rng.uniform(1.0, 6.0), TaxiState.POB)
        spot.truth.pickups += 1
        self.counters["spot_pickups"] += 1
        self._start_trip(taxi, ts + 15.0)

    # -- bookings ----------------------------------------------------------------

    def _make_spot_booking(self, spot: _SpotState):
        def handler(ts: float) -> None:
            lm = spot.landmark
            self._dispatch_booking(ts, lm.lon, lm.lat, at_spot=spot)

        return handler

    def _background_booking(self, ts: float) -> None:
        rng = self.rng
        if rng.random() < 0.3 and self.city.landmarks:
            lm = rng.choice(self.city.landmarks)
            bearing = rng.uniform(0.0, 360.0)
            lon, lat = destination_point(
                lm.lon, lm.lat, bearing, rng.uniform(50.0, 500.0)
            )
            lon, lat = self.city.bbox.clamp(lon, lat)
        else:
            lon, lat = self.city.random_land_point(rng)
        self._dispatch_booking(ts, lon, lat, at_spot=None)

    def _dispatch_booking(
        self,
        ts: float,
        lon: float,
        lat: float,
        at_spot: Optional[_SpotState],
    ) -> None:
        radius = self.config.dispatch_radius_m
        taxi = self.idle.nearest_within(lon, lat, radius)
        if taxi is not None:
            self._claim(taxi, ts)
            taxi.log(ts, taxi.lon, taxi.lat, 0.0, TaxiState.ONCALL)
        else:
            taxi = self._poach_queued_taxi(ts, lon, lat, radius)
            if taxi is None:
                # No taxi inside the 1 km dispatch circle: the request
                # fails (paper section 6.2.2's failed-booking definition).
                self.failed_bookings.append(FailedBooking(ts, lon, lat))
                # Most passengers re-book; a taxi from further out often
                # accepts the retry, producing the ONCALL departures that
                # QCD's Routine 2 keys on during passenger-queue periods.
                if self.rng.random() < self.config.booking_retry_prob:
                    taxi = self.idle.nearest_within(lon, lat, 4.0 * radius)
                if taxi is None:
                    return
                self._claim(taxi, ts + 30.0)
                taxi.log(ts + 30.0, taxi.lon, taxi.lat, 0.0, TaxiState.ONCALL)
        arrive = self._drive(
            taxi, ts, lon, lat, TaxiState.ONCALL, allow_jam=True
        )
        self._schedule(
            arrive,
            lambda t: self._booking_arrived(taxi, lon, lat, at_spot, t),
        )

    def _poach_queued_taxi(
        self, ts: float, lon: float, lat: float, radius: float
    ) -> Optional[TaxiAgent]:
        """Pull the tail taxi out of a nearby spot queue for a booking.

        Produces the FREE -> ONCALL sub-trajectories that PEA rule 2 must
        discard (the taxi leaves the spot without a pickup there).
        """
        if self.rng.random() > self.config.queue_poach_prob * 10.0:
            return None
        for spot in self.spots.values():
            lm = spot.landmark
            if equirectangular_m(lon, lat, lm.lon, lm.lat) > radius:
                continue
            for entry in reversed(spot.taxis):
                if entry.state is TaxiState.FREE:
                    spot.taxis.remove(entry)
                    spot.truth.taxi_queue.add(ts, -1)
                    self.counters["poached"] += 1
                    entry.taxi.emit_crawl(
                        lm.lon, lm.lat, entry.join_ts, ts,
                        [(entry.join_ts, TaxiState.FREE)],
                        line_bearing_deg=spot.line_bearing,
                        start_offset_m=entry.offset_m,
                    )
                    entry.taxi.log(
                        ts + 2.0, lm.lon, lm.lat, 0.0, TaxiState.ONCALL
                    )
                    return entry.taxi
        return None

    def _booking_arrived(
        self,
        taxi: TaxiAgent,
        lon: float,
        lat: float,
        at_spot: Optional[_SpotState],
        ts: float,
    ) -> None:
        rng = self.rng
        taxi.log(ts, lon, lat, rng.uniform(1.0, 6.0), TaxiState.ARRIVED)
        if rng.random() < self.config.booking_noshow_prob:
            wait = rng.uniform(300.0, 900.0)
            taxi.emit_crawl(lon, lat, ts, ts + wait, [(ts, TaxiState.ARRIVED)])
            taxi.log(ts + wait + 2.0, lon, lat, 0.0, TaxiState.NOSHOW)
            taxi.log(ts + wait + 8.0, lon, lat, 0.0, TaxiState.FREE)
            self.counters["noshows"] += 1
            # Scheduled, not called: the taxi must not re-enter the idle
            # pool before its already-logged future records have elapsed.
            self._schedule(
                ts + wait + 20.0, lambda t: self._return_to_service(taxi, t)
            )
            return
        board = ts + rng.uniform(20.0, 120.0)
        taxi.emit_crawl(lon, lat, ts, board - 2.0, [(ts, TaxiState.ARRIVED)])
        taxi.log(board, lon, lat, rng.uniform(1.0, 6.0), TaxiState.POB)
        self.counters["booking_pickups"] += 1
        if at_spot is not None:
            at_spot.truth.pickups += 1
        self._start_trip(taxi, board + 15.0)

    # -- street hails ---------------------------------------------------------------

    def _make_street_hail(self, zone_name: str):
        def handler(ts: float) -> None:
            taxi = self._random_idle_in_zone(zone_name)
            if taxi is None:
                self.counters["supply_shortages"] += 1
                return
            self._claim(taxi, ts)
            rng = self.rng
            if self.city.hail_hotspots and rng.random() < self._hotspot_prob:
                # Popular roadside stretches: hails cluster loosely there,
                # which is what makes Fig. 6's small-minPts settings admit
                # insignificant spots.
                hlon, hlat = rng.choice(self.city.hail_hotspots)
                lon, lat = destination_point(
                    hlon, hlat, rng.uniform(0.0, 360.0),
                    abs(rng.gauss(0.0, 12.0)),
                )
            else:
                bearing = rng.uniform(0.0, 360.0)
                lon, lat = destination_point(
                    taxi.lon, taxi.lat, bearing, rng.uniform(100.0, 1500.0)
                )
            lon, lat = self.city.bbox.clamp(lon, lat)
            arrive = ts + taxi.travel_time_s(lon, lat)
            taxi.emit_drive(ts, arrive, lon, lat, TaxiState.FREE)
            # Quick roadside pickup: two low-speed records, FREE then POB.
            taxi.log(arrive, lon, lat, rng.uniform(2.0, 7.0), TaxiState.FREE)
            board = arrive + rng.uniform(15.0, 40.0)
            taxi.log(board, lon, lat, rng.uniform(1.0, 6.0), TaxiState.POB)
            self.counters["street_pickups"] += 1
            self._start_trip(taxi, board + 10.0)

        return handler

    def _random_idle_in_zone(self, zone_name: str) -> Optional[TaxiAgent]:
        for _ in range(12):
            taxi = self.idle.random_member(self.rng)
            if taxi is None:
                return None
            if self.city.zone_of(taxi.lon, taxi.lat) == zone_name:
                return taxi
        return None

    # -- trips ------------------------------------------------------------------------

    def _start_trip(self, taxi: TaxiAgent, ts: float) -> None:
        rng = self.rng
        dest = self._sample_destination(rng, taxi.lon, taxi.lat)
        self.counters["trips"] += 1
        if self.roads is not None:
            arrive = self._trip_via_roads(taxi, ts, dest)
            self._schedule(arrive, lambda t: self._dropoff(taxi, t))
            return
        arrive = ts + taxi.travel_time_s(*dest)
        stc_at = arrive - 60.0
        if rng.random() < 0.7 and stc_at > ts + 60.0:
            # Drive in POB until pressing STC, then STC for the last minute.
            mid = self._interp(taxi.lon, taxi.lat, dest, (stc_at - ts) / (arrive - ts))
            taxi.emit_drive(ts, stc_at, mid[0], mid[1], TaxiState.POB, allow_jam=True)
            taxi.log(stc_at, mid[0], mid[1], rng.gauss(38.0, 5.0), TaxiState.STC)
            taxi.emit_drive(stc_at, arrive, dest[0], dest[1], TaxiState.STC)
        else:
            taxi.emit_drive(ts, arrive, dest[0], dest[1], TaxiState.POB, allow_jam=True)
        self._schedule(arrive, lambda t: self._dropoff(taxi, t))

    def _trip_via_roads(
        self, taxi: TaxiAgent, ts: float, dest: Tuple[float, float]
    ) -> float:
        """A POB trip along the road network, pressing STC near the end."""
        from repro.sim.roads import split_polyline

        rng = self.rng
        waypoints, seconds = self.roads.travel(
            taxi.lon, taxi.lat, dest[0], dest[1], self.config.drive_speed_kmh
        )
        arrive = ts + seconds
        stc_fraction = 1.0 - 60.0 / seconds if seconds > 120.0 else None
        if stc_fraction and rng.random() < 0.7:
            head, tail = split_polyline(waypoints, stc_fraction)
            stc_at = ts + seconds * stc_fraction
            taxi.emit_drive_route(ts, stc_at, head, TaxiState.POB)
            taxi.log(
                stc_at, taxi.lon, taxi.lat, rng.gauss(38.0, 5.0),
                TaxiState.STC,
            )
            taxi.emit_drive_route(stc_at, arrive, tail, TaxiState.STC)
        else:
            taxi.emit_drive_route(ts, arrive, waypoints, TaxiState.POB)
        return arrive

    @staticmethod
    def _interp(
        lon: float, lat: float, dest: Tuple[float, float], frac: float
    ) -> Tuple[float, float]:
        return lon + (dest[0] - lon) * frac, lat + (dest[1] - lat) * frac

    def _sample_destination(
        self, rng: random.Random, from_lon: float, from_lat: float
    ) -> Tuple[float, float]:
        """Trip destination with realistic exponential leg lengths.

        Urban taxi trips are short-haul (a few km); sampling the distance
        as ``800 m + Exp(mean 4.5 km)`` keeps the fleet's trip capacity at
        city scale instead of criss-crossing the 50 km island.  A minority
        of trips end right at a landmark, feeding the idle pool near spots.
        """
        for _ in range(50):
            dist = 800.0 + rng.expovariate(1.0 / 4500.0)
            bearing = rng.uniform(0.0, 360.0)
            lon, lat = destination_point(from_lon, from_lat, bearing, dist)
            if rng.random() < 0.25 and self.city.landmarks:
                lm = min(
                    rng.sample(self.city.landmarks, min(4, len(self.city.landmarks))),
                    key=lambda m: equirectangular_m(lon, lat, m.lon, m.lat),
                )
                off = rng.uniform(60.0, 400.0)
                lon, lat = destination_point(
                    lm.lon, lm.lat, rng.uniform(0.0, 360.0), off
                )
            if self.city.is_accessible(lon, lat):
                return lon, lat
        return self.city.random_land_point(rng)

    def _dropoff(self, taxi: TaxiAgent, ts: float) -> None:
        rng = self.rng
        last_state = taxi.records[-1].state if taxi.records else TaxiState.POB
        taxi.log(ts, taxi.lon, taxi.lat, rng.uniform(2.0, 7.0), last_state)
        taxi.log(ts + 10.0, taxi.lon, taxi.lat, 0.0, TaxiState.PAYMENT)
        pay = rng.uniform(20.0, 90.0)
        taxi.log(ts + 10.0 + pay, taxi.lon, taxi.lat, 0.0, TaxiState.FREE)
        self._schedule(
            ts + 15.0 + pay, lambda t: self._return_to_service(taxi, t)
        )

    # -- common bookkeeping --------------------------------------------------------------

    def _claim(self, taxi: TaxiAgent, ts: float) -> None:
        """Remove a taxi from the idle pool and flush its cruise records."""
        self.idle.remove(taxi)
        taxi.end_idle(ts)
        taxi.status = TaxiStatus.BUSY

    def _return_to_service(self, taxi: TaxiAgent, ts: float) -> None:
        """Taxi finished an activity: go off duty, on break, or idle."""
        if ts >= taxi.shift_end_ts or ts >= self.config.day_end_ts:
            taxi.status = TaxiStatus.BUSY
            taxi.power_off(min(ts, self.config.day_end_ts - 1.0))
            return
        taxi.status = TaxiStatus.IDLE
        taxi.begin_idle(ts)
        self.idle.add(taxi)

    # -- run ---------------------------------------------------------------------------------

    def run(self) -> SimulationOutput:
        """Simulate the configured day and assemble the output bundle."""
        cfg = self.config
        self._setup_spots()
        self._setup_taxis()
        self._pregenerate_demand()

        day_end = cfg.day_end_ts
        while self._events:
            ts, _, handler = heapq.heappop(self._events)
            if ts >= day_end:
                break
            handler(ts)

        self._finalize_day(day_end)

        grid = self.grid
        truth_spots: Dict[str, SpotTruth] = {}
        for spot in self.spots.values():
            spot.truth.finalize(
                grid, cfg.truth_taxi_queue_len, cfg.truth_pax_queue_len
            )
            truth_spots[spot.truth.spot_id] = spot.truth
        ground_truth = GroundTruth(grid=grid, spots=truth_spots)

        monitor = VehicleMonitor(cfg.monitor_interval_s)
        readings: List[MonitorReading] = []
        for truth in truth_spots.values():
            readings.extend(monitor.observe(truth, cfg.day_start_ts, day_end))

        store = self._build_store()
        return SimulationOutput(
            config=cfg,
            city=self.city,
            store=store,
            ground_truth=ground_truth,
            monitor_readings=readings,
            failed_bookings=self.failed_bookings,
            counters=dict(self.counters),
        )

    def _finalize_day(self, day_end: float) -> None:
        """Drain queues and close every taxi's day at the horizon."""
        for spot in self.spots.values():
            lm = spot.landmark
            while spot.taxis:
                entry = spot.taxis.popleft()
                spot.truth.taxi_queue.add(day_end - 1.0, -1)
                leave = max(entry.join_ts + 5.0, day_end - 60.0)
                entry.taxi.emit_crawl(
                    lm.lon, lm.lat, entry.join_ts, leave,
                    [(entry.join_ts, entry.state)],
                    line_bearing_deg=spot.line_bearing,
                    start_offset_m=entry.offset_m,
                )
            while spot.pax:
                pax_id = spot.pax.popleft()
                del spot.pax_arrival[pax_id]
                spot.truth.pax_queue.add(day_end - 1.0, -1)
        for taxi in self.taxis:
            if taxi.status is TaxiStatus.IDLE:
                self.idle.remove(taxi)
                # Never power off earlier than already-logged records
                # (a late dropoff logs its FREE a minute into the future).
                last_ts = taxi.records[-1].ts if taxi.records else day_end
                taxi.power_off(max(day_end - 30.0, last_ts + 5.0))

    def _build_store(self) -> MdtLogStore:
        """Noise-inject every observed taxi's records and build the store."""
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:{cfg.day_index}:observe")
        observed = {
            taxi.taxi_id
            for taxi in self.taxis
            if rng.random() < cfg.observed_fraction
        }
        injector = NoiseInjector(cfg.noise, seed=cfg.seed * 7919 + cfg.day_index)

        def noisy_records() -> Iterator[MdtRecord]:
            for taxi in self.taxis:
                if taxi.taxi_id not in observed or not taxi.records:
                    continue
                taxi.records.sort(key=lambda r: r.ts)
                yield from injector.apply(taxi.records)

        # Packed into columns as they are made: no row outlives its taxi.
        return MdtLogStore(noisy_records())


def _poisson_times(
    rng: random.Random, rate_per_s: float, t_lo: float, span_s: float
) -> List[float]:
    """Event times of a constant-rate Poisson process over a window."""
    if rate_per_s <= 0:
        return []
    expected = rate_per_s * span_s
    n = _poisson_sample(rng, expected)
    return sorted(t_lo + rng.random() * span_s for _ in range(n))


def _poisson_sample(rng: random.Random, mean: float) -> int:
    """Draw from a Poisson distribution (Knuth for small, normal for large)."""
    if mean <= 0:
        return 0
    if mean > 50.0:
        return max(0, int(round(rng.gauss(mean, mean**0.5))))
    limit = 2.718281828459045 ** (-mean)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def simulate_day(
    config: SimulationConfig, city: Optional[City] = None
) -> SimulationOutput:
    """Convenience wrapper: build a simulator, run it, return its output."""
    return FleetSimulator(config, city=city).run()
