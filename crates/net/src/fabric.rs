//! The message fabric: endpoints, latency, in-order delivery.

use crate::accounting::BandwidthAccountant;
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, FaultStats};
use escra_simcore::events::EventQueue;
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// An opaque endpoint address on the simulated control-plane network.
///
/// Addresses are handed out by [`Network::register`]; higher layers map
/// them to the Controller, per-node Agents, and per-container kernel
/// sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Addr(u64);

impl Addr {
    /// Raw numeric form, useful as a map key or RNG stream label.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Builds an address from its raw numeric form.
    ///
    /// Embeddings that assign well-known addresses (e.g. "controller is
    /// address 0, node *n* is address 1 + *n*") use this instead of
    /// [`Network::register`]; a [`FaultPlan`] can then name endpoints
    /// without holding a `Network`.
    pub const fn from_raw(raw: u64) -> Self {
        Addr(raw)
    }
}

/// One-way delivery latency: a fixed base plus uniform jitter in
/// `[0, jitter]`.
///
/// Defaults model a single-datacenter control plane: 250 µs base,
/// 100 µs jitter — consistent with the paper's claim that limits are
/// applied "on the order of 100s of microseconds".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencyModel {
    /// Fixed one-way delay component.
    pub base: SimDuration,
    /// Upper bound of the uniform jitter added to `base`.
    pub jitter: SimDuration,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base: SimDuration::from_micros(250),
            jitter: SimDuration::from_micros(100),
        }
    }
}

impl LatencyModel {
    /// A zero-latency model (useful in unit tests).
    pub fn zero() -> Self {
        LatencyModel {
            base: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
        }
    }

    /// Samples one one-way delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.jitter.is_zero() {
            self.base
        } else {
            self.base + SimDuration::from_micros(rng.next_below(self.jitter.as_micros() + 1))
        }
    }
}

/// An in-flight message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Sender address.
    pub from: Addr,
    /// Recipient address.
    pub to: Addr,
    /// The payload.
    pub message: M,
}

/// A simulated control-plane network, generic over the message type.
///
/// Messages are delayed by the [`LatencyModel`], delivered in
/// deterministic (time, FIFO) order, and have their wire size charged to
/// a [`BandwidthAccountant`].
///
/// ```
/// use escra_net::{LatencyModel, Network};
/// use escra_simcore::time::SimTime;
///
/// let mut net: Network<&str> = Network::new(LatencyModel::default(), 42);
/// let a = net.register();
/// let b = net.register();
/// net.send(SimTime::ZERO, a, b, "hello", 64);
/// let delivered = net.poll(SimTime::from_millis(1));
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].1.message, "hello");
/// ```
#[derive(Debug)]
pub struct Network<M> {
    latency: LatencyModel,
    rng: SimRng,
    queue: EventQueue<Delivery<M>>,
    next_addr: u64,
    accountant: BandwidthAccountant,
    faults: FaultInjector,
}

impl<M> Network<M> {
    /// Creates a network with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Network::with_faults(latency, seed, FaultPlan::none())
    }

    /// Creates a network that additionally injects the faults described
    /// by `plan`.
    ///
    /// The injector draws from its own RNG fork of `seed`, and the
    /// empty plan consumes no draws at all — so
    /// `with_faults(l, s, FaultPlan::none())` is bit-identical to
    /// `new(l, s)`.
    pub fn with_faults(latency: LatencyModel, seed: u64, plan: FaultPlan) -> Self {
        Network {
            latency,
            rng: SimRng::new(seed).fork(0x006e_6574), // "net"
            queue: EventQueue::new(),
            next_addr: 0,
            accountant: BandwidthAccountant::new(),
            faults: FaultInjector::new(plan, seed),
        }
    }

    /// Allocates a fresh endpoint address.
    pub fn register(&mut self) -> Addr {
        let a = Addr(self.next_addr);
        self.next_addr += 1;
        a
    }

    /// Pops every message due at or before `now`, in delivery order.
    pub fn poll(&mut self, now: SimTime) -> Vec<(SimTime, Delivery<M>)> {
        let mut out = Vec::new();
        while let Some(item) = self.queue.pop_due(now) {
            out.push(item);
        }
        out
    }

    /// Number of messages in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The wire-byte accountant (for the network-overhead experiment).
    pub fn accountant(&self) -> &BandwidthAccountant {
        &self.accountant
    }

    /// The fault plan in force (`FaultPlan::none()` by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// Counters of injected faults so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }
}

impl<M: Clone> Network<M> {
    /// Sends `message` of `wire_bytes` from `from` to `to` at time `now`;
    /// it will be delivered after a sampled one-way latency, subject to
    /// the network's [`FaultPlan`].
    ///
    /// Wire bytes are charged even for dropped messages — the sender
    /// still put them on the wire. A dropped message consumes no latency
    /// draw; a duplicated one gets an independent latency per copy. With
    /// the empty plan this samples exactly one latency, matching the
    /// faultless network draw for draw.
    pub fn send(&mut self, now: SimTime, from: Addr, to: Addr, message: M, wire_bytes: u64) {
        self.accountant.record(now, wire_bytes);
        match self.faults.decide(now, from, to) {
            FaultDecision::Drop => {}
            FaultDecision::Deliver {
                copies,
                extra_delay,
            } => {
                for _ in 0..copies {
                    let delay = self.latency.sample(&mut self.rng) + extra_delay;
                    self.queue.push(
                        now + delay,
                        Delivery {
                            from,
                            to,
                            message: message.clone(),
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network<u32> {
        Network::new(
            LatencyModel {
                base: SimDuration::from_micros(500),
                jitter: SimDuration::ZERO,
            },
            1,
        )
    }

    #[test]
    fn delivers_after_latency() {
        let mut n = net();
        let a = n.register();
        let b = n.register();
        n.send(SimTime::ZERO, a, b, 7, 100);
        assert!(n.poll(SimTime::from_micros(499)).is_empty());
        let d = n.poll(SimTime::from_micros(500));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, SimTime::from_micros(500));
        assert_eq!(
            d[0].1,
            Delivery {
                from: a,
                to: b,
                message: 7
            }
        );
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn fifo_between_same_instant_sends() {
        let mut n = net();
        let a = n.register();
        let b = n.register();
        for i in 0..5 {
            n.send(SimTime::ZERO, a, b, i, 10);
        }
        let msgs: Vec<u32> = n
            .poll(SimTime::from_secs(1))
            .into_iter()
            .map(|(_, d)| d.message)
            .collect();
        assert_eq!(msgs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let lat = LatencyModel {
            base: SimDuration::from_micros(100),
            jitter: SimDuration::from_micros(50),
        };
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        for _ in 0..100 {
            let d1 = lat.sample(&mut r1);
            assert!(d1 >= SimDuration::from_micros(100));
            assert!(d1 <= SimDuration::from_micros(150));
            assert_eq!(d1, lat.sample(&mut r2));
        }
    }

    #[test]
    fn bytes_are_accounted() {
        let mut n = net();
        let a = n.register();
        let b = n.register();
        n.send(SimTime::ZERO, a, b, 1, 1000);
        n.send(SimTime::from_millis(10), a, b, 2, 500);
        assert_eq!(n.accountant().total_bytes(), 1500);
    }

    #[test]
    fn addresses_are_unique() {
        let mut n = net();
        let a = n.register();
        let b = n.register();
        assert_ne!(a, b);
        assert_eq!(a.as_u64() + 1, b.as_u64());
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_faultless_network() {
        let lat = LatencyModel::default();
        let mut plain: Network<u32> = Network::new(lat, 42);
        let mut faulty: Network<u32> = Network::with_faults(lat, 42, FaultPlan::none());
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        for i in 0..500 {
            let now = SimTime::from_millis(i as u64);
            plain.send(now, a, b, i, 64);
            faulty.send(now, a, b, i, 64);
        }
        let end = SimTime::from_secs(10);
        assert_eq!(plain.poll(end), faulty.poll(end));
        assert_eq!(
            plain.accountant().total_bytes(),
            faulty.accountant().total_bytes()
        );
    }

    #[test]
    fn dropped_messages_still_cost_wire_bytes() {
        let mut n: Network<u32> =
            Network::with_faults(LatencyModel::zero(), 1, FaultPlan::none().with_loss(1.0));
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        n.send(SimTime::ZERO, a, b, 7, 100);
        assert!(n.poll(SimTime::from_secs(1)).is_empty());
        assert_eq!(n.accountant().total_bytes(), 100);
        assert_eq!(n.fault_stats().dropped, 1);
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let mut n: Network<u32> = Network::with_faults(
            LatencyModel::zero(),
            1,
            FaultPlan::none().with_duplicates(1.0),
        );
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        n.send(SimTime::ZERO, a, b, 7, 100);
        let out = n.poll(SimTime::from_secs(1));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, d)| d.message == 7));
        assert_eq!(n.fault_stats().duplicated, 1);
    }

    #[test]
    fn delay_spike_defers_delivery() {
        let mut n: Network<u32> = Network::with_faults(
            LatencyModel::zero(),
            1,
            FaultPlan::none().with_delay_spikes(1.0, SimDuration::from_secs(2)),
        );
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        n.send(SimTime::ZERO, a, b, 7, 100);
        assert!(n.poll(SimTime::from_millis(1999)).is_empty());
        assert_eq!(n.poll(SimTime::from_secs(2)).len(), 1);
    }

    #[test]
    fn partition_blackholes_the_pair_then_heals() {
        let plan = FaultPlan::none().with_partition(
            Addr::from_raw(0),
            Addr::from_raw(1),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let mut n: Network<u32> = Network::with_faults(LatencyModel::zero(), 1, plan);
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        n.send(SimTime::from_millis(1500), a, b, 1, 10);
        n.send(SimTime::from_millis(1500), b, a, 2, 10);
        n.send(SimTime::from_secs(2), a, b, 3, 10);
        let out: Vec<u32> = n
            .poll(SimTime::from_secs(5))
            .into_iter()
            .map(|(_, d)| d.message)
            .collect();
        assert_eq!(out, vec![3]);
        assert_eq!(n.fault_stats().partitioned, 2);
    }

    #[test]
    fn faulty_networks_with_same_seed_are_identical() {
        let plan = FaultPlan::none()
            .with_loss(0.2)
            .with_duplicates(0.1)
            .with_delay_spikes(0.05, SimDuration::from_millis(300));
        let lat = LatencyModel::default();
        let mut x: Network<u32> = Network::with_faults(lat, 9, plan.clone());
        let mut y: Network<u32> = Network::with_faults(lat, 9, plan);
        let (a, b) = (Addr::from_raw(0), Addr::from_raw(1));
        for i in 0..1000 {
            let now = SimTime::from_millis(i as u64);
            x.send(now, a, b, i, 64);
            y.send(now, a, b, i, 64);
        }
        let end = SimTime::from_secs(100);
        assert_eq!(x.poll(end), y.poll(end));
        assert_eq!(x.fault_stats(), y.fault_stats());
    }
}
